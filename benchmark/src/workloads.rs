//! The four benchmark workloads and the seed → input-graph generators.
//!
//! The program under test only ever sees the generated matrix: `--seed`
//! drives the generators here and nothing else (`SummaConfig::seed` stays
//! at the preset value).

use hipmcl_comm::TransportKind;
use hipmcl_core::MclConfig;
use hipmcl_sparse::{Csc, Idx, Triples};
use hipmcl_workloads::protein::ProteinNet;
use hipmcl_workloads::rmat::{generate_rmat, RmatParams};
use hipmcl_workloads::{generate_protein_net, Dataset, ProteinNetConfig};

/// Ranks of every distributed workload: the smallest real grid (2×2).
/// The host has 2 cores and the vendored rayon is sequential, so ranks
/// already outnumber cores; p = 9 would only measure the scheduler.
pub const RANKS: usize = 4;

/// MCL iteration budget of every workload — the repository harness's own
/// (`hipmcl_bench::bench_mcl_config_for`). These graphs converge after
/// 13–18 iterations depending on the seed, and a late iteration is nearly
/// free in compute but costs ~0.25 s of latency-bound collectives on TCP;
/// a fixed budget keeps the work of one run the same for every seed. The
/// labels are the components of the 12th iterate, checked against the
/// serial reference under the same budget.
pub const MAX_ITERS: usize = 12;

/// Which input family a workload runs on.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum GraphKind {
    /// Archaea-like planted-partition protein-similarity net at
    /// `Dataset::Archaea.config(reduction)`.
    Protein { reduction: u64 },
    /// R-MAT with Graph500 parameters.
    Rmat { scale: u32, edge_factor: usize },
}

/// How the MCL run executes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Mode {
    /// `core::cluster_serial`, one thread, no comm.
    Serial,
    /// `core::dist::cluster_distributed_from` on [`RANKS`] ranks.
    Dist(TransportKind),
}

/// Which paper preset configures the distributed run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Preset {
    Optimized,
    OriginalHipmcl,
}

/// One benchmark workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// Why this workload exists (copied into `BENCHMARK.json`).
    pub why: &'static str,
    pub graph: GraphKind,
    pub mode: Mode,
    pub preset: Preset,
    /// Per-rank byte budget of the phase planner.
    pub per_rank_budget: u64,
    /// `prune.select` (MCL `-S`).
    pub select: usize,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "protein_serial",
        why: "plain single-threaded baseline: spgemm::multiply_auto + sparse::colops only; kernel PRs show undiluted, comm PRs must not move it",
        graph: GraphKind::Protein { reduction: 500 },
        mode: Mode::Serial,
        preset: Preset::Optimized,
        per_rank_budget: 4 << 30,
        select: 300,
    },
    Workload {
        name: "protein_inproc_p4",
        why: "paper headline config (optimized preset) on 4 in-process ranks: gpu kernels + summa pipeline work, byte path idle (Arc hand-off) - bypass for comm PRs",
        graph: GraphKind::Protein { reduction: 500 },
        mode: Mode::Dist(TransportKind::InProcess),
        preset: Preset::Optimized,
        per_rank_budget: 4 << 30,
        select: 300,
    },
    Workload {
        name: "rmat_phased_tcp_p4",
        why: "skewed R-MAT under an 8 MiB budget over TCP: multi-phase fused pruning, sparse::wire, comm::socket and latency-bound collectives dominate",
        graph: GraphKind::Rmat {
            scale: 13,
            edge_factor: 16,
        },
        mode: Mode::Dist(TransportKind::Tcp),
        preset: Preset::Optimized,
        per_rank_budget: 8 << 20,
        select: 100,
    },
    Workload {
        name: "protein_original_uds_p4",
        why: "the paper's baseline bar: original_hipmcl preset (heap kernel, exact estimator, multiway merge, tree bcast) over Unix sockets - guards the other arm of every policy",
        graph: GraphKind::Protein { reduction: 2000 },
        mode: Mode::Dist(TransportKind::Uds),
        preset: Preset::OriginalHipmcl,
        per_rank_budget: 4 << 30,
        select: 300,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The MCL configuration of this workload.
    pub fn mcl_config(&self) -> MclConfig {
        let mut cfg = match self.preset {
            Preset::Optimized => MclConfig::optimized(self.per_rank_budget),
            Preset::OriginalHipmcl => MclConfig::original_hipmcl(self.per_rank_budget),
        };
        cfg.prune.select = self.select;
        cfg.max_iters = MAX_ITERS;
        cfg
    }

    /// The graph family at full or smoke (÷8 vertices) size.
    pub fn graph_kind(&self, smoke: bool) -> GraphKind {
        match (self.graph, smoke) {
            (g, false) => g,
            (GraphKind::Protein { reduction }, true) => GraphKind::Protein {
                reduction: reduction * 8,
            },
            (GraphKind::Rmat { scale, edge_factor }, true) => GraphKind::Rmat {
                scale: scale - 3,
                edge_factor,
            },
        }
    }
}

/// A generated input: the adjacency matrix and, for planted graphs, the
/// ground-truth partition.
pub struct Input {
    pub adjacency: Csc<f64>,
    pub truth: Option<Vec<u32>>,
}

/// Generates the input of `kind` from `seed`. Deterministic.
pub fn generate(kind: GraphKind, seed: u64) -> Input {
    match kind {
        GraphKind::Protein { reduction } => {
            let net = stratified_protein_net(&Dataset::Archaea.config(reduction), seed);
            Input {
                adjacency: Csc::from_triples(&net.graph),
                truth: Some(net.truth),
            }
        }
        GraphKind::Rmat { scale, edge_factor } => Input {
            adjacency: Csc::from_triples(&generate_rmat(&RmatParams::graph500(
                scale,
                edge_factor,
                seed,
            ))),
            truth: None,
        },
    }
}

/// SplitMix64: the benchmark's own seed → stream expander (noise edges,
/// permutation, per-family sub-seeds).
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Family sizes covering `cfg.n`: the quantiles of the generator's own
/// truncated power law (`cluster_alpha` on `[min_cluster, max_cluster]`)
/// instead of random draws from it.
///
/// `workloads::protein::cluster_sizes` draws ~40 sizes from a heavy tail,
/// and the flops of an MCL run grow with the cube of the largest ones:
/// across seeds the work of "the same" workload swings by ±20 %, which
/// no repetition count averages away. Taking the quantiles keeps the size
/// profile and makes the work a property of the workload, not the seed.
pub fn stratified_sizes(cfg: &ProteinNetConfig) -> Vec<usize> {
    let (lo, hi) = (cfg.min_cluster as f64, cfg.max_cluster as f64);
    let a = 1.0 - cfg.cluster_alpha;
    let quantile = |u: f64| {
        let s = (lo.powf(a) + u * (hi.powf(a) - lo.powf(a))).powf(1.0 / a);
        s.round().max(1.0) as usize
    };
    // Smallest family count whose quantile sizes cover n; the last family
    // is truncated to fit, as the generator does.
    let mut m = 1;
    loop {
        let mut sizes: Vec<usize> = (0..m)
            .map(|i| quantile((i as f64 + 0.5) / m as f64))
            .collect();
        let total: usize = sizes.iter().sum();
        if total >= cfg.n {
            let mut excess = total - cfg.n;
            while excess > 0 {
                let last = sizes.last_mut().expect("m >= 1");
                let cut = excess.min(*last);
                *last -= cut;
                excess -= cut;
                if *last == 0 {
                    sizes.pop();
                }
            }
            return sizes;
        }
        m += 1;
    }
}

/// Planted-partition protein net with [`stratified_sizes`] families.
/// Each family's edges come from `generate_protein_net` itself (one
/// single-family instance per family, sub-seeded from `seed`); the
/// inter-family noise and the vertex permutation follow the generator's
/// recipe with this module's RNG.
pub fn stratified_protein_net(cfg: &ProteinNetConfig, seed: u64) -> ProteinNet {
    let sizes = stratified_sizes(cfg);
    let n = cfg.n;
    let mut rng = SplitMix64(seed);
    let mut graph = Triples::new(n, n);
    let mut truth = vec![0u32; n];
    let mut start = 0usize;
    for (c, &size) in sizes.iter().enumerate() {
        let family = generate_protein_net(&ProteinNetConfig {
            n: size,
            avg_degree: cfg.avg_degree * (1.0 - cfg.noise_frac),
            min_cluster: size,
            max_cluster: size,
            noise_frac: 0.0,
            seed: rng.next_u64(),
            ..*cfg
        });
        for (r, col, v) in family.graph.iter() {
            graph.push(start as Idx + r, start as Idx + col, v);
        }
        truth[start..start + size].fill(c as u32);
        start += size;
    }

    let noise_edges = (n as f64 * cfg.avg_degree * cfg.noise_frac / 2.0) as usize;
    for _ in 0..noise_edges {
        let (a, b) = (rng.below(n), rng.below(n));
        if truth[a] == truth[b] {
            continue;
        }
        let w = 0.05 + 0.15 * rng.unit();
        graph.push(a as Idx, b as Idx, w);
        graph.push(b as Idx, a as Idx, w);
    }

    // Random vertex ids, so no grid block owns whole families.
    let mut perm: Vec<Idx> = (0..n as Idx).collect();
    for i in (1..n).rev() {
        perm.swap(i, rng.below(i + 1));
    }
    for r in &mut graph.rows {
        *r = perm[*r as usize];
    }
    for c in &mut graph.cols {
        *c = perm[*c as usize];
    }
    let mut permuted_truth = vec![0u32; n];
    for (v, &p) in perm.iter().enumerate() {
        permuted_truth[p as usize] = truth[v];
    }
    graph.sum_duplicates();

    ProteinNet {
        graph,
        truth: permuted_truth,
        num_clusters: sizes.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stratified_sizes_cover_n_and_ignore_the_seed() {
        for reduction in [500, 2000, 16_000] {
            let cfg = Dataset::Archaea.config(reduction);
            let sizes = stratified_sizes(&cfg);
            assert_eq!(sizes.iter().sum::<usize>(), cfg.n);
            assert!(sizes.iter().all(|&s| s >= 1 && s <= cfg.max_cluster));
            let other = ProteinNetConfig { seed: 99, ..cfg };
            assert_eq!(stratified_sizes(&other), sizes);
        }
    }

    #[test]
    fn protein_input_is_deterministic_symmetric_and_seed_dependent() {
        let kind = GraphKind::Protein { reduction: 16_000 };
        let a = generate(kind, 3);
        let b = generate(kind, 3);
        let c = generate(kind, 4);
        assert_eq!(a.adjacency, b.adjacency);
        assert_ne!(a.adjacency, c.adjacency);
        assert_eq!(a.adjacency.transposed(), a.adjacency);
        let truth = a.truth.expect("planted graphs carry their truth");
        assert_eq!(truth.len(), a.adjacency.ncols());
        let families = stratified_sizes(&Dataset::Archaea.config(16_000)).len();
        assert_eq!(
            truth.iter().copied().max().map(|m| m as usize + 1),
            Some(families)
        );
    }

    #[test]
    fn workload_names_are_unique_and_findable() {
        for w in &WORKLOADS {
            assert_eq!(find(w.name).map(|x| x.name), Some(w.name));
            assert!(w.why.len() <= 200, "{}: why is one short line", w.name);
            assert_eq!(w.mcl_config().max_iters, MAX_ITERS);
        }
        assert!(find("nope").is_none());
    }
}
