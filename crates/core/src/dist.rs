//! The distributed HipMCL driver.
//!
//! One MCL iteration on the `√P × √P` grid:
//!
//! 1. **Memory estimation** (§V) — inside the SUMMA driver's `Auto`
//!    phase plan, exact-symbolic or probabilistic per the config; the
//!    phase count is the fewest phases whose unpruned slab fits the
//!    per-rank budget.
//! 2. **Expansion** `B = A·A` via (Pipelined) Sparse SUMMA, with pruning
//!    *fused into the phases*: each phase's closing merge packs every
//!    column it finishes into the candidates the distributed top-k can
//!    keep (`summa::topk::PruneSink`), and the phase's hook prunes them
//!    (cutoff + distributed top-k selection) before the next phase runs,
//!    so neither the unpruned matrix nor a phase's unpruned slab ever
//!    exists (§II).
//! 3. **Inflation** — local Hadamard power, then column renormalization
//!    with sums reduced down the process columns.
//! 4. **Chaos** — distributed convergence statistic.
//!
//! When the loop converges, clusters are read off the connected
//! components of the final matrix. Results are validated against
//! [`crate::serial`] in the tests.

use crate::config::MclConfig;
use crate::serial::IterTrace;
use hipmcl_comm::collectives::{allreduce, allreduce_sum_vec};
use hipmcl_comm::{ProcGrid, WireDecode, WireEncode, WireError, WireReader};
use hipmcl_gpu::multi::MultiGpu;
use hipmcl_sparse::{colops, Csc, PlusTimes};
use hipmcl_summa::components::gathered_components;
use hipmcl_summa::estimate::MemoryEstimate;
use hipmcl_summa::spgemm::{summa_spgemm_with_in, SummaOutput};
use hipmcl_summa::topk::{prune_packed, PruneSink};
use hipmcl_summa::DistMatrix;

/// Canonical stage order for reports (matches the paper's Fig. 1 legend).
/// `expansion` is the wall time of the whole SUMMA pipeline section
/// (broadcasts + kernels + merging + synchronization waits, excluding the
/// fused pruning) — the quantity Table II calls "overall".
pub const STAGES: [&str; 7] = [
    "local_spgemm",
    "mem_estimation",
    "summa_bcast",
    "merge",
    "pruning",
    "other",
    "expansion",
];

/// Result of a distributed MCL run, identical on every rank.
#[derive(Clone, Debug)]
pub struct DistMclReport {
    /// Dense cluster labels per global vertex.
    pub labels: Vec<u32>,
    /// Number of clusters.
    pub num_clusters: usize,
    /// Iterations executed.
    pub iterations: usize,
    /// Whether the chaos criterion was met.
    pub converged: bool,
    /// Total modeled wall time: max over ranks of the final virtual clock.
    pub total_time: f64,
    /// Per-stage virtual time, *mean* over ranks, summed over iterations,
    /// ordered as [`STAGES`]. (Means, not maxima: with per-rank load
    /// imbalance, synchronization waits land in whichever stage follows
    /// the straggler, so per-rank maxima over-count; means keep the
    /// stages additive, matching how stage breakdowns are reported.)
    pub stage_times: Vec<(String, f64)>,
    /// Wall-clock counterpart of [`stage_times`](Self::stage_times):
    /// real host seconds per stage, mean over ranks, ordered as
    /// [`STAGES`]. Filled only when the universe runs under
    /// `TimeModel::Measured`; all durations are `0.0` under `Modeled`,
    /// which never reads the host clock.
    pub stage_times_measured: Vec<(String, f64)>,
    /// Mean over ranks of host idle time waiting on launch events
    /// (Table V).
    pub cpu_idle: f64,
    /// Mean over ranks of device idle time, read off the executor's
    /// device streams (Table V's GPU column; zero when no devices are
    /// configured).
    pub gpu_idle: f64,
    /// Per-iteration peak single-merge element count, max over ranks
    /// (Table III's peak-memory proxy).
    pub merge_peaks: Vec<u64>,
    /// Per-iteration memory estimates (when auto phases ran).
    pub estimates: Vec<Option<MemoryEstimate>>,
    /// Per-iteration algorithmic trace (global quantities).
    pub trace: Vec<IterTrace>,
}

impl DistMclReport {
    /// Modeled seconds of the named stage (one of [`STAGES`]), mean over
    /// ranks, summed over iterations; `0.0` for a name the report does
    /// not carry.
    pub fn stage(&self, name: &str) -> f64 {
        self.stage_times
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, t)| *t)
    }
}

// The report is what a `process-shm` rank ships back to the parent, so
// it must be a full wire payload (the size hook just prices the encoded
// form — the report never travels through the modeled α–β collectives).
impl hipmcl_comm::WireSize for DistMclReport {
    fn wire_bytes(&self) -> usize {
        self.encoded().len()
    }
}

impl WireEncode for DistMclReport {
    fn encode(&self, out: &mut Vec<u8>) {
        self.labels.encode(out);
        self.num_clusters.encode(out);
        self.iterations.encode(out);
        self.converged.encode(out);
        self.total_time.encode(out);
        self.stage_times.encode(out);
        self.stage_times_measured.encode(out);
        self.cpu_idle.encode(out);
        self.gpu_idle.encode(out);
        self.merge_peaks.encode(out);
        self.estimates.encode(out);
        self.trace.encode(out);
    }
}

impl WireDecode for DistMclReport {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(DistMclReport {
            labels: Vec::<u32>::decode(r)?,
            num_clusters: usize::decode(r)?,
            iterations: usize::decode(r)?,
            converged: bool::decode(r)?,
            total_time: f64::decode(r)?,
            stage_times: Vec::<(String, f64)>::decode(r)?,
            stage_times_measured: Vec::<(String, f64)>::decode(r)?,
            cpu_idle: f64::decode(r)?,
            gpu_idle: f64::decode(r)?,
            merge_peaks: Vec::<u64>::decode(r)?,
            estimates: Vec::<Option<MemoryEstimate>>::decode(r)?,
            trace: Vec::<IterTrace>::decode(r)?,
        })
    }
}

/// Runs distributed MCL on an input replicated at every rank (each rank
/// calls with the same `adjacency`, e.g. generated from a shared seed).
/// Preparation (symmetrize, self-loops, normalization) happens before
/// distribution. Collective over the grid.
pub fn cluster_distributed(
    grid: &ProcGrid,
    gpus: &mut MultiGpu,
    adjacency: &Csc<f64>,
    cfg: &MclConfig,
) -> DistMclReport {
    let prepared = crate::serial::prepare_matrix(adjacency, cfg);
    let a = DistMatrix::from_global(grid, &prepared.to_triples());
    cluster_distributed_from(grid, gpus, a, cfg)
}

/// Runs distributed MCL on an already-distributed, already column
/// stochastic matrix. Collective over the grid.
pub fn cluster_distributed_from(
    grid: &ProcGrid,
    gpus: &mut MultiGpu,
    a: DistMatrix,
    cfg: &MclConfig,
) -> DistMclReport {
    cluster_distributed_with(grid, gpus, a, cfg, |_, _| {})
}

/// [`cluster_distributed_from`] with an observer: on every rank,
/// `observe(iter, &out)` sees iteration `iter`'s (1-based) raw
/// [`SummaOutput`] — this rank's, before any cross-rank rollup — once its
/// stage accounting is done and before the driver consumes `out.c`. The
/// hook is purely additive: the driver makes the same collectives and
/// clock charges in the same order whatever the observer does, so an
/// observer that stays off the communicator leaves the run (and its
/// report) bit-identical to the unobserved one.
pub fn cluster_distributed_with(
    grid: &ProcGrid,
    gpus: &mut MultiGpu,
    mut a: DistMatrix,
    cfg: &MclConfig,
    mut observe: impl FnMut(usize, &SummaOutput),
) -> DistMclReport {
    cfg.validate()
        .unwrap_or_else(|e| panic!("invalid MclConfig: {e}"));
    let comm = &grid.world;
    let mut stage = hipmcl_comm::StageTimers::new();
    let mut stage_measured = hipmcl_comm::StageTimers::new();
    let mut merge_peaks = Vec::new();
    let mut estimates = Vec::new();
    let mut trace = Vec::new();
    let mut cpu_idle = 0.0;
    let mut gpu_idle = 0.0;
    let mut converged = false;
    let mut iterations = 0;
    // Per-iteration local [expansion, merge] seconds, flattened; averaged
    // over ranks once after the loop, in a single collective.
    let mut iter_stage_local: Vec<f64> = Vec::new();

    for _ in 0..cfg.max_iters {
        iterations += 1;

        // Expansion with fused per-phase pruning.
        let mut prune_time = 0.0f64;
        let mut prune_measured = 0.0f64;
        let prune_params = cfg.prune;
        let t_expand = comm.now();
        let w_expand = comm.measured_now();
        let out = {
            let col_comm = &grid.col_comm;
            let (s, sink) = (PlusTimes::<f64>::new(), &PruneSink(prune_params));
            // The iterate moves into the `Arc` the broadcasts share.
            let a = std::sync::Arc::new(a);
            summa_spgemm_with_in(s, grid, gpus, &a, &a, &cfg.summa, sink, |_ph, packed| {
                let t0 = col_comm.now();
                let w0 = col_comm.measured_now();
                let (pruned, _stats) = prune_packed(col_comm, &packed, &prune_params);
                // Charge the columnwise scan + selection work on the
                // merged slab the sink counted.
                let merged = packed.merged_nnz() as u64;
                col_comm.advance_clock(col_comm.model().elementwise_time(merged));
                prune_time += col_comm.now() - t0;
                prune_measured += col_comm.measured_now() - w0;
                pruned
            })
        };
        for (name, t) in out.timers.iter() {
            stage.add(name, t);
        }
        for (name, t) in out.timers_measured.iter() {
            stage_measured.add(name, t);
        }
        let it_expand = comm.now() - t_expand - prune_time;
        let it_merge = out.timers.get("merge");
        iter_stage_local.extend([it_expand, it_merge]);
        stage.add("pruning", prune_time);
        stage.add("expansion", it_expand);
        stage_measured.add("pruning", prune_measured);
        stage_measured.add(
            "expansion",
            (comm.measured_now() - w_expand - prune_measured).max(0.0),
        );
        cpu_idle += out.cpu_idle;
        gpu_idle += out.gpu_idle;
        merge_peaks.push(out.merge_stats.peak_merge_elems as u64);
        estimates.push(out.estimate);
        observe(iterations, &out);

        let nnz_pruned = out.c.nnz_global(grid);
        let flops = out.estimate.map_or(0, |e| e.flops);
        let nnz_expanded = out
            .estimate
            .map_or(nnz_pruned, |e| e.nnz_estimate.max(0.0) as u64);
        a = out.c;

        // Inflation + chaos (distributed, per column).
        let t0 = comm.now();
        let w0 = comm.measured_now();
        let (_, chaos) = dist_inflate_and_chaos_cols(grid, &mut a.local, cfg.inflation);
        stage.add("other", comm.now() - t0);
        stage_measured.add("other", comm.measured_now() - w0);

        trace.push(IterTrace {
            flops,
            nnz_expanded,
            nnz_pruned,
            cf: if nnz_expanded == 0 {
                1.0
            } else {
                flops as f64 / nnz_expanded as f64
            },
            chaos,
            // Rank means filled in after the loop.
            expansion_time: 0.0,
            merge_time: 0.0,
        });
        if chaos < cfg.chaos_epsilon {
            converged = true;
            break;
        }
    }

    // Rank means of the per-iteration stage seconds (one collective for
    // the whole run; every rank ran the same number of iterations).
    let p_f = grid.size() as f64;
    let iter_stage_mean = allreduce_sum_vec(&grid.world, iter_stage_local);
    for (i, tr) in trace.iter_mut().enumerate() {
        tr.expansion_time = iter_stage_mean[2 * i] / p_f;
        tr.merge_time = iter_stage_mean[2 * i + 1] / p_f;
    }

    // Cluster extraction: connected components of the converged matrix.
    let (labels, num_clusters) = gathered_components(grid, &a);

    // Aggregate instrumentation across ranks (mean per stage).
    let my_stage_vec: Vec<f64> = STAGES.iter().map(|s| stage.get(s)).collect();
    let mean_stage = allreduce_sum_vec(&grid.world, my_stage_vec);
    let stage_times: Vec<(String, f64)> = STAGES
        .iter()
        .zip(&mean_stage)
        .map(|(s, &t)| (s.to_string(), t / grid.size() as f64))
        .collect();
    let my_measured_vec: Vec<f64> = STAGES.iter().map(|s| stage_measured.get(s)).collect();
    let mean_measured = allreduce_sum_vec(&grid.world, my_measured_vec);
    let stage_times_measured: Vec<(String, f64)> = STAGES
        .iter()
        .zip(&mean_measured)
        .map(|(s, &t)| (s.to_string(), t / grid.size() as f64))
        .collect();
    let total_time = allreduce(&grid.world, comm.now(), f64::max);
    let p = grid.size() as f64;
    let idle = allreduce_sum_vec(&grid.world, vec![cpu_idle, gpu_idle]);
    let merge_peaks = {
        let local: Vec<f64> = merge_peaks.iter().map(|&x| x as f64).collect();
        let reduced = allreduce(&grid.world, local, |mut x, y| {
            for (a, b) in x.iter_mut().zip(&y) {
                *a = a.max(*b);
            }
            x
        });
        reduced.into_iter().map(|x| x as u64).collect()
    };

    DistMclReport {
        labels,
        num_clusters,
        iterations,
        converged,
        total_time,
        stage_times,
        stage_times_measured,
        cpu_idle: idle[0] / p,
        gpu_idle: idle[1] / p,
        merge_peaks,
        estimates,
        trace,
    }
}

/// Inflation (Hadamard power) with distributed column renormalization,
/// followed by the distributed chaos statistic. Returns this rank's
/// per-column chaos vector (one entry per local panel column, identical
/// across the ranks of a process column because it is computed from the
/// column-reduced max and sum of squares) and the global chaos — the max
/// over all columns.
pub fn dist_inflate_and_chaos_cols(
    grid: &ProcGrid,
    m: &mut Csc<f64>,
    power: f64,
) -> (Vec<f64>, f64) {
    let col_comm = &grid.col_comm;
    let ncols = m.ncols();

    // Hadamard power and local column sums in one walk; the sums are
    // reduced down the process column.
    let local_sums: Vec<f64> = (0..ncols)
        .map(|j| {
            let powered = m.col_vals_mut(j).iter_mut().map(|v| {
                *v = colops::inflate_entry(*v, power);
                *v
            });
            powered.sum()
        })
        .collect();
    let sums = allreduce_sum_vec(col_comm, local_sums);
    // Renormalization with the chaos partials — per-column max, then
    // per-column sum of squares — in the second walk.
    let mut partials = vec![0.0f64; 2 * ncols];
    scale_columns(m, &sums, |j, v| {
        partials[j] = partials[j].max(v);
        partials[ncols + j] += v * v;
    });
    col_comm.advance_clock(col_comm.model().elementwise_time(2 * m.nnz() as u64));

    // One reduction for both halves: max on the first, sum on the second.
    let reduced = allreduce(col_comm, partials, |mut x, y| {
        let (xmax, xssq) = x.split_at_mut(ncols);
        let (ymax, yssq) = y.split_at(ncols);
        for (a, b) in xmax.iter_mut().zip(ymax) {
            *a = a.max(*b);
        }
        for (a, b) in xssq.iter_mut().zip(yssq) {
            *a += b;
        }
        x
    });
    let (gmax, gssq) = reduced.split_at(ncols);
    let col_chaos: Vec<f64> = gmax
        .iter()
        .zip(gssq)
        .map(|(&mx, &s)| if mx > 0.0 { mx - s } else { 0.0 })
        .collect();
    // The world allreduce folds from 0.0, the chaos identity: a column of
    // a stochastic matrix has `max ≥ Σv²` (since `Σv = 1`), so per-column
    // chaos is nonnegative, and a rank whose panel owns zero columns (a
    // degenerate grid with `side > ncols`) contributes exactly 0.0 — no
    // uninitialized or −∞ local can poison the max.
    let local_chaos = col_chaos.iter().copied().fold(0.0f64, f64::max);
    let chaos = allreduce(&grid.world, local_chaos, f64::max);
    (col_chaos, chaos)
}

/// Divides every column `j` with `sums[j] > 0` by `sums[j]` (the others
/// stay as they are: `× 1.0` is exact) and hands each entry's final value
/// to `visit(j, value)`.
fn scale_columns(m: &mut Csc<f64>, sums: &[f64], mut visit: impl FnMut(usize, f64)) {
    for (j, &s) in sums.iter().enumerate() {
        let inv = if s > 0.0 { 1.0 / s } else { 1.0 };
        for v in m.col_vals_mut(j) {
            *v *= inv;
            visit(j, *v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipmcl_comm::{MachineModel, Universe};
    use hipmcl_gpu::select::SelectionPolicy;
    use hipmcl_sparse::{Idx, Triples};
    use rand::{Rng, SeedableRng};

    fn planted(k: usize, sz: usize, noise: usize, seed: u64) -> Csc<f64> {
        let n = k * sz;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let mut t = Triples::new(n, n);
        for c in 0..k {
            let base = c * sz;
            for i in 0..sz {
                for j in (i + 1)..sz {
                    t.push(
                        (base + i) as Idx,
                        (base + j) as Idx,
                        rng.gen_range(0.8..1.0),
                    );
                }
            }
        }
        for _ in 0..noise {
            let a = rng.gen_range(0..n);
            let b = rng.gen_range(0..n);
            if a / sz != b / sz {
                t.push(a as Idx, b as Idx, rng.gen_range(0.01..0.05));
            }
        }
        Csc::from_triples(&t)
    }

    fn same_partition(a: &[u32], b: &[u32]) -> bool {
        if a.len() != b.len() {
            return false;
        }
        for i in 0..a.len() {
            for j in (i + 1)..a.len() {
                if (a[i] == a[j]) != (b[i] == b[j]) {
                    return false;
                }
            }
        }
        true
    }

    #[test]
    fn distributed_matches_serial_clusters() {
        let g = planted(4, 6, 15, 11);
        let cfg = MclConfig::testing(12);
        let serial = crate::serial::cluster_serial(&g, &cfg);
        for p in [1usize, 4, 9] {
            let results = Universe::run(p, MachineModel::summit(), |comm| {
                let grid = ProcGrid::new(comm);
                let mut gpus = MultiGpu::summit_node(grid.world.model());
                let g = planted(4, 6, 15, 11);
                cluster_distributed(&grid, &mut gpus, &g, &MclConfig::testing(12))
            });
            for r in &results {
                assert_eq!(r.num_clusters, serial.num_clusters, "p={p}");
                assert!(same_partition(&r.labels, &serial.labels), "p={p}");
                assert_eq!(r.iterations, serial.iterations, "p={p}");
                assert!(r.converged);
            }
        }
    }

    #[test]
    fn optimized_config_matches_original_clusters() {
        let run = |use_opt: bool| {
            let results = Universe::run(4, MachineModel::summit(), move |comm| {
                let grid = ProcGrid::new(comm);
                let mut gpus = MultiGpu::summit_node(grid.world.model());
                let g = planted(3, 7, 12, 13);
                let mut cfg = if use_opt {
                    MclConfig::optimized(u64::MAX)
                } else {
                    MclConfig::original_hipmcl(u64::MAX)
                };
                cfg.prune = hipmcl_sparse::colops::PruneParams {
                    cutoff: 1e-4,
                    select: 14,
                    recover_num: 0,
                    recover_pct: 0.0,
                };
                cluster_distributed(&grid, &mut gpus, &g, &cfg)
            });
            results.into_iter().next().unwrap()
        };
        let orig = run(false);
        let opt = run(true);
        assert_eq!(orig.num_clusters, opt.num_clusters);
        assert!(same_partition(&orig.labels, &opt.labels));
        assert_eq!(orig.num_clusters, 3);
    }

    #[test]
    fn both_kernel_sides_match_serial_clusters() {
        let g = planted(3, 6, 10, 29);
        let cfg = MclConfig::testing(12);
        let serial = crate::serial::cluster_serial(&g, &cfg);
        for policy in [SelectionPolicy::always_gpu(), SelectionPolicy::cpu_only()] {
            let results = Universe::run(4, MachineModel::summit(), move |comm| {
                let grid = ProcGrid::new(comm);
                let mut gpus = MultiGpu::summit_node(grid.world.model());
                let g = planted(3, 6, 10, 29);
                let mut cfg = MclConfig::testing(12);
                cfg.summa.policy = policy;
                cluster_distributed(&grid, &mut gpus, &g, &cfg)
            });
            for r in &results {
                assert_eq!(r.num_clusters, serial.num_clusters, "{policy:?}");
                assert!(same_partition(&r.labels, &serial.labels), "{policy:?}");
                assert!(r.cpu_idle >= 0.0 && r.gpu_idle >= 0.0, "{policy:?}");
            }
        }
    }

    #[test]
    fn a_node_without_accelerators_runs_every_multiply_on_the_host() {
        let g = planted(3, 6, 10, 31);
        let cfg = MclConfig::optimized(u64::MAX);
        let serial = crate::serial::cluster_serial(&g, &cfg);
        let model = MachineModel {
            gpus: 0,
            ..MachineModel::summit()
        };
        let results = Universe::run(4, model, |comm| {
            let grid = ProcGrid::new(comm);
            let mut gpus = MultiGpu::summit_node(grid.world.model());
            let g = planted(3, 6, 10, 31);
            let r = cluster_distributed(&grid, &mut gpus, &g, &cfg);
            (gpus.is_empty(), r)
        });
        for (no_devices, r) in &results {
            assert!(no_devices);
            assert_eq!(r.labels, serial.labels);
            assert_eq!(r.gpu_idle, 0.0);
        }
    }

    #[test]
    fn optimized_is_faster_than_original_in_model_time() {
        // Dense planted graph: expansion dominates, GPUs + overlap win.
        let run = |use_opt: bool| {
            let results = Universe::run(4, MachineModel::summit(), move |comm| {
                let grid = ProcGrid::new(comm);
                let mut gpus = MultiGpu::summit_node(grid.world.model());
                let g = planted(4, 40, 600, 17);
                let mut cfg = if use_opt {
                    MclConfig::optimized(u64::MAX)
                } else {
                    MclConfig::original_hipmcl(u64::MAX)
                };
                cfg.prune.select = 80;
                cfg.max_iters = 4;
                cluster_distributed(&grid, &mut gpus, &g, &cfg).total_time
            });
            results[0]
        };
        let t_orig = run(false);
        let t_opt = run(true);
        assert!(
            t_opt < t_orig,
            "optimized ({t_opt}) must beat original ({t_orig})"
        );
    }

    #[test]
    fn report_contains_all_stages() {
        let results = Universe::run(4, MachineModel::summit(), |comm| {
            let grid = ProcGrid::new(comm);
            let mut gpus = MultiGpu::summit_node(grid.world.model());
            let g = planted(2, 6, 5, 19);
            cluster_distributed(&grid, &mut gpus, &g, &MclConfig::testing(12))
        });
        let r = &results[0];
        let names: Vec<&str> = r.stage_times.iter().map(|(n, _)| n.as_str()).collect();
        for s in STAGES {
            assert!(names.contains(&s), "missing stage {s}");
        }
        assert!(r.total_time > 0.0);
        assert_eq!(r.trace.len(), r.iterations);
        assert_eq!(r.merge_peaks.len(), r.iterations);
        // Reports identical across ranks.
        for other in &results[1..] {
            assert_eq!(other.num_clusters, r.num_clusters);
            assert_eq!(other.total_time, r.total_time);
        }
    }

    #[test]
    fn chaos_not_poisoned_by_empty_local_panels() {
        // n = 2 on a 3×3 grid: even_chunk(2, 3, ·) = {1, 1, 0}, so the
        // third grid row/column owns zero rows/columns. The empty panels
        // must contribute the fold identity (0.0) to the world max — the
        // regression this pins is an uninitialized/−∞ local leaking in.
        let mut t = Triples::new(2, 2);
        t.push(0, 0, 0.9);
        t.push(1, 0, 0.1);
        t.push(0, 1, 0.2);
        t.push(1, 1, 0.8);
        let reference = Universe::run(1, MachineModel::summit(), {
            let t = t.clone();
            move |comm| {
                let grid = ProcGrid::new(comm);
                let mut local = DistMatrix::from_global(&grid, &t).local;
                dist_inflate_and_chaos_cols(&grid, &mut local, 2.0).1
            }
        })[0];
        assert!(reference.is_finite() && reference > 0.0);
        let results = Universe::run(9, MachineModel::summit(), move |comm| {
            let grid = ProcGrid::new(comm);
            let mut local = DistMatrix::from_global(&grid, &t.clone()).local;
            let (cols, chaos) = dist_inflate_and_chaos_cols(&grid, &mut local, 2.0);
            // Empty panels report an empty chaos vector, never NaN/−∞.
            assert_eq!(cols.len(), local.ncols());
            assert!(cols.iter().all(|c| c.is_finite() && *c >= 0.0));
            chaos
        });
        for &c in &results {
            assert_eq!(c, reference, "degenerate grid must match 1-rank chaos");
        }
    }

    #[test]
    fn iter_trace_wire_round_trip_and_old_bytes_rejected() {
        let it = IterTrace {
            flops: 123,
            nnz_expanded: 99,
            nnz_pruned: 70,
            cf: 1.76,
            chaos: 0.25,
            expansion_time: 1.5,
            merge_time: 0.5,
        };
        let bytes = it.encoded();
        let back = IterTrace::decode_all(&bytes).unwrap();
        assert_eq!(back.encoded(), bytes);
        assert_eq!(back.expansion_time.to_bits(), 1.5f64.to_bits());
        // Bytes without the stage times (flops..chaos only) do not decode:
        // the reader runs out before the last fields and must error, not
        // fabricate defaults.
        let mut old = Vec::new();
        it.flops.encode(&mut old);
        it.nnz_expanded.encode(&mut old);
        it.nnz_pruned.encode(&mut old);
        it.cf.encode(&mut old);
        it.chaos.encode(&mut old);
        assert!(IterTrace::decode_all(&old).is_err());
    }

    #[test]
    fn report_wire_round_trip_and_old_bytes_rejected() {
        let results = Universe::run(4, MachineModel::summit(), |comm| {
            let grid = ProcGrid::new(comm);
            let mut gpus = MultiGpu::summit_node(grid.world.model());
            let g = planted(2, 6, 5, 19);
            cluster_distributed(&grid, &mut gpus, &g, &MclConfig::testing(12))
        });
        let r = &results[0];
        let bytes = r.encoded();
        let back = DistMclReport::decode_all(&bytes).unwrap();
        assert_eq!(back.encoded(), bytes);
        assert_eq!(back.labels, r.labels);
        assert_eq!(back.trace.len(), r.trace.len());
        // A buffer cut inside the last trace entry is rejected as
        // truncated.
        let old = &bytes[..bytes.len() - 8];
        assert!(DistMclReport::decode_all(old).is_err());
    }

    #[test]
    fn inflation_is_the_serial_operator_bit_for_bit_on_1_and_4_ranks() {
        // Entries k/64: their squares and cubes and every sum of them are
        // exact, so the 2×2 grid's partial column sums meet the serial sum
        // in any order. Powers of 1.5 round, so only one rank — one sum,
        // in the serial order — is held to them.
        let mut rng = rand::rngs::SmallRng::seed_from_u64(49);
        let mut t = Triples::new(12, 12);
        for j in 0..12 {
            for i in 0..12 {
                if rng.gen_range(0..3) != 0 {
                    t.push(i, j, rng.gen_range(1..64) as f64 / 64.0);
                }
            }
        }
        let bits = |m: &Csc<f64>| m.vals.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (p, powers) in [(1, &[2.0, 1.5, 3.0][..]), (4, &[2.0, 3.0])] {
            for &power in powers {
                let mut want = Csc::from_triples(&t);
                colops::inflate(&mut want, power);
                let t = t.clone();
                let got = Universe::run(p, MachineModel::summit(), move |comm| {
                    let grid = ProcGrid::new(comm);
                    let mut m = DistMatrix::from_global(&grid, &t);
                    dist_inflate_and_chaos_cols(&grid, &mut m.local, power);
                    m.gather_to_root(&grid)
                });
                let got = got[0].as_ref().expect("rank 0 gathers");
                assert_eq!((&got.colptr, &got.rowidx), (&want.colptr, &want.rowidx));
                assert_eq!(bits(got), bits(&want), "{p} ranks, r = {power}");
            }
        }
    }

    #[test]
    fn chaos_zero_on_converged_matrix() {
        let results = Universe::run(4, MachineModel::summit(), |comm| {
            let grid = ProcGrid::new(comm);
            let idm = DistMatrix::from_global(&grid, &Csc::<f64>::identity(8).to_triples());
            let mut local = idm.local.clone();
            dist_inflate_and_chaos_cols(&grid, &mut local, 2.0).1
        });
        assert!(results.iter().all(|&c| c == 0.0));
    }
}
