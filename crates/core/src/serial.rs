//! Single-process reference MCL.
//!
//! Runs Algorithm 1 of the paper with the one-pass hash SpGEMM of §VI
//! (`hipmcl_spgemm::hash`), full pruning (cutoff, selection, recovery) and
//! inflation — fused: each expanded column is pruned and inflated as the
//! accumulator hands it over, so the unpruned product is never held (its
//! size is counted, as `nnz_expanded`). This is the oracle the
//! distributed driver is validated against, and a practical way to cluster
//! graphs that fit in one process.

use crate::config::MclConfig;
use hipmcl_sparse::colops::{self, PruneParams, PruneScratch};
use hipmcl_sparse::components::{clusters_from_labels, connected_components};
use hipmcl_sparse::wire::{WireDecode, WireEncode, WireError, WireReader};
use hipmcl_sparse::{Csc, CscBuilder, Idx, PlusTimes};
use hipmcl_spgemm::emit::Emit;
use hipmcl_spgemm::{flops_per_column, CpuAlgo, MultAnalysis};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Per-iteration trace entry of a serial run.
#[derive(Clone, Copy, Debug)]
pub struct IterTrace {
    /// `flops` of the expansion.
    pub flops: u64,
    /// `nnz` before pruning.
    pub nnz_expanded: u64,
    /// `nnz` after pruning.
    pub nnz_pruned: u64,
    /// Compression factor of the expansion.
    pub cf: f64,
    /// Chaos after inflation.
    pub chaos: f64,
    /// Modeled seconds of this iteration's expansion (SUMMA minus fused
    /// pruning), mean over ranks; `0.0` in serial runs.
    pub expansion_time: f64,
    /// Modeled seconds of this iteration's merge stage, mean over ranks;
    /// `0.0` in serial runs.
    pub merge_time: f64,
}

impl WireEncode for IterTrace {
    fn encode(&self, out: &mut Vec<u8>) {
        self.flops.encode(out);
        self.nnz_expanded.encode(out);
        self.nnz_pruned.encode(out);
        self.cf.encode(out);
        self.chaos.encode(out);
        self.expansion_time.encode(out);
        self.merge_time.encode(out);
    }
}

impl WireDecode for IterTrace {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(IterTrace {
            flops: u64::decode(r)?,
            nnz_expanded: u64::decode(r)?,
            nnz_pruned: u64::decode(r)?,
            cf: f64::decode(r)?,
            chaos: f64::decode(r)?,
            expansion_time: f64::decode(r)?,
            merge_time: f64::decode(r)?,
        })
    }
}

/// Result of a serial MCL run.
#[derive(Clone, Debug)]
pub struct MclResult {
    /// Dense cluster labels per vertex (`0..k`).
    pub labels: Vec<u32>,
    /// Number of clusters.
    pub num_clusters: usize,
    /// Vertices of each cluster, sorted.
    pub clusters: Vec<Vec<u32>>,
    /// Iterations executed.
    pub iterations: usize,
    /// Whether the chaos criterion was met (vs. the iteration cap).
    pub converged: bool,
    /// Per-iteration statistics.
    pub trace: Vec<IterTrace>,
}

/// Clusters `adjacency` with the Markov Cluster algorithm.
///
/// The input is interpreted as a weighted similarity graph; it is
/// symmetrized and self-looped ([`prepare_matrix`]), made column stochastic,
/// then iterated until the chaos statistic drops below
/// `cfg.chaos_epsilon`.
///
/// # Panics
///
/// On pruning parameters no prune can honour (`select == 0`, a negative
/// or NaN `cutoff`, `recover_pct` outside `[0, 1]`), checked by
/// [`MclConfig::validate`] with the distributed driver's message.
pub fn cluster_serial(adjacency: &Csc<f64>, cfg: &MclConfig) -> MclResult {
    assert_eq!(
        adjacency.nrows(),
        adjacency.ncols(),
        "MCL needs a square matrix"
    );
    cfg.validate()
        .unwrap_or_else(|e| panic!("invalid MclConfig: {e}"));
    let mut a = prepare_matrix(adjacency, cfg);

    let mut trace = Vec::new();
    let mut converged = false;
    let mut iterations = 0;

    for _ in 0..cfg.max_iters {
        iterations += 1;
        let (analysis, chaos) = mcl_iteration(&mut a, cfg);
        trace.push(IterTrace {
            flops: analysis.flops,
            nnz_expanded: analysis.nnz_out,
            nnz_pruned: a.nnz() as u64,
            cf: analysis.cf(),
            chaos,
            // The serial driver has no modeled clock.
            expansion_time: 0.0,
            merge_time: 0.0,
        });
        if chaos < cfg.chaos_epsilon {
            converged = true;
            break;
        }
    }

    let (labels, k) = connected_components(&a);
    let clusters = clusters_from_labels(&labels, k);
    MclResult {
        labels,
        num_clusters: k,
        clusters,
        iterations,
        converged,
        trace,
    }
}

/// One MCL iteration on a column-stochastic `a`, in place: expansion
/// `A·A`, pruning (threshold + selection + recovery), inflation (Hadamard
/// power + renormalize). Returns the expansion's analysis and the chaos
/// after inflation — the loop body of [`cluster_serial`], for harnesses
/// that walk the serial iterates themselves.
///
/// One column pass: the one-pass hash kernel of `hybrid::multiply_auto`
/// accumulates each column of `A·A`, which is drained into the worker's
/// buffers, pruned by `colops::prune_column` and inflated by
/// `colops::inflate_column` where it is appended. The result is
/// bit-identical to `multiply_auto`, `colops::prune` and `colops::inflate`
/// in turn, `nnz_out` included (the accumulators' lengths, summed), while
/// no more than one unpruned column per worker exists at a time.
pub fn mcl_iteration(a: &mut Csc<f64>, cfg: &MclConfig) -> (MultAnalysis, f64) {
    let fpc = flops_per_column(a, a);
    let nnz_out = AtomicU64::new(0);
    let step = PruneInflate {
        prune: &cfg.prune,
        inflation: cfg.inflation,
        nnz_out: &nnz_out,
        scratch: PruneScratch::default(),
    };
    *a = CpuAlgo::Hash.multiply_cols_in(PlusTimes::<f64>::new(), a, a, 0..a.ncols(), &fpc, step);
    let analysis = MultAnalysis {
        flops: fpc.iter().sum(),
        nnz_out: nnz_out.load(Relaxed),
    };
    (analysis, colops::chaos(a))
}

/// The serial iteration's column step: counts each expanded column's
/// entries into `nnz_out`, then prunes and inflates it where it is pushed.
#[derive(Clone)]
struct PruneInflate<'a> {
    prune: &'a PruneParams,
    inflation: f64,
    nnz_out: &'a AtomicU64,
    scratch: PruneScratch,
}

impl Emit<f64> for PruneInflate<'_> {
    fn room(&self, _: usize, bound: usize) -> usize {
        bound.min(self.prune.select.max(self.prune.recover_num))
    }

    fn emit(&mut self, _: usize, rows: &[Idx], vals: &[f64], out: &mut CscBuilder<f64>) {
        self.nnz_out.fetch_add(rows.len() as u64, Relaxed);
        let (rules, kept, _stats) = colops::prune_column(vals, self.prune, &mut self.scratch);
        out.push_column_with(kept, |r, v| {
            colops::write_admitted(rows, vals, rules, r, v);
            colops::inflate_column(v, self.inflation);
        });
    }
}

/// Symmetrizes the input with `max(a, aᵀ)` (similarity graphs are
/// logically undirected), adds a weight-1 self-loop where one is missing
/// (MCL's aperiodicity fix) and column-normalizes, in one pass that writes
/// the result once ([`colops::prepare`]). Every configuration prepares
/// alike; `_cfg` only keeps the callers' signature.
pub fn prepare_matrix(adjacency: &Csc<f64>, _cfg: &MclConfig) -> Csc<f64> {
    colops::prepare(adjacency, true, true, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipmcl_sparse::{Idx, Triples};
    use rand::{Rng, SeedableRng};

    /// Planted-partition graph: `k` dense clusters of size `sz` with heavy
    /// intra-cluster weights plus light random inter-cluster noise.
    pub(crate) fn planted(k: usize, sz: usize, noise: usize, seed: u64) -> Csc<f64> {
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

    #[test]
    fn recovers_planted_clusters() {
        let g = planted(4, 8, 20, 1);
        let result = cluster_serial(&g, &MclConfig::testing(16));
        assert!(result.converged, "must converge on an easy instance");
        assert_eq!(result.num_clusters, 4);
        // Every planted block must map to one cluster.
        for c in 0..4 {
            let label = result.labels[c * 8];
            for v in 0..8 {
                assert_eq!(result.labels[c * 8 + v], label, "block {c}");
            }
        }
    }

    #[test]
    fn two_disconnected_cliques_two_clusters() {
        let g = planted(2, 5, 0, 2);
        let result = cluster_serial(&g, &MclConfig::testing(10));
        assert_eq!(result.num_clusters, 2);
        assert!(result.converged);
    }

    #[test]
    fn identity_like_input_all_singletons() {
        let g = Csc::<f64>::identity(6);
        let result = cluster_serial(&g, &MclConfig::testing(4));
        assert_eq!(result.num_clusters, 6);
        assert_eq!(result.iterations, 1, "already converged after one step");
    }

    #[test]
    fn trace_records_iterations() {
        let g = planted(3, 6, 10, 3);
        let result = cluster_serial(&g, &MclConfig::testing(12));
        assert_eq!(result.trace.len(), result.iterations);
        for it in &result.trace {
            assert!(it.flops > 0);
            assert!(it.nnz_pruned <= it.nnz_expanded);
            assert!(it.cf >= 1.0);
        }
        // Chaos decreases towards convergence (not necessarily
        // monotonically, but last < first on an easy instance).
        let first = result.trace.first().unwrap().chaos;
        let last = result.trace.last().unwrap().chaos;
        assert!(last < first);
    }

    #[test]
    fn prepare_matrix_is_column_stochastic() {
        let g = planted(2, 4, 5, 4);
        let a = prepare_matrix(&g, &MclConfig::testing(8));
        for j in 0..a.ncols() {
            let s: f64 = a.col_vals(j).iter().sum();
            assert!((s - 1.0).abs() < 1e-12, "col {j} sums to {s}");
        }
        // Self-loops present.
        for j in 0..a.ncols() {
            assert!(a.get(j, j).is_some(), "self-loop at {j}");
        }
    }

    #[test]
    fn labels_partition_vertices() {
        let g = planted(3, 5, 15, 5);
        let r = cluster_serial(&g, &MclConfig::testing(10));
        let total: usize = r.clusters.iter().map(Vec::len).sum();
        assert_eq!(total, 15);
        assert_eq!(r.labels.len(), 15);
    }

    #[test]
    fn iteration_cap_respected() {
        let g = planted(2, 10, 40, 6);
        let mut cfg = MclConfig::testing(20);
        cfg.max_iters = 1;
        let r = cluster_serial(&g, &cfg);
        assert_eq!(r.iterations, 1);
        assert!(!r.converged);
    }

    #[test]
    #[should_panic(expected = "invalid MclConfig: prune select = 0")]
    fn zero_select_is_rejected_on_entry() {
        let mut cfg = MclConfig::testing(8);
        cfg.prune.select = 0;
        cluster_serial(&planted(2, 4, 0, 8), &cfg);
    }

    #[test]
    #[should_panic(expected = "invalid MclConfig: prune cutoff = NaN")]
    fn nan_cutoff_is_rejected_on_entry() {
        let mut cfg = MclConfig::testing(8);
        cfg.prune.cutoff = f64::NAN;
        cluster_serial(&planted(2, 4, 0, 8), &cfg);
    }

    #[test]
    #[should_panic(expected = "invalid MclConfig: prune recover_pct = 1.5")]
    fn recover_pct_above_one_is_rejected_on_entry() {
        let mut cfg = MclConfig::testing(8);
        cfg.prune.recover_pct = 1.5;
        cluster_serial(&planted(2, 4, 0, 8), &cfg);
    }

    #[test]
    fn higher_inflation_gives_no_fewer_clusters() {
        let g = planted(4, 6, 60, 7);
        let mut lo = MclConfig::testing(12);
        lo.inflation = 1.4;
        let mut hi = MclConfig::testing(12);
        hi.inflation = 4.0;
        let r_lo = cluster_serial(&g, &lo);
        let r_hi = cluster_serial(&g, &hi);
        assert!(
            r_hi.num_clusters >= r_lo.num_clusters,
            "inflation {} -> {} clusters vs inflation {} -> {}",
            lo.inflation,
            r_lo.num_clusters,
            hi.inflation,
            r_hi.num_clusters
        );
    }
}
