//! Distributed memory-requirement estimation (§V).
//!
//! Before each MCL iteration HipMCL must know how large the *unpruned*
//! expanded matrix will be, to pick the number of SUMMA phases `h` that
//! keeps every process inside its memory budget. Two estimators:
//!
//! * **Exact symbolic SUMMA** (original HipMCL): replays the whole SUMMA
//!   stage structure, broadcasting block structures, and counts the
//!   output without building it. Cost is `O(flops)` — nearly as expensive
//!   as the numeric multiplication, which is why Fig. 1 shows memory
//!   estimation consuming ~½ of the original runtime.
//! * **Probabilistic** (the paper's contribution): the distributed form of
//!   Cohen's min-key sketch. Keys are drawn *deterministically from global
//!   row ids*, so the first layer needs no communication; propagation
//!   through each operand is local per block followed by a min-allreduce
//!   along the process column; the two propagations are stitched together
//!   by a single transpose-pair exchange. Cost is
//!   `O(r·(nnz A + nnz B)/P)` per rank plus two thin collectives —
//!   independent of `flops`, hence the Fig. 6 runtime win at high `cf`.
//!
//! The hybrid rule (§VII-D, last paragraph): when the estimated `cf` is
//! below a threshold the exact scheme is actually cheaper, so use it.

use crate::distmat::{DistMatrix, Operand, Panel};
use hipmcl_comm::collectives::{allreduce, allreduce_min_vec_f32};
use hipmcl_comm::{
    Comm, ProcGrid, SpgemmKernel, WireDecode, WireEncode, WireError, WireReader, WireSize,
};
use hipmcl_sparse::{Csc, Idx, Pattern, Value};
use hipmcl_spgemm::symbolic::sum_counts;
use hipmcl_spgemm::CohenEstimator;
use std::sync::Arc;

/// Which estimator to run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EstimatorKind {
    /// Exact symbolic SUMMA (original HipMCL).
    ExactSymbolic,
    /// Cohen sketch with `r` keys per vertex.
    Probabilistic {
        /// Keys per vertex (paper sweeps r ∈ {3, 5, 7, 10}).
        r: usize,
    },
    /// Probabilistic first; fall back to exact when estimated `cf` is
    /// below `cf_threshold`.
    Hybrid {
        /// Keys per vertex for the probabilistic pass.
        r: usize,
        /// `cf` below which the exact scheme is cheaper and is rerun.
        cf_threshold: f64,
    },
}

/// Result of a memory estimation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MemoryEstimate {
    /// Estimated global `nnz(A·B)` before pruning.
    pub nnz_estimate: f64,
    /// Estimated bytes of the unpruned output, CSC, summed over ranks.
    pub bytes_estimate: u64,
    /// `flops(A·B)` (exact — cheap to compute).
    pub flops: u64,
    /// Virtual seconds this rank spent estimating.
    pub time: f64,
    /// Name of the scheme that produced the estimate.
    pub scheme: &'static str,
}

/// Every scheme name a [`MemoryEstimate`] can carry — the decode side
/// interns against this list so `scheme` stays `&'static str` across a
/// process boundary.
const SCHEME_NAMES: [&str; 2] = ["exact-symbolic", "probabilistic"];

impl WireEncode for MemoryEstimate {
    fn encode(&self, out: &mut Vec<u8>) {
        self.nnz_estimate.encode(out);
        self.bytes_estimate.encode(out);
        self.flops.encode(out);
        self.time.encode(out);
        self.scheme.encode(out);
    }
}

impl WireDecode for MemoryEstimate {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let nnz_estimate = f64::decode(r)?;
        let bytes_estimate = u64::decode(r)?;
        let flops = u64::decode(r)?;
        let time = f64::decode(r)?;
        let name = String::decode(r)?;
        let scheme = SCHEME_NAMES
            .iter()
            .copied()
            .find(|s| *s == name)
            .ok_or(WireError {
                what: "unknown MemoryEstimate scheme name",
                pos: r.pos(),
            })?;
        Ok(MemoryEstimate {
            nnz_estimate,
            bytes_estimate,
            flops,
            time,
            scheme,
        })
    }
}

/// Exact `flops(A·B)` for 2D-distributed operands, with the replicated
/// global per-column nnz vector of `A` it is computed from (indexed by
/// global column id): each rank needs the global column counts of `A`,
/// obtained with one allreduce, then counts locally against its `B` block.
/// Purely structural, so it holds in any semiring. The counts double as
/// the raw material for the sketch clamp's per-column output bounds, so
/// the probabilistic estimator reuses them instead of paying the allreduce
/// twice.
pub fn distributed_flops_with_counts<T: Value>(
    grid: &ProcGrid,
    a: &DistMatrix<T>,
    b: &DistMatrix<T>,
) -> (u64, Vec<f64>) {
    // Global nnz per column of A: local counts summed down process columns
    // then shared along rows. We allreduce the full-length vector for
    // simplicity (cost charged through the collective's real bytes).
    let mut counts = vec![0.0f64; a.ncols_global];
    let col_range = a.col_range(grid);
    for (local_j, global_j) in col_range.enumerate() {
        counts[global_j] = a.local.col_nnz(local_j) as f64;
    }
    let counts = hipmcl_comm::collectives::allreduce_sum_vec(&grid.world, counts);

    // Each B-block column selects A columns by *global* row id.
    let row_range = b.row_range(grid);
    let mut local_flops = 0u64;
    for j in 0..b.local.ncols() {
        for &k in b.local.col_rows(j) {
            local_flops += counts[row_range.start + k as usize] as u64;
        }
    }
    let flops = allreduce(&grid.world, local_flops, |x, y| x + y);
    (flops, counts)
}

/// Runs the requested estimator. Collective over the grid. Returns an
/// identical estimate on every rank. The estimators are structural — the
/// sketch never touches values, and the exact scheme counts structure
/// only — so the same schemes price min-plus or boolean SUMMA phases too.
pub fn estimate_memory<O: Operand>(
    grid: &ProcGrid,
    a: &O,
    b: &O,
    kind: EstimatorKind,
    seed: u64,
) -> MemoryEstimate {
    match kind {
        EstimatorKind::ExactSymbolic => exact_symbolic(grid, a, b),
        EstimatorKind::Probabilistic { r } => probabilistic(grid, a.matrix(), b.matrix(), r, seed),
        EstimatorKind::Hybrid { r, cf_threshold } => {
            let prob = probabilistic(grid, a.matrix(), b.matrix(), r, seed);
            let cf = if prob.nnz_estimate > 0.0 {
                prob.flops as f64 / prob.nnz_estimate
            } else {
                1.0
            };
            if cf < cf_threshold {
                let mut exact = exact_symbolic(grid, a, b);
                exact.time += prob.time; // the probabilistic probe was paid too
                exact
            } else {
                prob
            }
        }
    }
}

/// Pattern-only broadcast payload, what a symbolic SUMMA moves: the
/// root's block, shared as it is (in-process ranks receive it so), or a
/// block's structure off the wire, which allocates no value array.
#[derive(Clone)]
enum PatternBlock<T: Value> {
    Shared(Panel<T>),
    Received(Arc<Csc<()>>),
}

impl<T: Value> PatternBlock<T> {
    fn pattern(&self) -> Pattern<'_> {
        match self {
            PatternBlock::Shared(m) => m.pattern(),
            PatternBlock::Received(m) => m.pattern(),
        }
    }
}

impl<T: Value> WireSize for PatternBlock<T> {
    fn wire_bytes(&self) -> usize {
        let p = self.pattern();
        std::mem::size_of_val(p.rowidx) + std::mem::size_of_val(p.colptr)
    }
}

/// On a byte transport the structure travels alone: dimensions, column
/// pointers and row indices.
impl<T: Value> WireEncode for PatternBlock<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        let p = self.pattern();
        p.nrows.encode(out);
        p.ncols().encode(out);
        p.colptr.encode(out);
        p.rowidx.encode(out);
    }
}

impl<T: Value> WireDecode for PatternBlock<T> {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let (nrows, ncols) = (usize::decode(r)?, usize::decode(r)?);
        let colptr: Vec<usize> = Vec::decode(r)?;
        let rowidx: Vec<Idx> = Vec::decode(r)?;
        let vals = vec![(); rowidx.len()];
        let m = Csc::try_from_parts(nrows, ncols, colptr, rowidx, vals);
        m.map(|m| PatternBlock::Received(Arc::new(m)))
            .map_err(|what| WireError { what, pos: r.pos() })
    }
}

/// Exact symbolic SUMMA: replays the stage loop, broadcasting block
/// structures, then counts every stage product and their union, the exact
/// local output nnz, in one traversal of the panels
/// ([`sum_counts`]) — no stage product is built.
fn exact_symbolic<O: Operand>(grid: &ProcGrid, a: &O, b: &O) -> MemoryEstimate {
    let (t0, model) = (grid.world.now(), grid.world.model());
    let side = grid.side;
    let mut panels = Vec::with_capacity(side);
    let mut flops_total = 0u64;

    for k in 0..side {
        // Broadcast A_{i,k} along rows and B_{k,j} along columns.
        let a_blk = bcast_pattern(&grid.row_comm, k, (grid.col == k).then(|| a.panel()));
        let b_blk = bcast_pattern(&grid.col_comm, k, (grid.row == k).then(|| b.panel()));
        let (ap, bp) = (a_blk.pattern(), b_blk.pattern());
        let flops: u64 = (0..bp.ncols())
            .flat_map(|j| bp.col_rows(j))
            .map(|&l| ap.col_rows(l as usize).len() as u64)
            .sum();
        flops_total += flops;
        // The hash kernel's modeled rate is flat in `cf`, so the stage is
        // charged here, between the broadcasts, before anything is counted.
        grid.world
            .advance_clock(model.spgemm_time(SpgemmKernel::CpuHash, flops, 1.0));
        panels.push((a_blk, b_blk));
    }

    // Every stage product and their union: the local output structure.
    let terms = panels.iter().map(|(a, b)| (a.pattern(), b.pattern()));
    let counts = sum_counts(&terms.collect::<Vec<_>>());
    drop(panels);
    let merged_elems = counts.terms.iter().sum();
    grid.world
        .advance_clock(model.merge_time(merged_elems, side.max(2)));

    let global_nnz = allreduce(&grid.world, counts.union, |x, y| x + y);
    let flops = allreduce(&grid.world, flops_total, |x, y| x + y);
    MemoryEstimate {
        nnz_estimate: global_nnz as f64,
        bytes_estimate: hipmcl_spgemm::symbolic::csc_bytes(
            global_nnz,
            b.matrix().ncols_global as u64,
        ),
        flops,
        time: grid.world.now() - t0,
        scheme: "exact-symbolic",
    }
}

/// Broadcasts a block's pattern within `comm` from `root`, which supplies
/// its block as `local`.
fn bcast_pattern<T: Value>(comm: &Comm, root: usize, local: Option<Panel<T>>) -> PatternBlock<T> {
    hipmcl_comm::collectives::bcast(comm, root, local.map(PatternBlock::Shared))
}

/// Distributed Cohen estimation. Requires square operands distributed on
/// the same grid with `nrows_global == ncols_global` (the MCL case), so
/// that row and column ranges coincide for the transpose exchange.
///
/// Every per-column estimate is clamped into its provable bracket
/// `[max_k nnz(A_{*k}), Σ_k nnz(A_{*k})]` over `k ∈ B_{*j}` — the output
/// column is a union of those A-columns, so it has at least as many rows
/// as the largest and at most as many as their disjoint sum (= the
/// column's flops). A pathological key draw can otherwise report an
/// estimate above the exact flops or below the largest contributing
/// column, and with `r = 1` the raw formula degenerates to 0 everywhere;
/// the clamp keeps both inside the bracket (at `r = 1` the estimator *is*
/// the per-column lower bound). The bounds are global quantities, so
/// clamping preserves grid-invariance.
fn probabilistic<T: Value>(
    grid: &ProcGrid,
    a: &DistMatrix<T>,
    b: &DistMatrix<T>,
    r: usize,
    seed: u64,
) -> MemoryEstimate {
    assert!(r >= 1, "need at least one key");
    assert_eq!(
        a.nrows_global, a.ncols_global,
        "distributed Cohen estimation assumes square operands (MCL matrices)"
    );
    let t0 = grid.world.now();
    let (flops, a_col_nnz) = distributed_flops_with_counts(grid, a, b);

    // Layer 1: keys for this block's global rows, drawn deterministically
    // from (seed, global row id) — identical across ranks, zero comm.
    // Built literally: `r = 1` is legal here (the clamp below turns it
    // into the per-column lower bound) but not for `CohenEstimator::new`.
    let sketch = CohenEstimator { r, seed };
    let row_keys = sketch.draw_keys_for(a.row_range(grid));

    // Propagate through A: per local column, min over present rows;
    // combine the partial mins down the process column.
    let mid_keys = allreduce_min_vec_f32(&grid.col_comm, sketch.propagate(&a.local, &row_keys));

    // Transpose exchange: this rank holds mid keys for its *column* range
    // but needs them for its *row* range (B's rows). The grid transpose
    // partner holds exactly those.
    let my_rows_mid: Vec<f32> = if grid.row == grid.col {
        mid_keys.clone()
    } else {
        const TAG: u64 = 0xC0E7;
        let partner = grid.rank_of(grid.col, grid.row);
        grid.world.send(partner, TAG, mid_keys.clone());
        grid.world.recv::<Vec<f32>>(partner, TAG)
    };

    // Propagate through B.
    let out_range = b.col_range(grid);
    let out_keys = allreduce_min_vec_f32(&grid.col_comm, sketch.propagate(&b.local, &my_rows_mid));

    // Charge the sketch's compute: r·(nnz A + nnz B) local key ops on the
    // host cores.
    let ops = sketch.op_count(&a.local, &b.local);
    grid.world
        .advance_clock(grid.world.model().estimate_time(ops));

    // Provable per-column bracket for `nnz(C_{*j})`: the column is the
    // union of the A-columns selected by `B_{*j}`, so it holds at least
    // `max_k nnz(A_{*k})` rows and at most `Σ_k nnz(A_{*k})` (= the
    // column's exact flops). Partials over this rank's B rows combine
    // along the process column exactly like the key propagation; the
    // resulting bounds are global, so the clamp below cannot break
    // grid-invariance. `a_col_nnz` holds integer counts, so the sums are
    // exact and `lo ≤ hi` holds without float slack.
    let b_rows = b.row_range(grid);
    let mut lo_partial = vec![0.0f64; out_range.len()];
    let mut hi_partial = vec![0.0f64; out_range.len()];
    for j in 0..b.local.ncols() {
        for &k in b.local.col_rows(j) {
            let c = a_col_nnz[b_rows.start + k as usize];
            lo_partial[j] = lo_partial[j].max(c);
            hi_partial[j] += c;
        }
    }
    let hi = hipmcl_comm::collectives::allreduce_sum_vec(&grid.col_comm, hi_partial);
    let lo = allreduce(&grid.col_comm, lo_partial, |mut x, y| {
        for (l, other) in x.iter_mut().zip(&y) {
            *l = l.max(*other);
        }
        x
    });

    // Per-column estimates for this rank's slab, clamped into the bracket;
    // identical across the process column, so divide the global sum by
    // `side`.
    let raw = sketch.estimates_from_keys(&out_keys, out_range.len());
    let slab_total: f64 = (0..raw.len()).map(|j| raw[j].clamp(lo[j], hi[j])).sum();
    let total = allreduce(&grid.world, slab_total, |x, y| x + y) / grid.side as f64;

    MemoryEstimate {
        nnz_estimate: total,
        bytes_estimate: hipmcl_spgemm::symbolic::csc_bytes(
            total.max(0.0) as u64,
            b.ncols_global as u64,
        ),
        flops,
        time: grid.world.now() - t0,
        scheme: "probabilistic",
    }
}

/// Phase planning: the number of SUMMA phases `h` needed so the unpruned
/// output slab fits each rank's memory budget (§V).
pub fn plan_phases(estimate: &MemoryEstimate, ranks: usize, per_rank_budget_bytes: u64) -> usize {
    let per_rank = estimate.bytes_estimate / ranks as u64;
    (per_rank.div_ceil(per_rank_budget_bytes.max(1)) as usize).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipmcl_comm::{MachineModel, Universe};
    use hipmcl_sparse::{Idx, Triples};
    use rand::{Rng, SeedableRng};

    fn random_global(n: usize, nnz: usize, seed: u64) -> Triples<f64> {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let mut t = Triples::new(n, n);
        for _ in 0..nnz {
            t.push(
                rng.gen_range(0..n) as Idx,
                rng.gen_range(0..n) as Idx,
                rng.gen_range(0.5..1.5),
            );
        }
        t.sum_duplicates();
        t
    }

    fn exact_reference(n: usize, nnz: usize, seed: u64) -> (u64, u64) {
        let g = Csc::from_triples(&random_global(n, nnz, seed));
        let flops = hipmcl_spgemm::flops(&g, &g);
        let out = hipmcl_spgemm::symbolic::output_nnz(&g, &g);
        (flops, out)
    }

    #[test]
    fn distributed_flops_matches_serial() {
        let (want_flops, _) = exact_reference(24, 160, 7);
        for p in [1usize, 4, 9] {
            let results = Universe::run(p, MachineModel::summit(), |comm| {
                let grid = ProcGrid::new(comm);
                let g = random_global(24, 160, 7);
                let a = DistMatrix::from_global(&grid, &g);
                distributed_flops_with_counts(&grid, &a, &a).0
            });
            assert!(
                results.iter().all(|&f| f == want_flops),
                "p={p}: {results:?}"
            );
        }
    }

    #[test]
    fn exact_symbolic_matches_serial_nnz() {
        let (want_flops, want_nnz) = exact_reference(20, 120, 8);
        for p in [1usize, 4, 9] {
            let results = Universe::run(p, MachineModel::summit(), |comm| {
                let grid = ProcGrid::new(comm);
                let g = random_global(20, 120, 8);
                let a = DistMatrix::from_global(&grid, &g);
                estimate_memory(&grid, &a, &a, EstimatorKind::ExactSymbolic, 0)
            });
            for e in &results {
                assert_eq!(e.nnz_estimate, want_nnz as f64, "p={p}");
                assert_eq!(e.flops, want_flops, "p={p}");
                assert!(e.time > 0.0);
                assert_eq!(e.scheme, "exact-symbolic");
            }
        }
    }

    #[test]
    fn probabilistic_estimate_is_close_and_grid_invariant() {
        let (_, want_nnz) = exact_reference(60, 900, 9);
        // Column estimates share one key draw, so a single seed carries a
        // correlated error of order 1/sqrt(r-2); average over seeds like
        // the paper's per-iteration averages (Fig. 6).
        let mut estimates = Vec::new();
        for p in [1usize, 4, 9] {
            let results = Universe::run(p, MachineModel::summit(), |comm| {
                let grid = ProcGrid::new(comm);
                let g = random_global(60, 900, 9);
                let a = DistMatrix::from_global(&grid, &g);
                let per_seed: Vec<f64> = (0..6)
                    .map(|s| {
                        estimate_memory(&grid, &a, &a, EstimatorKind::Probabilistic { r: 10 }, s)
                            .nnz_estimate
                    })
                    .collect();
                per_seed
            });
            // All ranks agree exactly.
            for e in &results[1..] {
                assert_eq!(e, &results[0]);
            }
            let mean = results[0].iter().sum::<f64>() / results[0].len() as f64;
            estimates.push(mean);
        }
        // Grid-size independent: the sketch sees the same global matrix.
        for e in &estimates[1..] {
            assert!(
                (e - estimates[0]).abs() / estimates[0] < 1e-6,
                "{estimates:?}"
            );
        }
        let err = (estimates[0] - want_nnz as f64).abs() / want_nnz as f64;
        assert!(
            err < 0.2,
            "estimate {} vs exact {} (err {err})",
            estimates[0],
            want_nnz
        );
    }

    /// Serial reference for the clamp bracket: `Σ_j max_k nnz(A_{*k})`
    /// over `k ∈ B_{*j}` (lower) and `flops(A·B)` (upper).
    fn serial_bracket(g: &Csc<f64>) -> (f64, f64) {
        let lo: f64 = (0..g.ncols())
            .map(|j| {
                g.col_rows(j)
                    .iter()
                    .map(|&k| g.col_nnz(k as usize) as f64)
                    .fold(0.0f64, f64::max)
            })
            .sum();
        (lo, hipmcl_spgemm::flops(g, g) as f64)
    }

    #[test]
    fn sketch_estimate_is_clamped_to_its_provable_bracket() {
        let g = Csc::from_triples(&random_global(40, 600, 13));
        let (lo_sum, hi_sum) = serial_bracket(&g);
        // r = 2 is the noisiest admissible sketch the old assert allowed;
        // sweep seeds so pathological draws (the ones the clamp exists
        // for) get a chance to occur.
        for r in [2usize, 3] {
            let results = Universe::run(4, MachineModel::summit(), |comm| {
                let grid = ProcGrid::new(comm);
                let a = DistMatrix::from_global(&grid, &random_global(40, 600, 13));
                (0..8)
                    .map(|s| {
                        estimate_memory(&grid, &a, &a, EstimatorKind::Probabilistic { r }, s)
                            .nnz_estimate
                    })
                    .collect::<Vec<f64>>()
            });
            for est in &results[0] {
                assert!(
                    (lo_sum..=hi_sum).contains(est),
                    "r={r}: estimate {est} outside bracket [{lo_sum}, {hi_sum}]"
                );
            }
        }
    }

    #[test]
    fn pathological_single_key_sketch_degenerates_to_the_lower_bound() {
        // With r = 1 the raw estimator `(r-1)/Σkeys` is 0 for every
        // column (the old code asserted this case away); the clamp turns
        // it into the per-column lower bound — still grid-invariant and
        // never above the exact output size.
        let g = Csc::from_triples(&random_global(30, 300, 14));
        let (lo_sum, _) = serial_bracket(&g);
        let exact = hipmcl_spgemm::symbolic::output_nnz(&g, &g) as f64;
        assert!(lo_sum > 0.0 && lo_sum <= exact);
        for p in [1usize, 4, 9] {
            let results = Universe::run(p, MachineModel::summit(), |comm| {
                let grid = ProcGrid::new(comm);
                let a = DistMatrix::from_global(&grid, &random_global(30, 300, 14));
                estimate_memory(&grid, &a, &a, EstimatorKind::Probabilistic { r: 1 }, 5)
            });
            for e in &results {
                assert_eq!(e.nnz_estimate, lo_sum, "p={p}");
            }
        }
    }

    #[test]
    fn hybrid_fallback_judges_cf_with_the_clamped_estimate() {
        // The threshold comparison must run against the *clamped* value.
        // An r = 1 sketch reports the per-column lower bound, so the
        // implied cf is exactly flops / lower-bound: a threshold just
        // below that keeps the probabilistic scheme, one just above
        // flips to exact — pinning the fallback decision to the bracket
        // (the raw estimate of 0 would have flipped both to exact via
        // the cf = 1 empty-estimate convention).
        let g = Csc::from_triples(&random_global(30, 300, 14));
        let (lo_sum, _) = serial_bracket(&g);
        let flops = hipmcl_spgemm::flops(&g, &g) as f64;
        let cf_clamped = flops / lo_sum;
        let results = Universe::run(4, MachineModel::summit(), |comm| {
            let grid = ProcGrid::new(comm);
            let a = DistMatrix::from_global(&grid, &random_global(30, 300, 14));
            let keep = estimate_memory(
                &grid,
                &a,
                &a,
                EstimatorKind::Hybrid {
                    r: 1,
                    cf_threshold: cf_clamped - 0.01,
                },
                5,
            );
            let flip = estimate_memory(
                &grid,
                &a,
                &a,
                EstimatorKind::Hybrid {
                    r: 1,
                    cf_threshold: cf_clamped + 0.01,
                },
                5,
            );
            (keep.scheme, flip.scheme)
        });
        for (keep, flip) in results {
            assert_eq!(keep, "probabilistic");
            assert_eq!(flip, "exact-symbolic");
        }
    }

    #[test]
    fn probabilistic_is_cheaper_than_exact_at_high_cf() {
        // Dense-ish square: cf large, sketch should win on virtual time.
        let results = Universe::run(4, MachineModel::summit(), |comm| {
            let grid = ProcGrid::new(comm);
            let g = random_global(300, 30_000, 10);
            let a = DistMatrix::from_global(&grid, &g);
            let exact = estimate_memory(&grid, &a, &a, EstimatorKind::ExactSymbolic, 0);
            let prob = estimate_memory(&grid, &a, &a, EstimatorKind::Probabilistic { r: 5 }, 1);
            (exact.time, prob.time)
        });
        for (te, tp) in results {
            assert!(tp < te, "probabilistic {tp} should beat exact {te}");
        }
    }

    #[test]
    fn hybrid_switches_on_cf() {
        let results = Universe::run(4, MachineModel::summit(), |comm| {
            let grid = ProcGrid::new(comm);
            // Hypersparse: cf ~ 1 -> hybrid should pick exact.
            let sparse = random_global(60, 60, 11);
            let a = DistMatrix::from_global(&grid, &sparse);
            let low = estimate_memory(
                &grid,
                &a,
                &a,
                EstimatorKind::Hybrid {
                    r: 5,
                    cf_threshold: 1.5,
                },
                2,
            );
            // Dense: cf >> threshold -> probabilistic.
            let dense = random_global(40, 1200, 12);
            let d = DistMatrix::from_global(&grid, &dense);
            let high = estimate_memory(
                &grid,
                &d,
                &d,
                EstimatorKind::Hybrid {
                    r: 5,
                    cf_threshold: 1.5,
                },
                2,
            );
            (low.scheme, high.scheme)
        });
        for (lo, hi) in results {
            assert_eq!(lo, "exact-symbolic");
            assert_eq!(hi, "probabilistic");
        }
    }

    #[test]
    fn the_exact_schemes_stage_charge_needs_no_output_count() {
        // Each stage is charged before its product is counted: the hash
        // kernel's modeled time must not read `cf`.
        let m = MachineModel::summit();
        let t = |cf| m.spgemm_time(SpgemmKernel::CpuHash, 12_345, cf);
        assert_eq!(t(1.0), t(130.0));
    }

    #[test]
    fn a_pattern_travels_as_structure_alone() {
        let g = Csc::from_triples(&random_global(20, 120, 8));
        let sent = PatternBlock::Shared(Panel::Block(Arc::new(g.clone())));
        let wire = sent.encoded();
        // Two dims and two length prefixes around the modeled bytes.
        assert_eq!(wire.len(), sent.wire_bytes() + 32);
        let Ok(PatternBlock::Received(got)) = PatternBlock::<f64>::decode_all(&wire) else {
            panic!("a pattern decodes to a received structure");
        };
        assert_eq!((&got.colptr, &got.rowidx), (&g.colptr, &g.rowidx));
        assert_eq!((got.nrows(), got.ncols()), (g.nrows(), g.ncols()));
        // A row past the last is a decode error, not a panic later.
        let mut bad = g.clone();
        bad.rowidx[0] = 20;
        let bad = PatternBlock::Shared(Panel::Block(Arc::new(bad))).encoded();
        assert!(PatternBlock::<f64>::decode_all(&bad).is_err());
    }

    #[test]
    fn plan_phases_divides_budget() {
        let est = MemoryEstimate {
            nnz_estimate: 0.0,
            bytes_estimate: 1000,
            flops: 0,
            time: 0.0,
            scheme: "exact-symbolic",
        };
        assert_eq!(plan_phases(&est, 4, 250), 1);
        assert_eq!(plan_phases(&est, 4, 100), 3);
        assert_eq!(plan_phases(&est, 1, 100), 10);
        assert_eq!(plan_phases(&est, 1, u64::MAX), 1);
    }

    #[test]
    fn every_scheme_round_trips_and_unknown_names_are_refused() {
        let estimates = Universe::run(1, MachineModel::summit(), |comm| {
            let grid = ProcGrid::new(comm);
            let a = DistMatrix::from_global(&grid, &random_global(20, 120, 8));
            [
                EstimatorKind::ExactSymbolic,
                EstimatorKind::Probabilistic { r: 5 },
            ]
            .map(|kind| estimate_memory(&grid, &a, &a, kind, 3))
        })
        .remove(0);
        assert_eq!(estimates.map(|e| e.scheme), SCHEME_NAMES);
        for e in estimates {
            assert_eq!(MemoryEstimate::decode_all(&e.encoded()), Ok(e));
        }
        // The retired GPU-offloaded estimator's name and the old test
        // fixture name no longer decode.
        for scheme in [concat!("probabilistic", "-gpu"), "x"] {
            let forged = MemoryEstimate {
                scheme,
                ..estimates[1]
            };
            let err = MemoryEstimate::decode_all(&forged.encoded()).unwrap_err();
            assert_eq!(err.what, "unknown MemoryEstimate scheme name");
        }
    }
}
