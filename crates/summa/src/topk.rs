//! Distributed column pruning: cutoff + top-k selection across the process
//! grid, in one pass over the slab, one exchange and one apply pass.
//!
//! After expansion, MCL prunes each column of the distributed product.
//! The cutoff is embarrassingly local, but *selection* (keep only the
//! `select` largest entries of each column) needs coordination because a
//! column's entries are spread over the `√P` blocks of one process
//! column. HipMCL "identifies top-k entries in every column by selecting
//! top-k entries in each process and then exchanging these entries with
//! other processes" (§II) — here a single allgather on the column
//! subcommunicator of three flat vectors per rank: every local column's
//! maximum (for the never-empty guarantee), its count of cutoff
//! survivors, and the local top-`select` survivors of all columns back to
//! back, unordered. Column `j`'s run is `min(survivors[j], select)` long,
//! so no offsets travel.
//!
//! Every rank derives the same per-column threshold — the `select`-th
//! largest of the concatenated runs, by selection rather than sorting —
//! and turns it into a `Keep` rule for its own block. Values above the
//! threshold always stay; entries equal to it are granted in grid-row
//! order and ascending row within a rank (ascending global row, like the
//! serial scan) until the column holds exactly `select`.
//!
//! MCL's *recovery* step (`-R`) adds two rounds: a fused allreduce of the
//! kept count, kept mass and total mass per column, and an allgather of
//! the largest pruned values of the columns that kept too little of both.
//! Every rank walks the identical merged order (value descending, then
//! grid row), so what returns is again a per-column `Keep` rule.

use crate::distmat::DistMatrix;
use hipmcl_comm::collectives::{allgather, allreduce_sum_vec};
use hipmcl_comm::{Comm, ProcGrid};
use hipmcl_sparse::colops::{PruneParams, PruneStats};
use hipmcl_sparse::Csc;

/// Applies cutoff + top-`select` pruning to a 2D-distributed matrix.
/// Collective over the grid. Returns the pruned matrix and per-rank stats.
pub fn distributed_prune(
    grid: &ProcGrid,
    c: &DistMatrix,
    params: &PruneParams,
) -> (DistMatrix, PruneStats) {
    let (pruned, stats) = prune_local_slab(&grid.col_comm, &c.local, params);
    (
        DistMatrix {
            local: pruned,
            nrows_global: c.nrows_global,
            ncols_global: c.ncols_global,
        },
        stats,
    )
}

/// Which entries of one local column stay: every value above `thr`, and —
/// of the entries equal to `thr`, in ascending row order — the `ties`
/// that follow the first `skip`.
#[derive(Clone, Copy)]
struct Keep {
    thr: f64,
    skip: usize,
    ties: usize,
}

impl Keep {
    const NOTHING: Keep = Keep::new(f64::INFINITY, 0, 0);

    const fn new(thr: f64, skip: usize, ties: usize) -> Keep {
        Keep { thr, skip, ties }
    }

    /// Decides the column's next entry; call in ascending row order.
    #[inline]
    fn admits(&mut self, v: f64) -> bool {
        if v != self.thr {
            v > self.thr
        } else if self.skip > 0 {
            self.skip -= 1;
            false
        } else if self.ties > 0 {
            self.ties -= 1;
            true
        } else {
            false
        }
    }
}

/// The `k`-th largest value of `buf` (`1 ≤ k ≤ buf.len()`), by selection:
/// afterwards `buf[..k]` holds the `k` largest, in no particular order.
fn kth_largest(buf: &mut [f64], k: usize) -> f64 {
    *buf.select_nth_unstable_by(k - 1, |a, b| b.total_cmp(a)).1
}

/// Appends the `keep` largest of `vals` to `flat`, unordered, and returns
/// how many `vals` held.
fn push_largest(flat: &mut Vec<f64>, vals: impl Iterator<Item = f64>, keep: usize) -> usize {
    let start = flat.len();
    flat.extend(vals);
    let n = flat.len() - start;
    if n > keep {
        kth_largest(&mut flat[start..], keep);
        flat.truncate(start + keep);
    }
    n
}

/// Slab-level distributed prune: operates on a column slab whose columns
/// are aligned across the ranks of `col_comm` (each rank holds a block of
/// the same global columns). This is what the MCL driver calls from the
/// per-phase SUMMA hook so expansion and pruning stay fused (§II).
pub fn prune_local_slab(
    col_comm: &Comm,
    m: &Csc<f64>,
    params: &PruneParams,
) -> (Csc<f64>, PruneStats) {
    let (cutoff, select) = (params.cutoff, params.select);
    assert!(select >= 1, "prune.select must be at least 1");
    let ncols = m.ncols();
    let me = col_comm.rank();

    // Streaming pass: maximum, cutoff survivors and the local top-`select`
    // of every column.
    let mut maxes = Vec::with_capacity(ncols);
    let mut survivors: Vec<u32> = Vec::with_capacity(ncols);
    let mut cands: Vec<f64> = Vec::new();
    for j in 0..ncols {
        let mut max = f64::NEG_INFINITY;
        let passing = m.col_vals(j).iter().copied().filter(|&v| {
            max = max.max(v);
            v >= cutoff
        });
        survivors.push(push_largest(&mut cands, passing, select) as u32);
        maxes.push(max);
    }
    let all: Vec<(Vec<f64>, Vec<u32>, Vec<f64>)> = allgather(col_comm, (maxes, survivors, cands));

    // Per-column rule from the exchanged vectors alone — identical
    // thresholds on every rank of the process column.
    let mut stats = PruneStats::default();
    let mut rules = vec![Keep::NOTHING; ncols];
    let mut kept = 0usize;
    let mut at = vec![0usize; all.len()];
    let mut merged: Vec<f64> = Vec::new();
    for (j, rule) in rules.iter_mut().enumerate() {
        let len = |r: usize| (all[r].1[j] as usize).min(select);
        let run = |r: usize| &all[r].2[at[r]..at[r] + len(r)];
        let mine = all[me].1[j] as usize;
        let global: usize = all.iter().map(|a| a.1[j] as usize).sum();
        stats.pruned_by_cutoff += m.col_nnz(j) - mine;
        if global == 0 {
            // The whole global column fell below the cutoff: the lowest
            // grid row holding the maximum keeps its last copy of it.
            let gmax = all.iter().map(|a| a.0[j]).fold(f64::NEG_INFINITY, f64::max);
            if m.col_nnz(j) > 0 && all.iter().position(|a| a.0[j] == gmax) == Some(me) {
                let copies = m.col_vals(j).iter().filter(|&&v| v == gmax).count();
                *rule = Keep::new(gmax, copies - 1, 1);
                stats.pruned_by_cutoff -= 1;
                kept += 1;
            }
        } else if global <= select {
            *rule = Keep::new(cutoff, 0, mine);
            kept += mine;
        } else {
            merged.clear();
            (0..all.len()).for_each(|r| merged.extend_from_slice(run(r)));
            let thr = kth_largest(&mut merged, select);
            let above = |vals: &[f64]| vals.iter().filter(|&&v| v > thr).count();
            let equal = |vals: &[f64]| vals.iter().filter(|&&v| v == thr).count();
            // What the values above the threshold leave of `select` goes
            // to the ties, rank by rank.
            let quota = select - above(&merged[..select - 1]);
            let quota = (0..me).fold(quota, |q, r| q - equal(run(r)).min(q));
            let ties = equal(run(me)).min(quota);
            // No local value above the threshold lies outside the local
            // top-`select`, so the run counts them all.
            let keeping = above(run(me)) + ties;
            *rule = Keep::new(thr, 0, ties);
            stats.pruned_by_select += mine - keeping;
            kept += keeping;
        }
        (0..all.len()).for_each(|r| at[r] += len(r));
    }

    let restore = if params.recover_num > 0 || params.recover_pct > 0.0 {
        recover(col_comm, m, params, &rules, &mut stats)
    } else {
        vec![Keep::NOTHING; ncols]
    };

    // Apply pass: kept entries leave in ascending row order, so the CSC
    // arrays are written directly.
    let mut colptr = Vec::with_capacity(ncols + 1);
    let mut rowidx = Vec::with_capacity(kept + stats.recovered);
    let mut vals = Vec::with_capacity(kept + stats.recovered);
    colptr.push(0);
    for j in 0..ncols {
        let (mut keep, mut back) = (rules[j], restore[j]);
        for (&i, &v) in m.col_rows(j).iter().zip(m.col_vals(j)) {
            if keep.admits(v) || back.admits(v) {
                rowidx.push(i);
                vals.push(v);
            }
        }
        colptr.push(rowidx.len());
    }
    let pruned = Csc::from_parts(m.nrows(), ncols, colptr, rowidx, vals);
    (pruned, stats)
}

/// Recovery (MCL `-R`): for columns that kept too few entries *and* too
/// little mass under `rules`, the rule that brings back this rank's share
/// of the largest pruned entries until either bound is met. Two
/// collectives on `col_comm`.
fn recover(
    col_comm: &Comm,
    m: &Csc<f64>,
    params: &PruneParams,
    rules: &[Keep],
    stats: &mut PruneStats,
) -> Vec<Keep> {
    let ncols = m.ncols();
    let me = col_comm.rank();
    let recover_num = params.recover_num;

    // `[kept count | kept mass | total mass]` per column, reduced down the
    // process column.
    let mut tally = vec![0.0f64; 3 * ncols];
    for (j, &rule) in rules.iter().enumerate() {
        let (mut keep, mut n) = (rule, 0usize);
        let kept = m.col_vals(j).iter().filter(|&&v| keep.admits(v));
        tally[ncols + j] = kept.inspect(|_| n += 1).sum();
        tally[j] = n as f64;
        tally[2 * ncols + j] = m.col_vals(j).iter().sum();
    }
    let tally = allreduce_sum_vec(col_comm, tally);
    let (count, rest) = tally.split_at(ncols);
    let (mass, total) = rest.split_at(ncols);
    let needy: Vec<usize> = (0..ncols)
        .filter(|&j| (count[j] as usize) < recover_num && mass[j] < params.recover_pct * total[j])
        .collect();

    // Largest pruned values of the needy columns: run lengths, then the
    // runs back to back.
    let mut lens: Vec<u32> = Vec::with_capacity(needy.len());
    let mut pruned: Vec<f64> = Vec::new();
    for &j in &needy {
        let mut keep = rules[j];
        let dropped = m.col_vals(j).iter().copied().filter(|&v| !keep.admits(v));
        lens.push(push_largest(&mut pruned, dropped, recover_num).min(recover_num) as u32);
    }
    let all: Vec<(Vec<u32>, Vec<f64>)> = allgather(col_comm, (lens, pruned));

    let mut restore = vec![Keep::NOTHING; ncols];
    let mut at = vec![0usize; all.len()];
    let mut merged: Vec<(f64, usize)> = Vec::new();
    for (q, &j) in needy.iter().enumerate() {
        let run = |r: usize| &all[r].1[at[r]..at[r] + all[r].0[q] as usize];
        merged.clear();
        (0..all.len()).for_each(|r| merged.extend(run(r).iter().map(|&v| (v, r))));
        // Value descending, then grid row: identical on every rank.
        merged.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        let (mut count, mut mass, mut take) = (count[j] as usize, mass[j], 0usize);
        for &(v, r) in &merged {
            if count >= recover_num || mass >= params.recover_pct * total[j] {
                break;
            }
            count += 1;
            mass += v;
            take += (r == me) as usize;
        }
        if take > 0 {
            // My `take` largest pruned entries return, ties in row order.
            let mut mine = run(me).to_vec();
            let thr = kth_largest(&mut mine, take);
            let above = mine[..take - 1].iter().filter(|&&v| v > thr).count();
            restore[j] = Keep::new(thr, 0, take - above);
            stats.recovered += take;
        }
        (0..all.len()).for_each(|r| at[r] += all[r].0[q] as usize);
    }
    restore
}

// The differential tests against `colops::prune` (entry for entry, every
// grid, recovery included) are `tests/topk_identity.rs` at the workspace
// root, where tier-1 runs them.
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
                rng.gen_range(0.01..1.0),
            );
        }
        t.sum_duplicates();
        t
    }

    #[test]
    fn selection_bounds_column_counts() {
        let results = Universe::run(4, MachineModel::summit(), |comm| {
            let grid = ProcGrid::new(comm);
            let g = random_global(16, 200, 4);
            let c = DistMatrix::from_global(&grid, &g);
            let params = PruneParams {
                cutoff: 0.0,
                select: 2,
                recover_num: 0,
                recover_pct: 0.0,
            };
            let (pruned, _) = distributed_prune(&grid, &c, &params);
            pruned.gather_to_root(&grid)
        });
        let got = results.into_iter().next().unwrap().unwrap();
        for j in 0..got.ncols() {
            assert!(got.col_nnz(j) <= 2, "col {j} kept {}", got.col_nnz(j));
        }
    }

    #[test]
    fn recovery_restores_mass_distributedly() {
        let results = Universe::run(4, MachineModel::summit(), |comm| {
            let grid = ProcGrid::new(comm);
            let g = random_global(16, 220, 7);
            let c = DistMatrix::from_global(&grid, &g);
            let no_rec = PruneParams {
                cutoff: 0.6,
                select: 50,
                recover_num: 0,
                recover_pct: 0.0,
            };
            let with_rec = PruneParams {
                cutoff: 0.6,
                select: 50,
                recover_num: 5,
                recover_pct: 0.9,
            };
            let (lean, _) = distributed_prune(&grid, &c, &no_rec);
            let (fat, stats) = distributed_prune(&grid, &c, &with_rec);
            (
                lean.nnz_global(&grid),
                fat.nnz_global(&grid),
                stats.recovered,
            )
        });
        let (lean, fat, _) = results[0];
        assert!(
            fat > lean,
            "recovery must restore entries ({fat} vs {lean})"
        );
        let total_recovered: usize = results.iter().map(|r| r.2).sum();
        assert_eq!(total_recovered as u64, fat - lean);
    }

    #[test]
    fn stats_are_reported() {
        let results = Universe::run(4, MachineModel::summit(), |comm| {
            let grid = ProcGrid::new(comm);
            let g = random_global(16, 200, 5);
            let c = DistMatrix::from_global(&grid, &g);
            let params = PruneParams {
                cutoff: 0.5,
                select: 2,
                recover_num: 0,
                recover_pct: 0.0,
            };
            let (_, stats) = distributed_prune(&grid, &c, &params);
            stats.pruned_by_cutoff + stats.pruned_by_select
        });
        let total: usize = results.iter().sum();
        assert!(total > 0, "something must have been pruned");
    }
}
