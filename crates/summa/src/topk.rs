//! Distributed column pruning: the exchange around `sparse::colops`'s
//! prune rule, in one pass over the slab, one exchange and one apply pass.
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
//! What a rank holds of a column is one `colops::Share`, and every rank
//! hands the same shares, in grid-row order, to `colops::select_rule` —
//! the rule the serial prune applies to its single share — which returns
//! the rule for the rank's own block. MCL's *recovery* step (`-R`) adds two
//! rounds: a fused allreduce of the kept count, kept mass and total mass
//! per column, and an allgather of the largest pruned values of the
//! columns that kept too little of both, which `colops::recover_rule`
//! turns into a second rule.

use hipmcl_comm::collectives::{allgather, allreduce_sum_vec};
use hipmcl_comm::Comm;
use hipmcl_sparse::colops::{
    push_largest, recover_rule, select_rule, write_admitted, Keep, PruneParams, PruneStats, Share,
};
use hipmcl_sparse::{Csc, CscBuilder};

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

    // Per-column rule from the exchanged vectors alone: column `j`'s
    // shares, one per grid row, walked with one cursor per rank.
    let mut stats = PruneStats::default();
    let mut at = vec![0usize; all.len()];
    let (mut shares, mut merged) = (Vec::with_capacity(all.len()), Vec::new());
    let (rules, mut counts): (Vec<Keep>, Vec<usize>) = (0..ncols)
        .map(|j| {
            shares.clear();
            for ((maxes, passing, cands), at) in all.iter().zip(&mut at) {
                let (max, passing) = (maxes[j], passing[j] as usize);
                let run = &cands[*at..*at + passing.min(select)];
                *at += run.len();
                shares.push(Share { max, passing, run });
            }
            select_rule(&shares, me, m.col_vals(j), params, &mut stats, &mut merged)
        })
        .unzip();

    let restore = recover(col_comm, m, params, &rules, &mut counts, &mut stats);

    // Apply pass: every column's count is known, so its kept entries are
    // written where they land.
    let kept = counts.iter().sum();
    let pruned = CscBuilder::build(m.nrows(), ncols, kept, (), |_, j, out| {
        let (rows, vals, rules) = (m.col_rows(j), m.col_vals(j), [rules[j], restore[j]]);
        out.push_column_with(counts[j], |r, v| write_admitted(rows, vals, rules, r, v));
    });
    (pruned, stats)
}

/// Recovery (MCL `-R`): for columns that kept too few entries *and* too
/// little mass under `rules`, the rule that brings back this rank's share
/// of the largest pruned entries until either bound is met, counted into
/// `counts`. Two collectives on `col_comm`, none if recovery is off.
fn recover(
    col_comm: &Comm,
    m: &Csc<f64>,
    params: &PruneParams,
    rules: &[Keep],
    counts: &mut [usize],
    stats: &mut PruneStats,
) -> Vec<Keep> {
    let ncols = m.ncols();
    if params.recover_num == 0 && params.recover_pct <= 0.0 {
        return vec![Keep::NOTHING; ncols];
    }
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
        .filter(|&j| params.recovers(count[j] as usize, mass[j], total[j]))
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
    let (mut runs, mut merged) = (Vec::with_capacity(all.len()), Vec::new());
    for (q, &j) in needy.iter().enumerate() {
        runs.clear();
        runs.extend(all.iter().zip(&mut at).map(|((lens, pruned), at)| {
            *at += lens[q] as usize;
            &pruned[*at - lens[q] as usize..*at]
        }));
        let tally = (count[j] as usize, mass[j], total[j]);
        let (back, restored) = recover_rule(&runs, me, tally, params, stats, &mut merged);
        (restore[j], counts[j]) = (back, counts[j] + restored);
    }
    restore
}

// The differential tests against `colops::prune` (entry for entry, every
// grid, recovery included) are `tests/topk_identity.rs` at the workspace
// root, where tier-1 runs them.
