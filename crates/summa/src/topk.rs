//! Distributed column pruning: the exchange around `sparse::colops`'s
//! prune rule, over what a column sink packed of a rank's block of a slab.
//!
//! After expansion, MCL prunes each column of the distributed product.
//! The cutoff is embarrassingly local, but *selection* (keep only the
//! `select` largest entries of each column) needs coordination because a
//! column's entries are spread over the `√P` blocks of one process
//! column. HipMCL "identifies top-k entries in every column by selecting
//! top-k entries in each process and then exchanging these entries with
//! other processes" (§II). Every global top-`select` entry lies in its
//! rank's local top-`select`, so each rank's share of a column can be cut
//! to that the moment the column is merged: [`PruneSink`] packs every
//! column a phase's closing merge finishes into its *candidates* — the
//! entries at or above its local `select`-th largest survivor, ties and
//! all — and a [`Tally`] of the rest (merged length, cutoff survivors, and
//! with recovery the mass), so the unpruned slab never exists.
//!
//! [`prune_packed`] then walks the candidates once: a single allgather on
//! the column subcommunicator of three flat vectors per rank — every local
//! column's maximum (for the never-empty guarantee), its count of cutoff
//! survivors, and the local top-`select` survivors of all columns back to
//! back, unordered. Column `j`'s run is `min(survivors[j], select)` long,
//! so no offsets travel. What a rank holds of a column is one
//! `colops::Share`, and every rank hands the same shares, in grid-row
//! order, to `colops::select_rule` — the rule the serial prune applies to
//! its single share — which returns the rule for the rank's own block.
//! MCL's *recovery* step (`-R`) adds two rounds: a fused allreduce of the
//! kept count, kept mass and total mass per column, and an allgather of
//! the largest pruned values of the columns that kept too little of both,
//! which `colops::recover_rule` turns into a second rule; it needs the
//! `select + recover_num` largest entries, so that is how many its
//! candidates hold. [`prune_local_slab`] is the same path for a slab that
//! arrived whole: it packs it first.

use crate::merge::{sink_slab, ColumnSink, Packed};
use hipmcl_comm::collectives::{allgather, allreduce_sum_vec};
use hipmcl_comm::Comm;
use hipmcl_sparse::colops::{
    kth_largest, push_largest, recover_rule, select_rule, write_admitted, Keep, PruneParams,
    PruneStats, Share,
};
use hipmcl_sparse::{Csc, CscBuilder, Idx};

/// The distributed prune's column sink: what [`prune_packed`] reads of a
/// column, packed from the column alone.
///
/// # Panics
///
/// Packing with parameters [`PruneParams::validate`] rejects panics before
/// the first column, with the message `invalid PruneParams: ` and the
/// reason.
#[derive(Clone, Copy, Debug)]
pub struct PruneSink(pub PruneParams);

/// What a [`PruneSink`] records of a column besides its candidates.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    /// Entries the column held.
    len: usize,
    /// How many of them pass the cutoff.
    passing: usize,
    /// Their row-order sum, with recovery on (`0.0` otherwise).
    total: f64,
}

impl PruneSink {
    /// Whether recovery runs, so that the largest entries below the cutoff
    /// are candidates too.
    fn recovering(&self) -> bool {
        self.0.recover_num > 0 || self.0.recover_pct > 0.0
    }

    /// How many of a column's largest entries the prune can read
    /// (`recover_num` is 0 unless recovery runs).
    fn keep(&self) -> usize {
        self.0.select + self.0.recover_num
    }
}

impl ColumnSink<f64> for PruneSink {
    type Tally = Tally;

    /// Every merge asks this of each column before it packs any, so this is
    /// where invalid parameters are refused.
    fn room(&self, n: usize) -> usize {
        checked(&self.0);
        n.min(self.keep())
    }

    /// The candidates are the entries at or above the `keep`-th largest of
    /// those at or above the floor — the cutoff, or nothing with recovery
    /// on — with every tie; if none reaches the floor, every copy of the
    /// maximum.
    fn pack(
        &self,
        rows: &[Idx],
        vals: &[f64],
        scratch: &mut Vec<f64>,
        out: &mut CscBuilder<f64>,
    ) -> Tally {
        let (cutoff, keep) = (self.0.cutoff, self.keep());
        let floor = if self.recovering() {
            f64::NEG_INFINITY
        } else {
            cutoff
        };
        let (mut passing, mut max) = (0, f64::NEG_INFINITY);
        scratch.clear();
        for &v in vals {
            max = max.max(v);
            passing += (v >= cutoff) as usize;
            if v >= floor {
                scratch.push(v);
            }
        }
        let (thr, n) = match scratch.len() {
            0 => (max, vals.iter().filter(|&&v| v == max).count()),
            n if n <= keep => (floor, n),
            _ => {
                let thr = kth_largest(scratch, keep);
                (thr, scratch.iter().filter(|&&v| v >= thr).count())
            }
        };
        out.push_column_with(n, |r, v| {
            let mut k = 0;
            for (&i, &x) in rows.iter().zip(vals) {
                if k == r.len() {
                    break;
                }
                (r[k], v[k]) = (i, x);
                k += (x >= thr) as usize;
            }
        });
        let total = if self.recovering() {
            vals.iter().sum()
        } else {
            0.0
        };
        Tally {
            len: vals.len(),
            passing,
            total,
        }
    }
}

impl Packed<f64, Tally> {
    /// Entries the packed columns held when merged: what pruning them is
    /// charged for.
    pub fn merged_nnz(&self) -> usize {
        self.tally.iter().map(|t| t.len).sum()
    }
}

/// Panics on parameters no prune can honour, with [`PruneParams::validate`]'s
/// reason.
fn checked(params: &PruneParams) {
    if let Err(e) = params.validate() {
        panic!("invalid PruneParams: {e}");
    }
}

/// Slab-level distributed prune: operates on a column slab whose columns
/// are aligned across the ranks of `col_comm` (each rank holds a block of
/// the same global columns) — [`prune_packed`] of the slab packed by a
/// [`PruneSink`].
///
/// # Panics
///
/// On parameters [`PruneParams::validate`] rejects, with the message
/// `invalid PruneParams: ` and the reason, as [`PruneSink`] does.
pub fn prune_local_slab(
    col_comm: &Comm,
    m: &Csc<f64>,
    params: &PruneParams,
) -> (Csc<f64>, PruneStats) {
    checked(params);
    let packed = sink_slab(m, &PruneSink(*params));
    prune_packed(col_comm, &packed, params)
}

/// The distributed prune of a slab a [`PruneSink`] packed with `params`:
/// what `core::dist`'s per-phase hook calls, so expansion and pruning
/// stay fused (§II). Returns the pruned block and what this rank pruned.
pub fn prune_packed(
    col_comm: &Comm,
    packed: &Packed<f64, Tally>,
    params: &PruneParams,
) -> (Csc<f64>, PruneStats) {
    let (cutoff, select) = (params.cutoff, params.select);
    let (m, tally) = (&packed.cols, &packed.tally);
    let ncols = m.ncols();
    let me = col_comm.rank();

    // Streaming pass: maximum and local top-`select` survivors of every
    // column. The candidates may hold exactly `select` survivors of more,
    // so the `select`-th largest is put last, as `select_rule` reads it.
    let mut maxes = Vec::with_capacity(ncols);
    let survivors: Vec<u32> = tally.iter().map(|t| t.passing as u32).collect();
    let mut cands: Vec<f64> = Vec::new();
    for (j, t) in tally.iter().enumerate() {
        let vals = m.col_vals(j);
        maxes.push(vals.iter().fold(f64::NEG_INFINITY, |m, &v| m.max(v)));
        let start = cands.len();
        push_largest(
            &mut cands,
            vals.iter().copied().filter(|&v| v >= cutoff),
            select,
        );
        if t.passing > select {
            kth_largest(&mut cands[start..], select);
        }
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
            let col = (m.col_vals(j), tally[j].len);
            select_rule(&shares, me, col, params, &mut stats, &mut merged)
        })
        .unzip();

    let restore = recover(col_comm, packed, params, &rules, &mut counts, &mut stats);

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
    packed: &Packed<f64, Tally>,
    params: &PruneParams,
    rules: &[Keep],
    counts: &mut [usize],
    stats: &mut PruneStats,
) -> Vec<Keep> {
    let m = &packed.cols;
    let ncols = m.ncols();
    if !PruneSink(*params).recovering() {
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
        tally[2 * ncols + j] = packed.tally[j].total;
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
// root, where tier-1 runs them; the sunk path against this one is
// `tests/iteration_identity.rs`.
