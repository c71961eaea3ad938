//! Columnwise kernels of the MCL pipeline: stochastic normalization,
//! inflation (Hadamard power), threshold pruning with selection and
//! recovery, and the chaos convergence statistic.
//!
//! All kernels are column-parallel with rayon — columns are independent,
//! which is exactly why HipMCL parallelizes these steps trivially (§II).
//! For the same reason pruning and inflation are also offered one column
//! at a time ([`prune_column`], [`inflate_column`]): the matrix forms are
//! loops over them, and the serial driver applies them to each column of
//! an expansion as the SpGEMM finishes it. Pruning decides through
//! [`select_rule`] and [`recover_rule`], which see a column as *shares*,
//! one per holder: [`prune_column`] is the case of one share, the
//! distributed prune (`summa::topk`) that of one per grid row.

use crate::csc::{Csc, CscBuilder};
use crate::Idx;
use rayon::prelude::*;
use std::sync::Mutex;

/// Pruning policy applied after every expansion (Algorithm 1, line 4).
///
/// Mirrors MCL's `-P/-S/-R` knobs as used by HipMCL:
/// * entries below `cutoff` are pruned;
/// * if more than `select` entries survive, only the `select` largest are
///   kept (top-k selection, k ≈ 1000 in the paper);
/// * if fewer than `recover_num` survive *and* the surviving mass is below
///   `recover_pct` of the column's pre-prune mass, the largest pruned
///   entries are recovered until either bound is met.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PruneParams {
    /// Absolute cutoff below which entries are pruned (MCL `-P` ≈ 1/10000).
    pub cutoff: f64,
    /// Maximum entries kept per column (MCL `-S`, paper: ~1000).
    pub select: usize,
    /// Column-size floor that triggers recovery (MCL `-R`).
    pub recover_num: usize,
    /// Mass fraction that must survive pruning to skip recovery.
    pub recover_pct: f64,
}

impl Default for PruneParams {
    fn default() -> Self {
        Self {
            cutoff: 1.0 / 10_000.0,
            select: 1100,
            recover_num: 1400,
            recover_pct: 0.9,
        }
    }
}

impl PruneParams {
    /// Rejects parameters no prune can honour: `select == 0` (a column
    /// may never become empty), a negative or NaN `cutoff`, or a
    /// `recover_pct` outside `[0, 1]`.
    pub fn validate(&self) -> Result<(), InvalidPrune> {
        let bad = |field, value| Err(InvalidPrune { field, value });
        if self.select == 0 {
            return bad("select", 0.0);
        }
        if self.cutoff.is_nan() || self.cutoff < 0.0 {
            return bad("cutoff", self.cutoff);
        }
        if !(0.0..=1.0).contains(&self.recover_pct) {
            return bad("recover_pct", self.recover_pct);
        }
        Ok(())
    }

    /// Whether a column holding `count` entries of mass `mass`, of `total`
    /// before pruning, recovers one more (MCL `-R`).
    pub fn recovers(&self, count: usize, mass: f64, total: f64) -> bool {
        count < self.recover_num && mass < self.recover_pct * total
    }
}

/// A [`PruneParams`] field outside its legal range.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct InvalidPrune {
    /// Which parameter.
    pub field: &'static str,
    /// The offending value (`0.0` stands in for a zero `select`).
    pub value: f64,
}

impl std::fmt::Display for InvalidPrune {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "prune {} = {} out of range (select must be >= 1, cutoff >= 0, \
             recover_pct in [0, 1])",
            self.field, self.value
        )
    }
}

/// Summary of one pruning pass, used by the driver's instrumentation.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PruneStats {
    /// Entries removed by the cutoff.
    pub pruned_by_cutoff: usize,
    /// Entries removed by top-k selection.
    pub pruned_by_select: usize,
    /// Entries put back by recovery.
    pub recovered: usize,
}

impl std::ops::AddAssign for PruneStats {
    fn add_assign(&mut self, other: Self) {
        self.pruned_by_cutoff += other.pruned_by_cutoff;
        self.pruned_by_select += other.pruned_by_select;
        self.recovered += other.recovered;
    }
}

/// The values of every column of `m` as disjoint mutable slices, in column
/// order — what the kernels that update a matrix in place run over.
fn column_vals_mut(m: &mut Csc<f64>) -> Vec<&mut [f64]> {
    let mut rest = m.vals.as_mut_slice();
    (m.colptr.windows(2))
        .map(|w| {
            let (col, tail) = std::mem::take(&mut rest).split_at_mut(w[1] - w[0]);
            rest = tail;
            col
        })
        .collect()
}

/// Scales every column of `m` to sum to one (column stochastic). Columns
/// that are entirely zero are left untouched.
pub fn normalize_columns(m: &mut Csc<f64>) {
    column_vals_mut(m)
        .into_par_iter()
        .for_each(normalize_column);
}

/// [`normalize_columns`] on the values of one column.
fn normalize_column(col: &mut [f64]) {
    let s: f64 = col.iter().sum();
    if s > 0.0 {
        let inv = 1.0 / s;
        for v in col {
            *v *= inv;
        }
    }
}

/// Raises every entry to `power` and renormalizes columns — the MCL
/// inflation operator Γ_r (Algorithm 1, line 5; paper uses r = 2).
pub fn inflate(m: &mut Csc<f64>, power: f64) {
    column_vals_mut(m)
        .into_par_iter()
        .for_each(|col| inflate_column(col, power));
}

/// [`inflate`] on the values of one column.
pub fn inflate_column(col: &mut [f64], power: f64) {
    let mut s = 0.0;
    for v in col.iter_mut() {
        *v = v.powf(power);
        s += *v;
    }
    if s > 0.0 {
        let inv = 1.0 / s;
        for v in col {
            *v *= inv;
        }
    }
}

/// Sum of each column.
pub fn col_sums(m: &Csc<f64>) -> Vec<f64> {
    (0..m.ncols())
        .into_par_iter()
        .map(|j| m.col_vals(j).iter().sum())
        .collect()
}

/// The MCL *chaos* statistic: `max_j (max_i m_ij − Σ_i m_ij²)` over
/// non-empty columns of a column-stochastic matrix. Zero exactly when every
/// column is an indicator vector (fully converged); HipMCL stops when chaos
/// drops below a small epsilon.
pub fn chaos(m: &Csc<f64>) -> f64 {
    (0..m.ncols())
        .into_par_iter()
        .map(|j| {
            let col = m.col_vals(j);
            if col.is_empty() {
                return 0.0;
            }
            let mut mx = 0.0f64;
            let mut ssq = 0.0f64;
            for &v in col {
                mx = mx.max(v);
                ssq += v * v;
            }
            mx - ssq
        })
        .reduce(|| 0.0, f64::max)
}

/// Returns the `k`-th largest value of `vals` (1-indexed: `k = 1` gives the
/// maximum) in the order of `f64::total_cmp`, by selection: afterwards
/// `vals[..k]` holds the `k` largest, the `k`-th last. `k` must satisfy
/// `1 ≤ k ≤ vals.len()`.
pub fn kth_largest(vals: &mut [f64], k: usize) -> f64 {
    *vals.select_nth_unstable_by(k - 1, |a, b| b.total_cmp(a)).1
}

/// Appends the `keep` largest of `vals` to `flat` and returns how many
/// `vals` held. The run is unordered, except that when some were cut the
/// `keep`-th largest ends it.
pub fn push_largest(flat: &mut Vec<f64>, vals: impl Iterator<Item = f64>, keep: usize) -> usize {
    let start = flat.len();
    flat.extend(vals);
    let n = flat.len() - start;
    if n > keep {
        kth_largest(&mut flat[start..], keep);
        flat.truncate(start + keep);
    }
    n
}

/// Applies [`PruneParams`] to every column of `m`, returning the pruned
/// matrix and statistics: [`prune_column`] on each column. The input is
/// expected column stochastic; column mass is *not* renormalized here (MCL
/// renormalizes during inflation).
pub fn prune(m: &Csc<f64>, p: &PruneParams) -> (Csc<f64>, PruneStats) {
    let keep = p.select.max(p.recover_num);
    let bound = (0..m.ncols()).map(|j| m.col_nnz(j).min(keep)).sum();
    let total = Mutex::new(PruneStats::default());
    let pruned = CscBuilder::build(
        m.nrows(),
        m.ncols(),
        bound,
        PruneScratch::default(),
        |scratch, j, out| {
            let (rows, vals) = (m.col_rows(j), m.col_vals(j));
            let (rules, kept, stats) = prune_column(vals, p, scratch);
            out.push_column_with(kept, |r, v| write_admitted(rows, vals, rules, r, v));
            *total.lock().expect("nothing panics under the lock") += stats;
        },
    );
    (
        pruned,
        total.into_inner().expect("nothing panics under the lock"),
    )
}

/// Which entries of one column a prune keeps: every value above `thr`,
/// and — of the values equal to it, in row order — the `ties` that follow
/// the first `skip`. Cutoff, selection and the never-empty rule make one
/// per column ([`select_rule`]); recovery makes a second over the entries
/// the first rejects ([`recover_rule`]).
#[derive(Clone, Copy, Debug)]
pub struct Keep {
    thr: f64,
    skip: usize,
    ties: usize,
}

impl Keep {
    /// Keeps nothing.
    pub const NOTHING: Keep = Keep::new(f64::INFINITY, 0, 0);

    const fn new(thr: f64, skip: usize, ties: usize) -> Keep {
        Keep { thr, skip, ties }
    }

    /// Decides the column's next entry; call in row order.
    #[inline]
    pub fn admits(&mut self, v: f64) -> bool {
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

/// Writes the entries of one column, given by `rows` and `vals`, that the
/// first of `rules` admits or, failing it, the second — in row order, what
/// a prune keeps — to `r` and `v`, which hold exactly as many.
pub fn write_admitted(
    rows: &[Idx],
    vals: &[f64],
    [mut keep, mut back]: [Keep; 2],
    r: &mut [Idx],
    v: &mut [f64],
) {
    let mut k = 0;
    for (&i, &x) in rows.iter().zip(vals) {
        if k == r.len() {
            break;
        }
        // Every entry is written and only an admitted one advances `k`; off
        // the thresholds the decision is `&`/`|` arithmetic, so no branch
        // waits on an outcome that is as good as random.
        (r[k], v[k]) = (i, x);
        let admitted = if (x != keep.thr) & (x != back.thr) {
            (x > keep.thr) | (x > back.thr)
        } else {
            keep.admits(x) || back.admits(x)
        };
        k += admitted as usize;
    }
}

/// One holder's part of a column: the whole column in the serial prune,
/// the block of one grid row in the distributed one.
#[derive(Clone, Copy, Debug)]
pub struct Share<'a> {
    /// Its largest value (`-∞` if it holds none).
    pub max: f64,
    /// How many of its values pass the cutoff.
    pub passing: usize,
    /// The `min(passing, select)` largest of those, as [`push_largest`]
    /// leaves them.
    pub run: &'a [f64],
}

/// The rule of share `me`, which holds `len` entries, of a column whose
/// shares in row order are `shares`, and how many entries it keeps. `col`
/// holds the values of the share's entries that can stay: all of them, or
/// at least every one at or above its `select` largest survivors and every
/// copy of its maximum. Every holder derives its rule from the same
/// `shares`, so together they keep what one holder of the whole column
/// would: the cutoff survivors, at most the `select` largest with ties
/// granted share by share, then row by row; if none survives, the last copy
/// of the maximum, as no column may become empty. Adds what it prunes to
/// `stats`; `merged` is scratch.
pub fn select_rule(
    shares: &[Share],
    me: usize,
    (col, len): (&[f64], usize),
    p: &PruneParams,
    stats: &mut PruneStats,
    merged: &mut Vec<f64>,
) -> (Keep, usize) {
    let mine = shares[me].passing;
    let passing: usize = shares.iter().map(|s| s.passing).sum();
    stats.pruned_by_cutoff += len - mine;
    if passing == 0 {
        let max = shares.iter().fold(f64::NEG_INFINITY, |m, s| m.max(s.max));
        if max == f64::NEG_INFINITY || shares.iter().rposition(|s| s.max == max) != Some(me) {
            return (Keep::NOTHING, 0);
        }
        stats.pruned_by_cutoff -= 1;
        let copies = col.iter().filter(|&&v| v == max).count();
        return (Keep::new(max, copies - 1, 1), 1);
    }
    if passing <= p.select {
        return (Keep::new(p.cutoff, 0, mine), mine);
    }
    let top = match shares {
        // `push_largest` left the `select`-th largest last.
        [one] => one.run,
        _ => {
            merged.clear();
            shares.iter().for_each(|s| merged.extend_from_slice(s.run));
            kth_largest(merged, p.select);
            &merged[..p.select]
        }
    };
    let (keep, kept) = grant(|r| shares[r].run, me, top);
    stats.pruned_by_select += mine - kept;
    (keep, kept)
}

/// Recovery (MCL `-R`) for share `me` of a column that kept `count` entries
/// of mass `mass`, of `total`: the rule that brings back its part of the
/// largest pruned values (value descending, then share, then row) while
/// [`PruneParams::recovers`], and how many that is. `runs` are the shares'
/// `recover_num` largest pruned values. Adds what it restores to `stats`;
/// `merged` is scratch.
pub fn recover_rule(
    runs: &[&[f64]],
    me: usize,
    (count, mut mass, total): (usize, f64, f64),
    p: &PruneParams,
    stats: &mut PruneStats,
    merged: &mut Vec<f64>,
) -> (Keep, usize) {
    merged.clear();
    runs.iter().for_each(|run| merged.extend_from_slice(run));
    merged.sort_unstable_by(|a, b| b.total_cmp(a));
    let mut n = 0;
    while n < merged.len() && p.recovers(count + n, mass, total) {
        mass += merged[n];
        n += 1;
    }
    let (back, restored) = grant(|r| runs[r], me, &merged[..n]);
    stats.recovered += restored;
    (back, restored)
}

/// Share `me`'s part of the `n` largest values of `runs`' union, given
/// those `n` as `top` with the smallest last, and how many that is: every
/// value above the smallest and, of the places left for the values equal
/// to it, what the shares before `me` leave. Nothing if `n` is 0.
fn grant<'a>(run: impl Fn(usize) -> &'a [f64], me: usize, top: &[f64]) -> (Keep, usize) {
    let Some((&thr, larger)) = top.split_last() else {
        return (Keep::NOTHING, 0);
    };
    let above = |vals: &[f64]| vals.iter().filter(|&&v| v > thr).count();
    let equal = |vals: &[f64]| vals.iter().filter(|&&v| v == thr).count();
    let quota = (0..me).fold(top.len() - above(larger), |q, r| q - equal(run(r)).min(q));
    let ties = equal(run(me)).min(quota);
    (Keep::new(thr, 0, ties), above(run(me)) + ties)
}

/// The buffers [`prune_column`] works in, reused by one worker from column
/// to column: it allocates only for a column larger than any before.
#[derive(Clone, Debug, Default)]
pub struct PruneScratch {
    /// The column's run: its largest survivors, then its largest pruned.
    run: Vec<f64>,
    /// Recovery's candidates in order.
    merged: Vec<f64>,
}

/// [`PruneParams`] applied to one column, given by its values: the rules
/// that decide in row order which entries stay ([`write_admitted`]), how many
/// stay, and what was done. The column is the one share of a grid of one:
/// [`select_rule`], then [`recover_rule`] if it kept too few entries.
pub fn prune_column(
    vals: &[f64],
    p: &PruneParams,
    scratch: &mut PruneScratch,
) -> ([Keep; 2], usize, PruneStats) {
    let PruneScratch { run, merged } = scratch;
    let mut stats = PruneStats::default();
    let passing = vals.iter().copied().filter(|&v| v >= p.cutoff);
    run.clear();
    let passing = push_largest(run, passing, p.select);
    // A survivor exceeds every entry that does not survive.
    let max = (if passing > 0 { &run[..] } else { vals }).iter();
    let max = max.fold(f64::NEG_INFINITY, |m, &v| m.max(v));
    let share = Share { max, passing, run };
    let col = (vals, vals.len());
    let (keep, kept) = select_rule(&[share], 0, col, p, &mut stats, merged);
    let (mut back, mut restored) = (Keep::NOTHING, 0);
    if kept < p.recover_num {
        let (mut rule, total) = (keep, vals.iter().sum());
        let mass = vals.iter().filter(|&&v| rule.admits(v)).sum();
        let mut rule = keep;
        let pruned = vals.iter().copied().filter(|&v| !rule.admits(v));
        run.clear();
        push_largest(run, pruned, p.recover_num);
        (back, restored) = recover_rule(&[run], 0, (kept, mass, total), p, &mut stats, merged);
    }
    ([keep, back], kept + restored, stats)
}

/// Makes the nonzero pattern symmetric: `m ∨ mᵀ` with values `max(a, aᵀ)`.
/// MCL inputs are similarity graphs and are symmetrized before clustering.
pub fn symmetrize_max(m: &Csc<f64>) -> Csc<f64> {
    prepare(m, true, false, false)
}

/// MCL's input preparation in one column-parallel pass that writes each
/// output column once: column `j` of `m`, merged by max with column `j`
/// of `mᵀ` if `symmetrize`; with a `1.0` on the diagonal where it has no
/// entry if `self_loops` (so the random walk is aperiodic), which also
/// drops stored zeros; scaled to sum to one if `normalize`. A counting
/// pass sizes every column first, so the result is allocated once, at
/// its size.
pub fn prepare(m: &Csc<f64>, symmetrize: bool, self_loops: bool, normalize: bool) -> Csc<f64> {
    if symmetrize || self_loops {
        assert_eq!(m.nrows(), m.ncols(), "needs a square matrix");
    }
    let t = symmetrize.then(|| m.transposed());
    // Column `j`'s entries in row order, each handed to `f`.
    let entries = |j: usize, f: &mut dyn FnMut(Idx, f64)| {
        let (ra, va) = (m.col_rows(j), m.col_vals(j));
        let (rb, vb) = t
            .as_ref()
            .map_or((&[][..], &[][..]), |t| (t.col_rows(j), t.col_vals(j)));
        // The diagonal is settled once a row at or past it went by.
        let (diag, mut settled) = (j as Idx, !self_loops);
        let mut put = |r: Idx, v: f64| {
            if !settled && r >= diag {
                if r > diag {
                    f(diag, 1.0);
                }
                settled = true;
            }
            if !(self_loops && v == 0.0) {
                f(r, v);
            }
        };
        let (mut a, mut b) = (0usize, 0usize);
        while a < ra.len() || b < rb.len() {
            if b >= rb.len() || (a < ra.len() && ra[a] < rb[b]) {
                put(ra[a], va[a]);
                a += 1;
            } else if a >= ra.len() || rb[b] < ra[a] {
                put(rb[b], vb[b]);
                b += 1;
            } else {
                put(ra[a], va[a].max(vb[b]));
                a += 1;
                b += 1;
            }
        }
        if !settled {
            f(diag, 1.0);
        }
    };
    let counts: Vec<usize> = (0..m.ncols())
        .into_par_iter()
        .map(|j| {
            let mut n = 0;
            entries(j, &mut |_, _| n += 1);
            n
        })
        .collect();
    let reserve = counts.iter().sum();
    CscBuilder::build(m.nrows(), m.ncols(), reserve, (), |_, j, out| {
        out.push_column_with(counts[j], |rows, vals| {
            let mut k = 0;
            entries(j, &mut |r, v| {
                (rows[k], vals[k]) = (r, v);
                k += 1;
            });
            if normalize {
                normalize_column(vals);
            }
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::triples::Triples;

    fn stochastic_sample() -> Csc<f64> {
        let mut t = Triples::new(4, 3);
        t.push(0, 0, 0.5);
        t.push(1, 0, 0.3);
        t.push(2, 0, 0.15);
        t.push(3, 0, 0.05);
        t.push(1, 1, 0.9);
        t.push(2, 1, 0.1);
        t.push(3, 2, 1.0);
        Csc::from_triples(&t)
    }

    #[test]
    fn normalize_makes_columns_sum_to_one() {
        let mut t = Triples::new(3, 2);
        t.push(0, 0, 2.0);
        t.push(1, 0, 6.0);
        t.push(2, 1, 5.0);
        let mut m = Csc::from_triples(&t);
        normalize_columns(&mut m);
        let sums = col_sums(&m);
        assert!((sums[0] - 1.0).abs() < 1e-12);
        assert!((sums[1] - 1.0).abs() < 1e-12);
        assert_eq!(m.get(0, 0), Some(0.25));
    }

    #[test]
    fn normalize_skips_empty_columns() {
        let mut m = Csc::<f64>::zero(3, 3);
        normalize_columns(&mut m);
        assert_eq!(m.nnz(), 0);
    }

    #[test]
    fn inflate_square_sharpens_distribution() {
        let mut m = stochastic_sample();
        inflate(&mut m, 2.0);
        let sums = col_sums(&m);
        for s in sums.iter().take(3) {
            assert!((s - 1.0).abs() < 1e-12, "columns stay stochastic");
        }
        // Column 0 was (0.5,0.3,0.15,0.05): squaring+renorm boosts the max.
        assert!(m.get(0, 0).unwrap() > 0.5);
        assert!(m.get(3, 0).unwrap() < 0.05);
    }

    #[test]
    fn chaos_zero_for_indicator_columns() {
        let m = Csc::<f64>::identity(5);
        assert_eq!(chaos(&m), 0.0);
        let spread = stochastic_sample();
        assert!(chaos(&spread) > 0.0);
    }

    #[test]
    fn kth_largest_basic() {
        let mut v = [0.1, 0.9, 0.5, 0.7];
        assert_eq!(kth_largest(&mut v, 1), 0.9);
        assert_eq!(kth_largest(&mut v, 2), 0.7);
        assert_eq!(kth_largest(&mut v, 4), 0.1);
    }

    #[test]
    fn prune_cutoff_drops_small_entries() {
        let m = stochastic_sample();
        let p = PruneParams {
            cutoff: 0.2,
            select: 10,
            recover_num: 0,
            recover_pct: 0.0,
        };
        let (out, stats) = prune(&m, &p);
        out.assert_valid();
        assert_eq!(out.get(3, 0), None);
        assert_eq!(out.get(2, 0), None);
        assert_eq!(stats.pruned_by_cutoff, 3); // 0.15, 0.05 in col0; 0.1 in col1
        assert_eq!(out.get(0, 0), Some(0.5));
    }

    #[test]
    fn prune_never_empties_a_column() {
        let m = stochastic_sample();
        let p = PruneParams {
            cutoff: 5.0,
            select: 10,
            recover_num: 0,
            recover_pct: 0.0,
        };
        let (out, _) = prune(&m, &p);
        for j in 0..3 {
            assert_eq!(out.col_nnz(j), 1, "column {j} keeps its max");
        }
        assert_eq!(out.get(0, 0), Some(0.5));
    }

    #[test]
    fn prune_selection_keeps_top_k() {
        let m = stochastic_sample();
        let p = PruneParams {
            cutoff: 0.0,
            select: 2,
            recover_num: 0,
            recover_pct: 0.0,
        };
        let (out, stats) = prune(&m, &p);
        assert_eq!(out.col_nnz(0), 2);
        assert_eq!(out.get(0, 0), Some(0.5));
        assert_eq!(out.get(1, 0), Some(0.3));
        assert_eq!(stats.pruned_by_select, 2);
    }

    #[test]
    fn prune_selection_handles_ties() {
        let mut t = Triples::new(4, 1);
        for i in 0..4 {
            t.push(i, 0, 0.25);
        }
        let m = Csc::from_triples(&t);
        let p = PruneParams {
            cutoff: 0.0,
            select: 2,
            recover_num: 0,
            recover_pct: 0.0,
        };
        let (out, _) = prune(&m, &p);
        assert_eq!(out.col_nnz(0), 2, "exactly k survive a full tie");
    }

    #[test]
    fn prune_recovery_restores_mass() {
        let m = stochastic_sample();
        // Aggressive cutoff kills 0.15/0.05; recovery demands 90% mass back.
        let p = PruneParams {
            cutoff: 0.2,
            select: 10,
            recover_num: 3,
            recover_pct: 0.9,
        };
        let (out, stats) = prune(&m, &p);
        assert!(stats.recovered >= 1);
        // Column 0 kept 0.8 mass after cutoff; recovery adds 0.15 back.
        assert_eq!(out.get(2, 0), Some(0.15));
    }

    #[test]
    fn symmetrize_max_produces_symmetric_pattern() {
        let mut t = Triples::new(3, 3);
        t.push(0, 1, 2.0);
        t.push(1, 0, 5.0);
        t.push(2, 0, 1.0);
        let s = symmetrize_max(&Csc::from_triples(&t));
        s.assert_valid();
        assert_eq!(s.get(0, 1), Some(5.0));
        assert_eq!(s.get(1, 0), Some(5.0));
        assert_eq!(s.get(0, 2), Some(1.0));
        assert_eq!(s.get(2, 0), Some(1.0));
    }

    #[test]
    fn self_loops_only_where_missing() {
        let mut t = Triples::new(2, 2);
        t.push(0, 0, 3.0);
        t.push(1, 0, 1.0);
        let m = prepare(&Csc::from_triples(&t), false, true, false);
        assert_eq!(m.get(0, 0), Some(3.0), "existing loop untouched");
        assert_eq!(m.get(1, 1), Some(1.0), "missing loop added");
    }
}
