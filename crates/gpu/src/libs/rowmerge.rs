//! `rmerge2` analogue: SpGEMM by iterative row merging
//! (Gremse, Küpper, Naumann — SIAM J. Sci. Comput. 2018).
//!
//! rmerge2 forms each output row `C_{i*} = Σ_k a_ik · B_{k*}` by repeatedly
//! merging *pairs* of sorted scaled rows — a balanced binary merge tree —
//! instead of accumulating into a table. On `Cᵀ = Bᵀ·Aᵀ` that is each
//! output column `C_{*j} = Σ_k A_{*k} · b_kj` from sorted scaled columns
//! of `A`, which is what runs here. Merging is branch-predictable and
//! memory-lean (rmerge2's selling point: "memory-efficient"), but the tree
//! revisits elements `lg(nnz(B_{*j}))` times, so its advantage fades as
//! `cf` grows; the paper measures it at ~1.1× `cpu-hash` overall and best
//! among the GPU libraries only at small `cf`.

use hipmcl_sparse::{Csc, CscBuilder, Idx, Semiring, Value};
use hipmcl_spgemm::emit::Emit;
use std::ops::Range;

/// One level of a column's merge tree: sorted runs laid end to end, run
/// `i` ending at `ends[i]`. A worker keeps two — the level it reads and
/// the level it writes — across all the columns it merges.
#[derive(Clone, Debug, Default)]
struct Runs<T> {
    rows: Vec<Idx>,
    vals: Vec<T>,
    ends: Vec<usize>,
}

impl<T: Value> Runs<T> {
    fn clear(&mut self) {
        self.rows.clear();
        self.vals.clear();
        self.ends.clear();
    }

    fn run(&self, span: Range<usize>) -> (&[Idx], &[T]) {
        (&self.rows[span.clone()], &self.vals[span])
    }
}

/// Columns `cols` of `A · B` by per-column binary merge trees, in the
/// given semiring, each handed to `emit`; `reserve` sizes the output.
pub(crate) fn multiply_in<S: Semiring, E: Emit<S::Elem>>(
    s: S,
    a: &Csc<S::Elem>,
    b: &Csc<S::Elem>,
    cols: Range<usize>,
    reserve: usize,
    emit: E,
) -> Csc<S::Elem> {
    CscBuilder::build(
        a.nrows(),
        cols.len(),
        reserve,
        (Runs::default(), Runs::default(), emit),
        |(level, next, emit), j, out| {
            let j = cols.start + j;
            merge_column(s, a, b, j, level, next);
            emit.emit(j, &level.rows, &level.vals, out);
        },
    )
}

/// Builds output column `j` by a balanced tree of two-way merges and
/// leaves it as the single run of `level`.
fn merge_column<S: Semiring>(
    s: S,
    a: &Csc<S::Elem>,
    b: &Csc<S::Elem>,
    j: usize,
    level: &mut Runs<S::Elem>,
    next: &mut Runs<S::Elem>,
) {
    // Leaves: the selected nonempty A columns, scaled by the B entry.
    level.clear();
    for (&k, &bv) in b.col_rows(j).iter().zip(b.col_vals(j)) {
        let k = k as usize;
        if a.col_nnz(k) > 0 {
            level.rows.extend_from_slice(a.col_rows(k));
            (level.vals).extend(a.col_vals(k).iter().map(|&av| S::mul(av, bv)));
            level.ends.push(level.rows.len());
        }
    }

    // Balanced reduction: merge adjacent pairs until one run remains; an
    // odd last run merges with nothing.
    while level.ends.len() > 1 {
        next.clear();
        let mut lo = 0;
        for pair in level.ends.chunks(2) {
            let (mid, hi) = (pair[0], pair[pair.len() - 1]);
            merge_two(s, level.run(lo..mid), level.run(mid..hi), next);
            next.ends.push(next.rows.len());
            lo = hi;
        }
        std::mem::swap(level, next);
    }
}

/// Two-way merge of sorted `(rows, vals)` runs onto the end of `out`,
/// combining equal rows with the semiring's addition.
fn merge_two<S: Semiring>(
    _s: S,
    (xr, xv): (&[Idx], &[S::Elem]),
    (yr, yv): (&[Idx], &[S::Elem]),
    out: &mut Runs<S::Elem>,
) {
    let (mut i, mut j) = (0usize, 0usize);
    let mut push = |row, val| {
        out.rows.push(row);
        out.vals.push(val);
    };
    while i < xr.len() || j < yr.len() {
        let take_x = j >= yr.len() || (i < xr.len() && xr[i] < yr[j]);
        let take_both = i < xr.len() && j < yr.len() && xr[i] == yr[j];
        if take_both {
            push(xr[i], S::add(xv[i], yv[j]));
            i += 1;
            j += 1;
        } else if take_x {
            push(xr[i], xv[i]);
            i += 1;
        } else {
            push(yr[j], yv[j]);
            j += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipmcl_sparse::PlusTimes;
    use hipmcl_spgemm::emit::Push;
    use hipmcl_spgemm::testutil::random_csc;

    fn multiply(a: &Csc<f64>, b: &Csc<f64>) -> Csc<f64> {
        multiply_in(PlusTimes::<f64>::new(), a, b, 0..b.ncols(), 0, Push)
    }

    fn merged(x: (&[Idx], &[f64]), y: (&[Idx], &[f64])) -> (Vec<Idx>, Vec<f64>) {
        let mut out = Runs::default();
        merge_two(PlusTimes::<f64>::new(), x, y, &mut out);
        (out.rows, out.vals)
    }

    #[test]
    fn merge_two_disjoint() {
        let (r, v) = merged((&[1, 5], &[1.0, 2.0]), (&[2, 9], &[3.0, 4.0]));
        assert_eq!(r, vec![1, 2, 5, 9]);
        assert_eq!(v, vec![1.0, 3.0, 2.0, 4.0]);
    }

    #[test]
    fn merge_two_overlapping_sums() {
        let (r, v) = merged((&[1, 3], &[1.0, 1.0]), (&[1, 3], &[0.5, 0.25]));
        assert_eq!(r, vec![1, 3]);
        assert_eq!(v, vec![1.5, 1.25]);
    }

    #[test]
    fn merge_two_with_empty() {
        assert_eq!(merged((&[], &[]), (&[7], &[1.0])), (vec![7], vec![1.0]));
    }

    #[test]
    fn an_odd_run_is_carried_to_the_next_level() {
        // Three leaves: ((l0 ⊕ l1) ⊕ l2), the third carried once.
        let a = Csc::from_dense(3, 3, &[1.0, 0.0, 2.0, 0.0, 3.0, 4.0, 5.0, 0.0, 0.0]);
        let b = Csc::from_dense(3, 1, &[1.0, 1.0, 1.0]);
        let got = multiply(&a, &b);
        assert_eq!(got.rowidx, vec![0, 1, 2]);
        assert_eq!(got.vals, vec![6.0, 3.0, 6.0]);
    }

    #[test]
    fn matches_reference() {
        let a = random_csc(16, 13, 70, 10);
        let b = random_csc(13, 17, 65, 11);
        let got = multiply(&a, &b);
        let want = hipmcl_spgemm::hash::multiply(&a, &b);
        got.assert_valid();
        assert_eq!(got.colptr, want.colptr);
        assert_eq!(got.rowidx, want.rowidx);
        assert!(got.max_abs_diff(&want) < 1e-9);
    }

    #[test]
    fn identity_on_either_side() {
        // I·B: every leaf holds a single entry; B·I: every tree is one leaf.
        let b = random_csc(6, 6, 18, 13);
        let i = Csc::identity(6);
        assert_eq!(multiply(&i, &b), b);
        assert_eq!(multiply(&b, &i), b);
    }
}
