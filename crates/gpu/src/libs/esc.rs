//! `bhsparse` analogue: expand–sort–compress (ESC) SpGEMM
//! (Liu & Vinter, IPDPS 2014; Dalton/Olson/Bell, ACM TOMS 2015).
//!
//! Phase 1 *expands* every nontrivial product `a_ik · b_kj` of an output
//! column into an explicit `(row, val)` list (size = the column's flops);
//! phase 2 *sorts* the list by row; phase 3 *compresses* runs of equal rows
//! by summation. On a GPU the three phases map onto massively parallel
//! primitives (scans, bitonic/radix sorts); here each output column runs
//! the three phases in a rayon task, with the expansion buffer reused per
//! worker. Work per column is `O(flops · lg flops)` — the sort makes ESC
//! the most memory-hungry and (at high `cf`) slowest of the three
//! libraries, matching its mid-pack showing in the paper's Fig. 4.

use hipmcl_sparse::{Csc, CscBuilder, Idx, Semiring};
use hipmcl_spgemm::emit::Emit;
use std::ops::Range;

/// Columns `cols` of `A · B` with expand–sort–compress columns, in the
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
        (Vec::<(Idx, S::Elem)>::new(), Vec::new(), Vec::new(), emit),
        |(expand_buf, rows, vals, emit), j, out| {
            let j = cols.start + j;
            expand_column(s, a, b, j, expand_buf);
            sort_compress(s, expand_buf);
            rows.clear();
            vals.clear();
            rows.extend(expand_buf.iter().map(|&(r, _)| r));
            vals.extend(expand_buf.iter().map(|&(_, v)| v));
            emit.emit(j, rows, vals, out);
        },
    )
}

/// Expansion: materializes all products contributing to output column `j`.
fn expand_column<S: Semiring>(
    _s: S,
    a: &Csc<S::Elem>,
    b: &Csc<S::Elem>,
    j: usize,
    buf: &mut Vec<(Idx, S::Elem)>,
) {
    buf.clear();
    for (&k, &bv) in b.col_rows(j).iter().zip(b.col_vals(j)) {
        let k = k as usize;
        for (&r, &av) in a.col_rows(k).iter().zip(a.col_vals(k)) {
            buf.push((r, S::mul(av, bv)));
        }
    }
}

/// Sort + compress: orders products by row and combines duplicate runs
/// with the semiring's addition, in place.
fn sort_compress<S: Semiring>(_s: S, buf: &mut Vec<(Idx, S::Elem)>) {
    buf.sort_unstable_by_key(|&(r, _)| r);
    buf.dedup_by(|next, kept| {
        let same = next.0 == kept.0;
        if same {
            kept.1 = S::add(kept.1, next.1);
        }
        same
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipmcl_sparse::PlusTimes;
    use hipmcl_spgemm::emit::Push;
    use hipmcl_spgemm::testutil::random_csc;

    #[test]
    fn sort_compress_sums_runs() {
        let mut buf = vec![(3u32, 1.0), (1, 2.0), (3, 0.5), (1, 1.0)];
        sort_compress(PlusTimes::<f64>::new(), &mut buf);
        assert_eq!(buf, vec![(1, 3.0), (3, 1.5)]);
    }

    #[test]
    fn sort_compress_empty() {
        let mut buf: Vec<(Idx, f64)> = Vec::new();
        sort_compress(PlusTimes::<f64>::new(), &mut buf);
        assert!(buf.is_empty());
    }

    #[test]
    fn expand_column_materializes_flops() {
        let a = random_csc(8, 8, 24, 1);
        let flops = hipmcl_spgemm::flops_per_column(&a, &a);
        let mut buf = Vec::new();
        for (j, &f) in flops.iter().enumerate() {
            expand_column(PlusTimes::<f64>::new(), &a, &a, j, &mut buf);
            assert_eq!(buf.len() as u64, f, "column {j}");
        }
    }

    #[test]
    fn matches_reference() {
        let a = random_csc(15, 12, 60, 4);
        let b = random_csc(12, 10, 50, 5);
        let got = multiply_in(PlusTimes::<f64>::new(), &a, &b, 0..10, 0, Push);
        let want = hipmcl_spgemm::hash::multiply(&a, &b);
        got.assert_valid();
        assert_eq!(got.colptr, want.colptr);
        assert_eq!(got.rowidx, want.rowidx);
    }
}
