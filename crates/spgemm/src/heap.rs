//! Heap-assisted column-by-column SpGEMM — the kernel of *original* HipMCL.
//!
//! For each output column `C_{*j}`, a min-heap holds one cursor per column
//! `A_{*k}` with `k ∈ inds(B_{*j})`. Popping the minimum row index merges
//! the scaled columns in sorted order while accumulating duplicates; the
//! output column is produced already sorted. Work is
//! `O(flops · lg nnz(B_{*j}))` — excellent when columns of `B` are short
//! (≈10 nonzeros, sparse graph processing) but the `lg` factor and the
//! pointer-chasing heap hurt at MCL densities (≈1000 nonzeros per column),
//! which is what §VI replaces with hash accumulation.

use crate::assemble::build_csc_parallel_scratch;
use hipmcl_sparse::{Csc, Idx, PlusTimes, Semiring, Value};
use std::collections::binary_heap::{BinaryHeap, PeekMut};

/// One merge cursor: the current head of a scaled column of `A`.
/// Ordered by `row` (then list id for determinism) as a *min*-heap entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Cursor {
    row: Idx,
    list: u32,
}

impl Ord for Cursor {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse for min-heap on BinaryHeap (which is a max-heap).
        other.row.cmp(&self.row).then(other.list.cmp(&self.list))
    }
}

impl PartialOrd for Cursor {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Per-worker merge state, reused across the columns a worker fills.
#[derive(Clone, Default)]
struct HeapScratch {
    /// `positions[l]` = how far `A_{*k}` for the `l`-th entry of `B_{*j}`
    /// has been consumed.
    positions: Vec<usize>,
    heap: BinaryHeap<Cursor>,
}

/// Multiplies `C = A · B` with heap accumulation in the given semiring,
/// column-parallel. Two-phase like CombBLAS's local multiply, so assembly
/// is allocation-exact: the shared hash symbolic pass sizes the output
/// (`O(flops)`, no products, no `lg` factor), then one heap merge fills it.
pub fn multiply_in<S: Semiring>(s: S, a: &Csc<S::Elem>, b: &Csc<S::Elem>) -> Csc<S::Elem> {
    multiply_with_counts_in(s, a, b, &crate::hash::symbolic_counts(a, b))
}

/// [`multiply_in`] with the numeric plus-times semiring — MCL's default.
pub fn multiply<T: Value>(a: &Csc<T>, b: &Csc<T>) -> Csc<T>
where
    PlusTimes<T>: Semiring<Elem = T>,
{
    multiply_in(PlusTimes::new(), a, b)
}

/// The numeric phase alone: heap-merges every output column into a CSC
/// allocated from `counts` ([`crate::hash::symbolic_counts_with_flops`]).
/// Panics on a count that does not match the column it describes.
pub fn multiply_with_counts_in<S: Semiring>(
    s: S,
    a: &Csc<S::Elem>,
    b: &Csc<S::Elem>,
    counts: &[usize],
) -> Csc<S::Elem> {
    assert_eq!(a.ncols(), b.nrows(), "inner dimensions must agree");
    assert_eq!(counts.len(), b.ncols(), "one count per output column");
    build_csc_parallel_scratch(
        a.nrows(),
        b.ncols(),
        counts,
        HeapScratch::default(),
        |scratch, j, rows_out, vals_out| {
            let mut w = 0usize;
            merge_column(s, a, b, j, scratch, |r, v| {
                rows_out[w] = r;
                vals_out[w] = v;
                w += 1;
            });
            assert_eq!(w, rows_out.len(), "column {j}: count does not match");
        },
    )
}

/// Heap-merges the scaled A-columns selected by `B_{*j}`, invoking `emit`
/// once per distinct output row (in increasing row order) with the
/// accumulated value. Equal rows pop in ascending list order, so each
/// entry folds its products in ascending position within `B_{*j}`.
fn merge_column<S: Semiring>(
    _s: S,
    a: &Csc<S::Elem>,
    b: &Csc<S::Elem>,
    j: usize,
    scratch: &mut HeapScratch,
    mut emit: impl FnMut(Idx, S::Elem),
) {
    let bk = b.col_rows(j);
    let bv = b.col_vals(j);
    let HeapScratch { positions, heap } = scratch;
    positions.clear();
    positions.resize(bk.len(), 0);
    heap.clear();
    heap.extend(bk.iter().enumerate().filter_map(|(l, &k)| {
        let row = *a.col_rows(k as usize).first()?;
        Some(Cursor {
            row,
            list: l as u32,
        })
    }));

    let mut cur: Option<(Idx, S::Elem)> = None;
    while let Some(mut top) = heap.peek_mut() {
        let Cursor { row, list } = *top;
        let l = list as usize;
        let k = bk[l] as usize;
        let pos = positions[l];
        let contrib = S::mul(a.col_vals(k)[pos], bv[l]);
        cur = match cur {
            Some((r, acc)) if r == row => Some((r, S::add(acc, contrib))),
            Some((r, acc)) => {
                emit(r, acc);
                Some((row, contrib))
            }
            None => Some((row, contrib)),
        };
        // Advance the top cursor in place: one sift when the guard drops,
        // instead of a pop and a push.
        positions[l] = pos + 1;
        match a.col_rows(k).get(pos + 1) {
            Some(&next) => top.row = next,
            None => {
                PeekMut::pop(top);
            }
        }
    }
    if let Some((r, acc)) = cur {
        emit(r, acc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{dense_reference, random_csc};

    #[test]
    fn cursor_ordering_is_min_heap() {
        let mut h = std::collections::BinaryHeap::new();
        h.push(Cursor { row: 5, list: 0 });
        h.push(Cursor { row: 1, list: 1 });
        h.push(Cursor { row: 3, list: 2 });
        assert_eq!(h.pop().unwrap().row, 1);
        assert_eq!(h.pop().unwrap().row, 3);
        assert_eq!(h.pop().unwrap().row, 5);
    }

    #[test]
    fn identity_times_identity() {
        let i = Csc::<f64>::identity(6);
        assert_eq!(multiply(&i, &i), i);
    }

    #[test]
    fn matches_dense_reference_small() {
        let a = random_csc(9, 7, 25, 11);
        let b = random_csc(7, 5, 18, 22);
        let c = multiply(&a, &b);
        c.assert_valid();
        assert!(c.max_abs_diff(&dense_reference(&a, &b)) < 1e-9);
    }

    #[test]
    fn matches_dense_reference_square_dense() {
        let a = random_csc(12, 12, 120, 3);
        let c = multiply(&a, &a);
        c.assert_valid();
        assert!(c.max_abs_diff(&dense_reference(&a, &a)) < 1e-9);
    }

    #[test]
    fn empty_operands() {
        let a = Csc::<f64>::zero(4, 3);
        let b = Csc::<f64>::zero(3, 2);
        let c = multiply(&a, &b);
        assert_eq!(c.nnz(), 0);
        assert_eq!(c.nrows(), 4);
        assert_eq!(c.ncols(), 2);
    }

    #[test]
    fn rectangular_chain() {
        let a = random_csc(3, 20, 30, 5);
        let b = random_csc(20, 4, 30, 6);
        let c = multiply(&a, &b);
        assert!(c.max_abs_diff(&dense_reference(&a, &b)) < 1e-9);
    }
}
