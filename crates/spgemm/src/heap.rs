//! Heap-assisted column-by-column SpGEMM — the kernel of *original* HipMCL.
//!
//! For each output column `C_{*j}`, a priority structure holds the head of
//! one list per column `A_{*k}` with `k ∈ inds(B_{*j})`. Taking the minimum
//! row index merges the scaled columns in sorted order while accumulating
//! duplicates; the output column is produced already sorted, with no
//! accumulator table. Work is `O(flops · lg nnz(B_{*j}))` — excellent when
//! columns of `B` are short (≈10 nonzeros, sparse graph processing), but at
//! MCL densities (≈1000 nonzeros per column) every product pays `lg k`
//! dependent comparisons, which is what §VI replaces with hash accumulation.
//!
//! The priority structure is a tournament tree over packed `(row, list)`
//! keys ([`Tournament`]): the same comparisons as a binary heap's sift,
//! without its data-dependent branches. Its measured rates against the
//! hash kernel: DESIGN.md, "Local SpGEMM: the one-pass contract".

use crate::analysis::flops_per_column;
use crate::emit::{Emit, Push};
use hipmcl_sparse::util::Tournament;
use hipmcl_sparse::{Csc, CscBuilder, PlusTimes, Semiring, Value};
use std::ops::Range;

/// Multiplies `C = A · B` with heap accumulation in the given semiring,
/// column-parallel, in one pass: each output column merges the scaled
/// A-columns selected by `B_{*j}` through the worker's tournament into the
/// worker's column buffer and is appended to a [`CscBuilder`] that
/// reserved the product's bound `Σ_j min(flops_j, nrows)` (every column's
/// `Push` through `multiply_cols_in`). Rows arrive in
/// increasing order and equal rows in ascending list order, so each entry
/// folds its products in ascending position within `B_{*j}`.
pub fn multiply_in<S: Semiring>(s: S, a: &Csc<S::Elem>, b: &Csc<S::Elem>) -> Csc<S::Elem> {
    multiply_cols_in(s, a, b, 0..b.ncols(), &flops_per_column(a, b), Push)
}

/// Columns `cols` of `A · B`, each handed to `emit` as it is finished,
/// with room reserved for what `emit` keeps of the bound `min(flops_j,
/// nrows)`. `fpc` is `flops_per_column(a, b)`.
pub(crate) fn multiply_cols_in<S: Semiring, E: Emit<S::Elem>>(
    _s: S,
    a: &Csc<S::Elem>,
    b: &Csc<S::Elem>,
    cols: Range<usize>,
    fpc: &[u64],
    emit: E,
) -> Csc<S::Elem> {
    let reserve = crate::emit::reserve(&emit, cols.clone(), fpc, a.nrows());
    CscBuilder::build(
        a.nrows(),
        cols.len(),
        reserve,
        (Tournament::default(), Vec::new(), Vec::new(), emit),
        |(tournament, rows, vals, emit), j, out| {
            let j = cols.start + j;
            let bv = b.col_vals(j);
            let lists = b.col_rows(j).iter().map(|&k| {
                let k = k as usize;
                (a.colptr[k], a.colptr[k + 1])
            });
            rows.clear();
            vals.clear();
            tournament.merge(
                lists,
                |_, pos| a.rowidx[pos],
                |row, l, pos| {
                    let product = S::mul(a.vals[pos], bv[l]);
                    if rows.last() == Some(&row) {
                        let acc = vals.last_mut().expect("rows and vals grow together");
                        *acc = S::add(*acc, product);
                    } else {
                        rows.push(row);
                        vals.push(product);
                    }
                },
            );
            emit.emit(j, rows, vals, out);
        },
    )
}

/// [`multiply_in`] with the numeric plus-times semiring — MCL's default.
pub fn multiply<T: Value>(a: &Csc<T>, b: &Csc<T>) -> Csc<T>
where
    PlusTimes<T>: Semiring<Elem = T>,
{
    multiply_in(PlusTimes::new(), a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{dense_reference, random_csc};

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
