//! `nsparse` analogue: binned hash-accumulation SpGEMM
//! (Nagasaka, Nukada, Matsuoka — ICPP 2017).
//!
//! nsparse's distinguishing moves are (1) grouping output rows into *bins*
//! by their flops so each bin runs a kernel with an appropriately sized
//! shared-memory hash table, and (2) accumulating products into that table
//! in `O(1)` per product. Both are reproduced on output columns (the rows
//! of `Cᵀ`): a column belongs to bin `ceil(lg flops)` and opens its table
//! at the bin's upper bound. The bins only size tables; the columns run in
//! column order, so the product is written where it stays. High-`cf`
//! multiplications are where the table pays off — every product after the
//! first hit is a pure accumulate — which is why nsparse dominates Fig. 4
//! at MCL densities.

use hipmcl_sparse::{Csc, Semiring};
use hipmcl_spgemm::emit::Emit;
use hipmcl_spgemm::hash::{self, HashScratch};
use std::ops::Range;

/// The table size of a column's bin: bin `b` holds columns with
/// `flops ∈ (2^(b−1), 2^b]` (bin 0: flops ≤ 1) and sizes them for `2^b`.
fn bin_bound(flops: u64) -> usize {
    flops.max(1).next_power_of_two() as usize
}

/// Columns `cols` of `A · B` with binned hash accumulation, in the given
/// semiring: the host hash kernel's column loop with each column's table
/// opened at its bin's bound and handed to `emit`. `flops` is
/// `flops_per_column(a, b)`; `reserve` sizes the output.
pub(crate) fn multiply_in<S: Semiring, E: Emit<S::Elem>>(
    sr: S,
    a: &Csc<S::Elem>,
    b: &Csc<S::Elem>,
    cols: Range<usize>,
    flops: &[u64],
    reserve: usize,
    mut emit: E,
) -> Csc<S::Elem> {
    let nrows = a.nrows();
    let open = |table: &mut HashScratch<S::Elem>, j: usize| {
        // The bin's table: its flops bound, capped by a column's possible
        // rows — direct-addressed by row id when `nrows(A)` slots fit the
        // accumulator's budget, a hash table of that many keys otherwise.
        table.open(bin_bound(flops[j]).min(nrows), nrows)
    };
    let mut buf = (Vec::new(), Vec::new());
    hash::multiply_cols_with(sr, a, b, cols, reserve, open, move |table, j, out| {
        emit.emit_table(table, j, out, &mut buf)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipmcl_sparse::PlusTimes;
    use hipmcl_spgemm::emit::Push;
    use hipmcl_spgemm::testutil::random_csc;

    fn multiply(a: &Csc<f64>, b: &Csc<f64>) -> Csc<f64> {
        let flops = hipmcl_spgemm::flops_per_column(a, b);
        multiply_in(PlusTimes::<f64>::new(), a, b, 0..b.ncols(), &flops, 0, Push)
    }

    #[test]
    fn bins_by_flops_magnitude() {
        let bounds = [0, 1, 2, 3, 4, 9, 1024, 1025].map(bin_bound);
        assert_eq!(bounds, [1, 1, 2, 4, 4, 16, 1024, 2048]);
    }

    #[test]
    fn matches_reference() {
        let a = random_csc(18, 14, 90, 6);
        let b = random_csc(14, 16, 80, 7);
        let got = multiply(&a, &b);
        let want = hipmcl_spgemm::hash::multiply(&a, &b);
        got.assert_valid();
        assert_eq!(got.colptr, want.colptr);
        assert_eq!(got.rowidx, want.rowidx);
    }

    #[test]
    fn dense_square_matches() {
        let a = random_csc(12, 12, 144, 8);
        let want = hipmcl_spgemm::hash::multiply(&a, &a);
        assert!(multiply(&a, &a).max_abs_diff(&want) < 1e-9);
    }
}
