//! `nsparse` analogue: binned hash-accumulation SpGEMM
//! (Nagasaka, Nukada, Matsuoka — ICPP 2017).
//!
//! nsparse's distinguishing moves are (1) grouping output rows into *bins*
//! by their flops so each bin runs a kernel with an appropriately sized
//! shared-memory hash table, and (2) accumulating products into that table
//! in `O(1)` per product. Both are reproduced on output columns (the rows
//! of `Cᵀ`): columns are binned by `ceil(lg flops)` and each bin is
//! processed as one parallel batch with tables sized for the bin's upper
//! bound. High-`cf` multiplications are where the table pays off — every
//! product after the first hit is a pure accumulate — which is why nsparse
//! dominates Fig. 4 at MCL densities.

use super::ColOut;
use hipmcl_sparse::{Csc, Semiring};
use hipmcl_spgemm::hash::HashScratch;
use rayon::prelude::*;
use std::ops::Range;

/// Assigns each column to a bin by `ceil(lg flops)`; bin `b` holds columns
/// with `flops ∈ (2^(b−1), 2^b]` (bin 0: flops ≤ 1). Returns
/// `bins[b] = positions in flops`.
fn bin_columns(flops: &[u64]) -> Vec<Vec<u32>> {
    let mut bins: Vec<Vec<u32>> = Vec::new();
    for (i, &f) in flops.iter().enumerate() {
        let b = if f <= 1 {
            0
        } else {
            (64 - (f - 1).leading_zeros()) as usize
        };
        if bins.len() <= b {
            bins.resize_with(b + 1, Vec::new);
        }
        bins[b].push(i as u32);
    }
    bins
}

/// Columns `cols` of `A · B` with binned hash accumulation, in the given
/// semiring. `flops` is `flops_per_column(a, b)`.
pub(crate) fn multiply_in<S: Semiring>(
    sr: S,
    a: &Csc<S::Elem>,
    b: &Csc<S::Elem>,
    cols: Range<usize>,
    flops: &[u64],
) -> Csc<S::Elem> {
    let bins = bin_columns(&flops[cols.clone()]);

    let mut out: Vec<ColOut<S::Elem>> = vec![(Vec::new(), Vec::new()); cols.len()];
    for (bin_id, bin) in bins.iter().enumerate() {
        if bin.is_empty() {
            continue;
        }
        // The bin's table: its flops bound, capped by a column's possible
        // rows — direct-addressed by row id when `nrows(A)` slots fit the
        // accumulator's budget, a hash table of `cap` keys otherwise.
        let cap = (1usize << bin_id).min(a.nrows());
        let outputs: Vec<(u32, ColOut<S::Elem>)> = bin
            .par_iter()
            .map_with(HashScratch::default(), |table, &i| {
                let j = cols.start + i as usize;
                table.open(cap, a.nrows());
                for (&k, &bv) in b.col_rows(j).iter().zip(b.col_vals(j)) {
                    let k = k as usize;
                    let scaled = a.col_vals(k).iter().map(|&av| S::mul(av, bv));
                    table.extend(sr, a.col_rows(k).iter().copied().zip(scaled));
                }
                let mut col = (vec![0; table.len()], vec![S::Elem::default(); table.len()]);
                table.drain_sorted_into(j, &mut col.0, &mut col.1);
                (i, col)
            })
            .collect();
        for (i, col) in outputs {
            out[i as usize] = col;
        }
    }
    Csc::from_columns(a.nrows(), out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipmcl_sparse::PlusTimes;
    use hipmcl_spgemm::testutil::random_csc;

    fn multiply(a: &Csc<f64>, b: &Csc<f64>) -> Csc<f64> {
        let flops = hipmcl_spgemm::flops_per_column(a, b);
        multiply_in(PlusTimes::<f64>::new(), a, b, 0..b.ncols(), &flops)
    }

    #[test]
    fn bin_columns_by_flops_magnitude() {
        let bins = bin_columns(&[0, 1, 2, 3, 4, 9, 1024]);
        assert_eq!(bins[0], vec![0, 1]); // flops <= 1
        assert_eq!(bins[1], vec![2]); // 2
        assert_eq!(bins[2], vec![3, 4]); // 3..4
        assert_eq!(bins[4], vec![5]); // 9 -> bin 4 (<=16)
        assert_eq!(bins[10], vec![6]); // 1024 -> bin 10
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
