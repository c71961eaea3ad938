//! `nsparse` analogue: binned hash-accumulation SpGEMM
//! (Nagasaka, Nukada, Matsuoka — ICPP 2017).
//!
//! nsparse's distinguishing moves are (1) grouping output rows into *bins*
//! by their flops so each bin runs a kernel with an appropriately sized
//! shared-memory hash table, and (2) accumulating products into that table
//! in `O(1)` per product. Both are reproduced: rows are binned by
//! `ceil(lg flops)` and each bin is processed as one parallel batch with
//! tables sized for the bin's upper bound. High-`cf` multiplications are
//! where the table pays off — every product after the first hit is a pure
//! accumulate — which is why nsparse dominates Fig. 4 at MCL densities.

use super::{build_csr_from_rows, row_flops, RowOut};
use hipmcl_sparse::{Csr, PlusTimes, Semiring, Value};
use hipmcl_spgemm::hash::HashScratch;
use rayon::prelude::*;

/// Assigns each row to a bin by `ceil(lg flops)`; bin `b` holds rows with
/// `flops ∈ (2^(b−1), 2^b]` (bin 0: flops ≤ 1). Returns `bins[b] = rows`.
pub(crate) fn bin_rows(flops: &[u64]) -> Vec<Vec<u32>> {
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

/// Multiplies `C = A · B` (CSR) with binned hash accumulation, in the
/// given semiring.
pub fn multiply_in<S: Semiring>(sr: S, a: &Csr<S::Elem>, b: &Csr<S::Elem>) -> Csr<S::Elem> {
    let flops = row_flops(a, b);
    let bins = bin_rows(&flops);

    let mut rows: Vec<RowOut<S::Elem>> = vec![(Vec::new(), Vec::new()); a.nrows()];
    for (bin_id, bin) in bins.iter().enumerate() {
        if bin.is_empty() {
            continue;
        }
        // The bin's table: its flops bound, capped by a row's possible
        // columns — direct-addressed by column id when `ncols(B)` slots fit
        // the accumulator's budget, a hash table of `cap` keys otherwise.
        let cap = (1usize << bin_id).min(b.ncols());
        let outputs: Vec<(u32, RowOut<S::Elem>)> = bin
            .par_iter()
            .map_with(HashScratch::default(), |table, &i| {
                let i = i as usize;
                table.open(cap, b.ncols());
                for (&k, &av) in a.row_cols(i).iter().zip(a.row_vals(i)) {
                    let k = k as usize;
                    let scaled = b.row_vals(k).iter().map(|&bv| S::mul(av, bv));
                    table.extend(sr, b.row_cols(k).iter().copied().zip(scaled));
                }
                let mut out = (vec![0; table.len()], vec![S::Elem::default(); table.len()]);
                // Row-wise here: a failed assert's "column {i}" is row `i`.
                table.drain_sorted_into(i, &mut out.0, &mut out.1);
                (i as u32, out)
            })
            .collect();
        for (i, out) in outputs {
            rows[i as usize] = out;
        }
    }
    build_csr_from_rows(a.nrows(), b.ncols(), rows)
}

/// [`multiply_in`] with the plus-times semiring.
pub fn multiply<T: Value>(a: &Csr<T>, b: &Csr<T>) -> Csr<T>
where
    PlusTimes<T>: Semiring<Elem = T>,
{
    multiply_in(PlusTimes::new(), a, b)
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{random_csr, reference_csr};
    use super::*;

    #[test]
    fn bin_rows_by_flops_magnitude() {
        let bins = bin_rows(&[0, 1, 2, 3, 4, 9, 1024]);
        assert_eq!(bins[0], vec![0, 1]); // flops <= 1
        assert_eq!(bins[1], vec![2]); // 2
        assert_eq!(bins[2], vec![3, 4]); // 3..4
        assert_eq!(bins[4], vec![5]); // 9 -> bin 4 (<=16)
        assert_eq!(bins[10], vec![6]); // 1024 -> bin 10
    }

    #[test]
    fn matches_reference() {
        let a = random_csr(18, 14, 90, 6);
        let b = random_csr(14, 16, 80, 7);
        let got = multiply(&a, &b);
        let want = reference_csr(&a, &b);
        got.assert_valid();
        assert_eq!(got.rowptr, want.rowptr);
        assert_eq!(got.colidx, want.colidx);
    }

    #[test]
    fn dense_square_matches() {
        let a = random_csr(12, 12, 144, 8);
        let got = multiply(&a, &a);
        let want = reference_csr(&a, &a);
        let diff: f64 = got
            .vals
            .iter()
            .zip(&want.vals)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max);
        assert!(diff < 1e-9);
    }
}
