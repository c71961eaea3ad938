//! Exact symbolic SpGEMM: the size of `A·B`, or of a sum `Σ_t A_t·B_t`,
//! without materializing values or structure.
//!
//! This is the *exact* memory estimator of original HipMCL (§V): it costs
//! `O(flops)` — as much arithmetic as the numeric multiply minus the value
//! work — which is why the paper replaces it with Cohen's probabilistic
//! estimator for high-`cf` iterations and keeps it only when `cf` is small.
//! The distributed estimator (`summa::estimate`) runs [`sum_counts`] over a
//! rank's SUMMA panels: the rank's output block is the sum of its stage
//! products, and its output columns are independent (arXiv:2112.10223), so
//! one traversal per column counts every stage product and their union at
//! once — the symbolic phase of hash SpGEMM (arXiv:1804.01698) over all
//! stages, with no stage product built.

use crate::hash::Stamps;
use hipmcl_sparse::{Csc, Pattern, Value};
use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Exact `nnz(A·B)` per output column: [`sum_counts`]' column step with
/// one term, `O(flops)` time and one byte per row per worker.
pub fn output_counts<T: Value>(a: &Csc<T>, b: &Csc<T>) -> Vec<usize> {
    assert_eq!(a.ncols(), b.nrows(), "inner dimensions must agree");
    (0..b.ncols())
        .into_par_iter()
        .map_with(Stamps::default(), |stamps, j| {
            let columns = b.col_rows(j).iter().map(|&k| a.col_rows(k as usize));
            stamps.count_terms(a.nrows(), std::iter::once(columns), &mut [0])
        })
        .collect()
}

/// Exact `nnz(A·B)`.
pub fn output_nnz<T: Value>(a: &Csc<T>, b: &Csc<T>) -> u64 {
    output_counts(a, b).iter().map(|&c| c as u64).sum()
}

/// Exact sizes of a sum of products `Σ_t A_t·B_t`, whatever the semiring
/// (no entry is ever dropped as zero).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SumCounts {
    /// `nnz(A_t·B_t)` of every term, in order.
    pub terms: Vec<u64>,
    /// `nnz(Σ_t A_t·B_t)`, the union of the terms' structures.
    pub union: u64,
}

/// [`SumCounts`] of the terms `(A_t, B_t)`, which share `nrows(A_t)` and
/// `ncols(B_t)`: one traversal of each output column's products, stamped
/// per row, no values read, `O(flops)` time and one byte per row per
/// worker. Panics on mismatched shapes or 255 terms or more.
pub fn sum_counts(terms: &[(Pattern<'_>, Pattern<'_>)]) -> SumCounts {
    let Some((a0, b0)) = terms.first() else {
        return SumCounts::default();
    };
    let (nrows, ncols) = (a0.nrows, b0.ncols());
    for (a, b) in terms {
        assert_eq!((a.nrows, b.ncols()), (nrows, ncols), "terms of one shape");
        assert_eq!(a.ncols(), b.nrows, "inner dimensions must agree");
    }
    let per_term: Vec<AtomicU64> = terms.iter().map(|_| AtomicU64::new(0)).collect();
    let scratch = (Stamps::default(), vec![0; terms.len()]);
    let union = (0..ncols)
        .into_par_iter()
        .map_with(scratch, |(stamps, counts), j| {
            counts.fill(0);
            let columns =
                (terms.iter()).map(|(a, b)| b.col_rows(j).iter().map(|&k| a.col_rows(k as usize)));
            let union = stamps.count_terms(nrows, columns, counts);
            for (total, &c) in per_term.iter().zip(counts.iter()) {
                total.fetch_add(c as u64, Relaxed);
            }
            union as u64
        })
        .sum();
    SumCounts {
        terms: per_term.into_iter().map(AtomicU64::into_inner).collect(),
        union,
    }
}

/// CSC memory footprint for a given `nnz` and column count (f64 values,
/// u32 row indices, usize column pointers).
pub fn csc_bytes(nnz: u64, ncols: u64) -> u64 {
    nnz * (std::mem::size_of::<f64>() as u64 + std::mem::size_of::<hipmcl_sparse::Idx>() as u64)
        + (ncols + 1) * std::mem::size_of::<usize>() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::random_csc;

    #[test]
    fn counts_match_numeric_product() {
        let a = random_csc(18, 18, 90, 77);
        let c = crate::hash::multiply(&a, &a);
        assert_eq!(output_nnz(&a, &a), c.nnz() as u64);
        let counts = output_counts(&a, &a);
        for (j, &cnt) in counts.iter().enumerate() {
            assert_eq!(cnt, c.col_nnz(j));
        }
    }

    #[test]
    fn bytes_formula() {
        assert_eq!(csc_bytes(0, 0), 8);
        assert_eq!(csc_bytes(10, 4), 10 * 12 + 5 * 8);
    }

    #[test]
    fn identity_output_counts() {
        let i = Csc::<f64>::identity(7);
        assert_eq!(output_counts(&i, &i), vec![1; 7]);
    }
}
