//! Exact symbolic SpGEMM: the structure (or just the size) of `A·B` without
//! materializing values.
//!
//! This is the *exact* memory estimator of original HipMCL (§V): it costs
//! `O(flops)` — as much arithmetic as the numeric multiply minus the value
//! work — which is why the paper replaces it with Cohen's probabilistic
//! estimator for high-`cf` iterations and keeps it only when `cf` is small.

use hipmcl_sparse::{Csc, Value};

/// Exact `nnz(A·B)` per output column. Hash-based, `O(flops)` total.
pub fn output_counts<T: Value>(a: &Csc<T>, b: &Csc<T>) -> Vec<usize> {
    crate::hash::symbolic_counts(a, b)
}

/// Exact `nnz(A·B)`.
pub fn output_nnz<T: Value>(a: &Csc<T>, b: &Csc<T>) -> u64 {
    output_counts(a, b).iter().map(|&c| c as u64).sum()
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
