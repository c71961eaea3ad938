//! Multiplication analysis: `flops`, per-column `flops`, and the
//! compression factor `cf = flops / nnz(C)` that drives kernel selection.
//!
//! Notation follows the paper: `flops(AB) = Σ_j Σ_{i ∈ inds(B_{*j})}
//! nnz(A_{*i})` counts the nontrivial multiply-adds; `cf` measures how much
//! accumulation collapses them into output entries.

use hipmcl_sparse::{Csc, Value};
use rayon::prelude::*;

/// Number of nontrivial scalar multiplications in `A · B`.
///
/// This is the exact arithmetic work of any Gustavson-style SpGEMM and is
/// `O(nnz(B))` to compute — cheap enough to evaluate before every local
/// multiplication for kernel selection.
pub fn flops<T: Value, U: Value>(a: &Csc<T>, b: &Csc<U>) -> u64 {
    flops_per_column(a, b).iter().sum()
}

/// Per-output-column `flops`, used to size hash tables and to split phases.
pub fn flops_per_column<T: Value, U: Value>(a: &Csc<T>, b: &Csc<U>) -> Vec<u64> {
    assert_eq!(a.ncols(), b.nrows(), "inner dimensions must agree");
    let col_nnz_a: Vec<u64> = (0..a.ncols()).map(|k| a.col_nnz(k) as u64).collect();
    (0..b.ncols())
        .into_par_iter()
        .map(|j| {
            b.col_rows(j)
                .iter()
                .map(|&k| col_nnz_a[k as usize])
                .sum::<u64>()
        })
        .collect()
}

/// Summary of one multiplication instance, as consumed by the hybrid
/// selector and the machine model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MultAnalysis {
    /// Nontrivial multiply count.
    pub flops: u64,
    /// Output nonzero count (exact or estimated, depending on provenance).
    pub nnz_out: u64,
}

impl MultAnalysis {
    /// Compression factor `flops / nnz(C)`. Two empty-output cases are
    /// distinguished: zero flops means nothing happened (cf = 1, by
    /// convention), while positive flops with an empty output means every
    /// partial product cancelled — compression is infinite, and the
    /// dispatch comparison must see it on the high-cf (hash) side rather
    /// than defaulting into the heap regime.
    pub fn cf(&self) -> f64 {
        match (self.nnz_out, self.flops) {
            (0, 0) => 1.0,
            (0, _) => f64::INFINITY,
            (nnz, f) => f as f64 / nnz as f64,
        }
    }
}

/// Upper bound on `nnz` of the output columns whose flops are `fpc`, in a
/// product with `nrows` rows: a column holds at most its flops and at most
/// every row, `Σ_j min(flops_j, nrows)`. What the one-pass kernels reserve
/// for a product before they compute it.
pub fn nnz_bound(fpc: &[u64], nrows: usize) -> usize {
    fpc.iter().map(|&f| (f as usize).min(nrows)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipmcl_sparse::Triples;

    fn ab() -> (Csc<f64>, Csc<f64>) {
        // A: 3x3 with cols of nnz 2,1,0 ; B: 3x2
        let mut ta = Triples::new(3, 3);
        ta.push(0, 0, 1.0);
        ta.push(2, 0, 1.0);
        ta.push(1, 1, 1.0);
        let mut tb = Triples::new(3, 2);
        tb.push(0, 0, 1.0); // col0 of B hits A col0 (nnz 2)
        tb.push(1, 0, 1.0); // and A col1 (nnz 1)
        tb.push(2, 1, 1.0); // col1 hits A col2 (nnz 0)
        (Csc::from_triples(&ta), Csc::from_triples(&tb))
    }

    #[test]
    fn flops_counts_nontrivial_products() {
        let (a, b) = ab();
        assert_eq!(flops(&a, &b), 3);
        assert_eq!(flops_per_column(&a, &b), vec![3, 0]);
    }

    #[test]
    fn flops_of_identity_square() {
        let i = Csc::<f64>::identity(5);
        assert_eq!(flops(&i, &i), 5);
    }

    #[test]
    fn cf_convention() {
        assert_eq!(
            MultAnalysis {
                flops: 12,
                nnz_out: 4
            }
            .cf(),
            3.0
        );
        assert_eq!(
            MultAnalysis {
                flops: 0,
                nnz_out: 0
            }
            .cf(),
            1.0
        );
        // Positive flops, empty output: all products cancelled, so the
        // compression factor is infinite (not 1.0 — the old convention
        // misrouted Auto dispatch toward the heap).
        assert_eq!(
            MultAnalysis {
                flops: 12,
                nnz_out: 0
            }
            .cf(),
            f64::INFINITY
        );
    }

    #[test]
    fn the_bound_caps_each_column_at_its_flops_and_at_every_row() {
        assert_eq!(nnz_bound(&[0, 2, 3, 9], 3), 2 + 3 + 3);
        assert_eq!(nnz_bound(&[], 3), 0);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn dimension_mismatch_panics() {
        let a = Csc::<f64>::identity(3);
        let b = Csc::<f64>::identity(4);
        let _ = flops(&a, &b);
    }
}
