//! Rust re-implementations of the three GPU SpGEMM libraries' algorithmic
//! cores (§III). All are row-parallel over CSR, like their CUDA originals:
//!
//! * [`esc`] — `bhsparse` (Liu & Vinter 2014): expand–sort–compress.
//! * [`hashgpu`] — `nsparse` (Nagasaka et al. 2017): rows binned by flops,
//!   per-row hash accumulation.
//! * [`rowmerge`] — `rmerge2` (Gremse et al. 2018): iterative pairwise
//!   merging of scaled rows.
//!
//! [`multiply_csc`] adapts any of them to HipMCL's CSC world through the
//! §III-B transpose trick (`Cᵀ = Bᵀ·Aᵀ`), with zero format conversion.

pub mod esc;
pub mod hashgpu;
pub mod rowmerge;

use hipmcl_comm::GpuLib;
use hipmcl_sparse::csc::counts_to_colptr;
use hipmcl_sparse::{Csc, Csr, Idx, PlusTimes, Semiring, Value};

/// A materialized output row: `(cols, vals)`, sorted by column.
pub(crate) type RowOut<T> = (Vec<Idx>, Vec<T>);

/// Assembles per-row outputs into a CSR matrix.
pub(crate) fn build_csr_from_rows<T: Value>(
    nrows: usize,
    ncols: usize,
    rows: Vec<RowOut<T>>,
) -> Csr<T> {
    debug_assert_eq!(rows.len(), nrows);
    let counts: Vec<usize> = rows.iter().map(|(c, _)| c.len()).collect();
    let rowptr = counts_to_colptr(&counts);
    let nnz = rowptr[nrows];
    let mut colidx = Vec::with_capacity(nnz);
    let mut vals = Vec::with_capacity(nnz);
    for (c, v) in rows {
        colidx.extend_from_slice(&c);
        vals.extend_from_slice(&v);
    }
    Csr::from_parts(nrows, ncols, rowptr, colidx, vals)
}

/// Per-row flops of `A·B` in CSR orientation:
/// `flops(i) = Σ_{k ∈ A_{i*}} nnz(B_{k*})`.
pub(crate) fn row_flops<T: Value>(a: &Csr<T>, b: &Csr<T>) -> Vec<u64> {
    use rayon::prelude::*;
    (0..a.nrows())
        .into_par_iter()
        .map(|i| {
            a.row_cols(i)
                .iter()
                .map(|&k| b.row_nnz(k as usize) as u64)
                .sum()
        })
        .collect()
}

/// Multiplies CSR matrices with the chosen library analogue, in the given
/// semiring.
pub fn multiply_csr_in<S: Semiring>(
    s: S,
    a: &Csr<S::Elem>,
    b: &Csr<S::Elem>,
    lib: GpuLib,
) -> Csr<S::Elem> {
    assert_eq!(a.ncols(), b.nrows(), "inner dimensions must agree");
    match lib {
        GpuLib::Bhsparse => esc::multiply_in(s, a, b),
        GpuLib::Nsparse => hashgpu::multiply_in(s, a, b),
        GpuLib::Rmerge2 => rowmerge::multiply_in(s, a, b),
    }
}

/// [`multiply_csr_in`] with the plus-times semiring.
pub fn multiply_csr<T: Value>(a: &Csr<T>, b: &Csr<T>, lib: GpuLib) -> Csr<T>
where
    PlusTimes<T>: Semiring<Elem = T>,
{
    multiply_csr_in(PlusTimes::new(), a, b, lib)
}

/// Multiplies CSC matrices on a "GPU" kernel without format conversion:
/// a CSC matrix *is* its transpose in CSR, so `C = A·B` (all CSC) is
/// computed as `Cᵀ = Bᵀ·Aᵀ` (all CSR) and reinterpreted back (§III-B).
pub fn multiply_csc_in<S: Semiring>(
    s: S,
    a: &Csc<S::Elem>,
    b: &Csc<S::Elem>,
    lib: GpuLib,
) -> Csc<S::Elem> {
    let at = Csr::from_csc_transpose(a.clone()); // Aᵀ in CSR, zero work
    multiply_csc_with_at_in(s, &at, b.clone(), lib)
}

/// [`multiply_csc_in`] with `Aᵀ` already reinterpreted and `B` owned, so a
/// launch that splits `B` across devices stages `A` once and moves each
/// slab instead of copying it again.
pub(crate) fn multiply_csc_with_at_in<S: Semiring>(
    s: S,
    at: &Csr<S::Elem>,
    b: Csc<S::Elem>,
    lib: GpuLib,
) -> Csc<S::Elem> {
    let bt = Csr::from_csc_transpose(b); // Bᵀ in CSR
    let ct = multiply_csr_in(s, &bt, at, lib); // Cᵀ = Bᵀ·Aᵀ
    ct.into_csc_transpose()
}

/// [`multiply_csc_in`] with the plus-times semiring.
pub fn multiply_csc<T: Value>(a: &Csc<T>, b: &Csc<T>, lib: GpuLib) -> Csc<T>
where
    PlusTimes<T>: Semiring<Elem = T>,
{
    multiply_csc_in(PlusTimes::new(), a, b, lib)
}

#[cfg(test)]
pub(crate) mod testutil {
    use hipmcl_sparse::{Csc, Csr, Idx, Triples};
    use rand::{Rng, SeedableRng};

    pub fn random_csr(m: usize, n: usize, nnz: usize, seed: u64) -> Csr<f64> {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let mut t = Triples::new(m, n);
        for _ in 0..nnz {
            t.push(
                rng.gen_range(0..m) as Idx,
                rng.gen_range(0..n) as Idx,
                rng.gen_range(0.5..1.5),
            );
        }
        Csr::from_csc(&Csc::from_triples(&t))
    }

    /// Reference product via the (already validated) CPU hash kernel.
    pub fn reference_csr(a: &Csr<f64>, b: &Csr<f64>) -> Csr<f64> {
        let c = hipmcl_spgemm::hash::multiply(&a.to_csc(), &b.to_csc());
        Csr::from_csc(&c)
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::{random_csr, reference_csr};
    use super::*;
    use hipmcl_spgemm::testutil::random_csc;

    #[test]
    fn row_flops_counts() {
        let a = random_csr(10, 10, 30, 1);
        let f = row_flops(&a, &a);
        assert_eq!(f.len(), 10);
        let manual: u64 = (0..10)
            .map(|i| {
                a.row_cols(i)
                    .iter()
                    .map(|&k| a.row_nnz(k as usize) as u64)
                    .sum::<u64>()
            })
            .sum();
        assert_eq!(f.iter().sum::<u64>(), manual);
    }

    #[test]
    fn all_libs_match_reference_csr() {
        let a = random_csr(20, 15, 80, 2);
        let b = random_csr(15, 18, 70, 3);
        let want = reference_csr(&a, &b);
        for lib in GpuLib::all() {
            let got = multiply_csr(&a, &b, lib);
            got.assert_valid();
            assert_eq!(got.rowptr, want.rowptr, "{} pattern", lib.name());
            assert_eq!(got.colidx, want.colidx, "{} pattern", lib.name());
            let diff: f64 = got
                .vals
                .iter()
                .zip(&want.vals)
                .map(|(x, y)| (x - y).abs())
                .fold(0.0, f64::max);
            assert!(diff < 1e-9, "{} values", lib.name());
        }
    }

    #[test]
    fn csc_wrapper_matches_cpu_kernel() {
        let a = random_csc(25, 25, 200, 7);
        let want = hipmcl_spgemm::hash::multiply(&a, &a);
        for lib in GpuLib::all() {
            let got = multiply_csc(&a, &a, lib);
            got.assert_valid();
            assert!(got.max_abs_diff(&want) < 1e-9, "{}", lib.name());
            assert_eq!(got.nnz(), want.nnz(), "{}", lib.name());
        }
    }

    #[test]
    fn empty_product_all_libs() {
        let a = Csr::<f64>::zero(4, 4);
        for lib in GpuLib::all() {
            assert_eq!(multiply_csr(&a, &a, lib).nnz(), 0);
        }
    }

    #[test]
    fn build_csr_from_rows_assembles() {
        let rows = vec![
            (vec![1, 3], vec![1.0, 2.0]),
            (vec![], vec![]),
            (vec![0], vec![5.0]),
        ];
        let m = build_csr_from_rows(3, 4, rows);
        m.assert_valid();
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.row_cols(0), &[1, 3]);
        assert_eq!(m.row_vals(2), &[5.0]);
    }
}
