//! Rust re-implementations of the three GPU SpGEMM libraries' algorithmic
//! cores (§III):
//!
//! * [`esc`] — `bhsparse` (Liu & Vinter 2014): expand–sort–compress.
//! * [`hashgpu`] — `nsparse` (Nagasaka et al. 2017): rows binned by flops,
//!   per-row hash accumulation.
//! * [`rowmerge`] — `rmerge2` (Gremse et al. 2018): iterative pairwise
//!   merging of scaled rows.
//!
//! The CUDA originals are row-parallel over CSR. A CSC matrix *is* its
//! transpose in CSR (§III-B), so the paper feeds them `Cᵀ = Bᵀ·Aᵀ` with no
//! conversion; here the same algorithms are simply written column-parallel
//! over CSC — "row `j` of `Cᵀ`" is column `j` of `C` — and the trick costs
//! nothing, not even a type. Every kernel builds output column `j` by
//! folding `a_ik ⊗ b_kj` over `B_{*j}` in ascending position and each
//! `A_{*k}` in row order: the CPU kernels' operand order.

pub mod esc;
pub mod hashgpu;
pub mod rowmerge;

use hipmcl_comm::GpuLib;
use hipmcl_sparse::{Csc, PlusTimes, Semiring, Value};
use hipmcl_spgemm::emit::{Emit, Push};
use std::ops::Range;

/// Columns `cols` of `A · B` on the chosen library analogue, in the given
/// semiring, each handed to `emit` as it is finished, into an `nrows(A) ×
/// cols.len()` matrix (the product itself under [`Push`]). `flops` is
/// `flops_per_column(a, b)`; it also sizes the output before a column is
/// computed: the output reserves what `emit` keeps of the bound
/// `Σ min(flops_j, nrows)` (address space until written) and is trimmed
/// when done.
pub(crate) fn multiply_cols_in<S: Semiring, E: Emit<S::Elem>>(
    s: S,
    a: &Csc<S::Elem>,
    b: &Csc<S::Elem>,
    cols: Range<usize>,
    flops: &[u64],
    lib: GpuLib,
    emit: E,
) -> Csc<S::Elem> {
    let reserve = hipmcl_spgemm::emit::reserve(&emit, cols.clone(), flops, a.nrows());
    match lib {
        GpuLib::Bhsparse => esc::multiply_in(s, a, b, cols, reserve, emit),
        GpuLib::Nsparse => hashgpu::multiply_in(s, a, b, cols, flops, reserve, emit),
        GpuLib::Rmerge2 => rowmerge::multiply_in(s, a, b, cols, reserve, emit),
    }
}

/// Multiplies CSC matrices with the chosen library analogue, in the given
/// semiring.
pub fn multiply_csc_in<S: Semiring>(
    s: S,
    a: &Csc<S::Elem>,
    b: &Csc<S::Elem>,
    lib: GpuLib,
) -> Csc<S::Elem> {
    let flops = hipmcl_spgemm::flops_per_column(a, b);
    multiply_cols_in(s, a, b, 0..b.ncols(), &flops, lib, Push)
}

/// [`multiply_csc_in`] with the plus-times semiring.
pub fn multiply_csc<T: Value>(a: &Csc<T>, b: &Csc<T>, lib: GpuLib) -> Csc<T>
where
    PlusTimes<T>: Semiring<Elem = T>,
{
    multiply_csc_in(PlusTimes::new(), a, b, lib)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipmcl_spgemm::testutil::random_csc;

    #[test]
    fn all_libs_match_cpu_kernel() {
        let square = random_csc(25, 25, 200, 7);
        let (a, b) = (random_csc(20, 15, 80, 2), random_csc(15, 18, 70, 3));
        for (a, b) in [(&square, &square), (&a, &b)] {
            let want = hipmcl_spgemm::hash::multiply(a, b);
            for lib in GpuLib::all() {
                let got = multiply_csc(a, b, lib);
                got.assert_valid();
                assert_eq!(got.colptr, want.colptr, "{} pattern", lib.name());
                assert_eq!(got.rowidx, want.rowidx, "{} pattern", lib.name());
                assert!(got.max_abs_diff(&want) < 1e-9, "{} values", lib.name());
            }
        }
    }

    #[test]
    fn every_lib_hands_each_column_of_its_range_to_the_emit_by_index() {
        use hipmcl_spgemm::emit::{counters, Counted};
        use std::sync::atomic::Ordering::Relaxed;
        let (a, b) = (random_csc(20, 15, 80, 2), random_csc(15, 18, 70, 3));
        let fpc = hipmcl_spgemm::flops_per_column(&a, &b);
        let cols = 4..b.ncols();
        for lib in GpuLib::all() {
            let want = multiply_csc(&a, &b, lib);
            let counts = counters(b.ncols());
            let emit = Counted::new(Push, &counts);
            let s = PlusTimes::<f64>::new();
            let got = multiply_cols_in(s, &a, &b, cols.clone(), &fpc, lib, emit);
            assert_eq!(got, want.column_slice(cols.clone()), "{}", lib.name());
            for (j, count) in counts.iter().enumerate() {
                let n = if cols.contains(&j) {
                    want.col_nnz(j)
                } else {
                    0
                };
                assert_eq!(count.load(Relaxed), n, "{} column {j}", lib.name());
            }
        }
    }

    #[test]
    fn empty_product_all_libs() {
        let a = Csc::<f64>::zero(4, 4);
        for lib in GpuLib::all() {
            assert_eq!(multiply_csc(&a, &a, lib), a);
        }
    }
}
