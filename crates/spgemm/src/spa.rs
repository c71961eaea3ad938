//! Sparse-accumulator (SPA) SpGEMM — the classic Gilbert–Moler–Schreiber
//! formulation used by MATLAB and by Patwary et al. on multicore.
//!
//! A dense value array of length `nrows(A)` per worker, written directly by
//! row id: the workspace's one accumulator ([`crate::hash::HashScratch`])
//! with [`Addressing::Direct`] forced, whatever `nrows(A)` is. The fastest
//! accumulator while that array stays cache-resident — which is when the
//! hash kernel picks direct addressing by itself — and memory-hungry for
//! the large hypersparse blocks of distributed MCL, which is why HipMCL
//! prefers heaps/hashes. Kept as the third candidate of the selection
//! benchmarks.

use crate::hash::{multiply_as, Addressing};
use hipmcl_sparse::{Csc, PlusTimes, Semiring, Value};

/// Multiplies `C = A · B` with a dense sparse accumulator per worker, in
/// the given semiring: the one-pass hash kernel, direct-addressed.
pub fn multiply_in<S: Semiring>(sr: S, a: &Csc<S::Elem>, b: &Csc<S::Elem>) -> Csc<S::Elem> {
    let fpc = crate::analysis::flops_per_column(a, b);
    multiply_as(Addressing::Direct, sr, a, b, &fpc)
}

/// [`multiply_in`] with the numeric plus-times semiring — MCL's default.
pub fn multiply<T: Value>(a: &Csc<T>, b: &Csc<T>) -> Csc<T>
where
    PlusTimes<T>: Semiring<Elem = T>,
{
    multiply_in(PlusTimes::new(), a, b)
}
