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

use crate::hash::{multiply_with_counts_as, symbolic_counts, Addressing};
use hipmcl_sparse::{Csc, PlusTimes, Semiring, Value};

/// Multiplies `C = A · B` with a dense sparse accumulator per worker, in
/// the given semiring: the shared symbolic pass, then the numeric phase
/// direct-addressed.
pub fn multiply_in<S: Semiring>(sr: S, a: &Csc<S::Elem>, b: &Csc<S::Elem>) -> Csc<S::Elem> {
    multiply_with_counts_as(Addressing::Direct, sr, a, b, &symbolic_counts(a, b))
}

/// [`multiply_in`] with the numeric plus-times semiring — MCL's default.
pub fn multiply<T: Value>(a: &Csc<T>, b: &Csc<T>) -> Csc<T>
where
    PlusTimes<T>: Semiring<Elem = T>,
{
    multiply_in(PlusTimes::new(), a, b)
}
