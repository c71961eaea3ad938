//! Local (in-node) sparse matrix–matrix multiplication for `hipmcl-rs`.
//!
//! The MCL expansion step `B = A·A` is an SpGEMM whose character changes as
//! the iteration proceeds: early iterations are sparse (tens of nonzeros
//! per column) while mid-iterations approach ~1000 nonzeros per column with
//! large compression factors `cf = flops / nnz(C)`. No single accumulator
//! wins everywhere (§VI, [Nagasaka et al. 2018]):
//!
//! * [`heap`] — priority-queue accumulation, the *original HipMCL* kernel.
//!   Wins at small `cf` (≈ sparse graph processing).
//! * [`hash`] — `O(1)` accumulation per product, the paper's replacement.
//!   Wins at large `cf`, which dominates MCL runs. Its accumulator
//!   ([`hash::HashScratch`], the only one in the workspace) addresses a
//!   row's slot directly while `nrows(A)` slots stay cache-resident and
//!   through a hash table above that — the recipe picks the accumulator
//!   from the operand too.
//! * [`spa`] — dense sparse-accumulator (Gilbert/Moler/Schreiber), the
//!   classic baseline: the same accumulator with direct addressing forced,
//!   so memory-hungry on tall operands.
//!
//! Every kernel is one pass: it reserves the product's bound `Σ_j
//! min(flops_j, nrows)` as address space, hands each column as it is
//! computed to an [`emit::Emit`], which appends it to a
//! `hipmcl_sparse::CscBuilder` or whatever it makes of it, and trims —
//! nothing is counted first
//! (DESIGN.md, "Local SpGEMM: the one-pass contract").
//!
//! [`symbolic`] computes exact output structure counts (the "exact" memory
//! estimator), and [`estimate`] implements Cohen's probabilistic `nnz(AB)`
//! estimator (§V). [`hybrid`] names the CPU kernels and holds the serial
//! driver's multiply; the modeled CPU/GPU selection lives in
//! `hipmcl-gpu::select`.
//!
//! All kernels are column-parallel over the output with rayon and produce
//! CSC with sorted, duplicate-free columns (validated in tests against a
//! dense reference and against each other).

pub mod analysis;
pub mod emit;
pub mod estimate;
mod groups;
pub mod hash;
pub mod heap;
pub mod hybrid;
pub mod spa;
pub mod symbolic;

pub use analysis::{flops, flops_per_column, MultAnalysis};
pub use estimate::CohenEstimator;
pub use hybrid::CpuAlgo;

pub mod testutil;

#[cfg(test)]
mod proptests;
