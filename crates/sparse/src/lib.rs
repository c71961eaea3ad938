//! Sparse-matrix substrate for `hipmcl-rs`.
//!
//! This crate provides the storage formats and elementwise/columnwise
//! operations that the Markov Cluster (MCL) pipeline and the distributed
//! SUMMA layers are built on. It mirrors the roles CombBLAS plays for the
//! original HipMCL:
//!
//! * [`Triples`] — coordinate (COO) form, the interchange format used for
//!   graph construction, I/O and the merge stages of Sparse SUMMA.
//! * [`Csc`] — compressed sparse column, the one format the library
//!   computes on. MCL is a column-stochastic algorithm, so columnwise
//!   access dominates; there is no CSR type, because a CSC matrix *is* its
//!   transpose in CSR (§III-B) and the row-parallel CUDA SpGEMM libraries'
//!   kernels are column-parallel over it.
//! * [`Dcsc`] — doubly compressed sparse column for hypersparse submatrices,
//!   as used by 2D-distributed blocks (Buluç & Gilbert, IPDPS'08). When a
//!   matrix is split over `√P × √P` processes, each block has on average
//!   `nnz/P` nonzeros over `n/√P` columns; most columns are empty and plain
//!   CSC wastes `O(n/√P)` pointer space. DCSC compresses the column
//!   pointers. Here it is the form blocks are *shipped* in and sized by
//!   ([`wire`], [`Dcsc::bytes_of_csc`]), not one kernels run on.
//!
//! Columnwise MCL kernels (normalization, pruning, top-k selection,
//! inflation) live in [`colops`]; connected components for the final
//! cluster extraction live in [`components`]; Matrix Market I/O in [`io`].
//!
//! Indices are `u32` ([`Idx`]) — sufficient for the scaled-down networks
//! this reproduction runs (the paper's largest, metaclust50 at 383 M
//! vertices, would also fit). Pointer arrays are `usize`.

pub mod colops;
pub mod components;
pub mod convert;
pub mod csc;
pub mod dcsc;
pub mod io;
pub mod labels;
pub mod semiring;
pub mod triples;
pub mod util;
pub mod wire;

pub use csc::{Csc, CscBuilder, Pattern};
pub use dcsc::Dcsc;
pub use semiring::{Boolean, MaxMin, MinPlus, PlusTimes, Semiring, Value};
pub use triples::Triples;
pub use wire::{WireDecode, WireEncode, WireError, WireReader};

/// Row/column index type used by all sparse formats.
pub type Idx = u32;

#[cfg(test)]
mod proptests;
