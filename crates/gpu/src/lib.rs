//! Simulated accelerator for `hipmcl-rs`.
//!
//! The paper offloads HipMCL's local SpGEMM to NVIDIA V100s through three
//! CUDA libraries (`bhsparse`, `nsparse`, `rmerge2`). This reproduction has
//! no GPUs, so the crate provides (DESIGN.md substitution table):
//!
//! * [`device::Device`] — a virtual-timeline device: 16 GB tracked memory,
//!   a FIFO kernel queue and a copy engine, H2D/D2H transfers charged at
//!   NVLink rates. Kernels *execute for real* (on the host, inline) while
//!   their *duration* comes from the machine model; the returned event
//!   timestamps are what the Pipelined Sparse SUMMA overlaps against. The
//!   key property of §III is preserved: the host blocks only for the
//!   transfer, never for the kernel.
//! * [`libs`] — real Rust re-implementations of the three libraries'
//!   algorithmic cores, column-parallel over CSC: expand–sort–compress
//!   (`bhsparse`), binned hash accumulation (`nsparse`), iterative row
//!   merging (`rmerge2`).
//! * [`multi`] — multi-GPU work splitting (§III-A): copy A to every
//!   device, split B's columns evenly, concatenate the partial outputs.
//! * [`select`] — the paper's kernel-selection recipe: `flops` decides
//!   CPU vs GPU, `cf` picks the library.
//!
//! The §III-B storage-format observation — a CSC matrix *is* its transpose
//! in CSR, so the row-parallel CUDA libraries can be fed `Cᵀ = Bᵀ·Aᵀ`
//! unconverted — is honoured by construction: column-parallel over CSC *is*
//! the row-parallel CSR algorithm on `Cᵀ = Bᵀ·Aᵀ`, so the trick costs
//! nothing here, not even a type.

pub mod device;
pub mod libs;
pub mod multi;
pub mod select;

pub use device::{Device, DeviceError, Event};
pub use select::{select_kernel, SelectionPolicy};
