//! Simulated accelerator for `hipmcl-rs`.
//!
//! The paper offloads HipMCL's local SpGEMM to NVIDIA V100s through three
//! CUDA libraries (`bhsparse`, `nsparse`, `rmerge2`). This reproduction has
//! no GPUs, so the crate provides (DESIGN.md, "Substitutions"):
//!
//! * [`device::Device`] — a virtual-timeline device: 16 GB tracked memory,
//!   a FIFO kernel queue and a copy engine, H2D/D2H transfers charged at
//!   NVLink rates. A device runs nothing: a launch is charged from its
//!   flops and its product's column counts, its *duration* comes from the
//!   machine model, and the returned event timestamps are what the
//!   Pipelined Sparse SUMMA overlaps against. The product is formed on
//!   the host by the caller — in SUMMA by the pipeline, column by column
//!   into the merge that takes it. The key property of §III is preserved:
//!   the host blocks only for the transfer, never for the kernel.
//! * [`multi`] — multi-GPU work splitting (§III-A): copy A to every
//!   device, split B's columns evenly, concatenate the partial outputs.
//!   Every launch's product is the hash kernel's of `hipmcl-spgemm`
//!   (Nagasaka et al.'s, which nsparse runs), whatever library label it
//!   carries: the three libraries are reproduced by their modeled rates
//!   (Fig. 4) and their place in the schedule, not by three arithmetics, so
//!   every label gives the same bits. `MultiGpu::multiply{,_in}` forms
//!   that product and charges it in one call, for callers that want a
//!   launch's product outside SUMMA: the benchmark, the bench binaries,
//!   an example and tests.
//! * [`select`] — the paper's kernel-selection recipe: `flops` decides
//!   CPU vs GPU, `cf` picks the library label.

pub mod device;
pub mod multi;
pub mod select;

pub use device::{Device, DeviceError, Event};
pub use select::{select_kernel, SelectionPolicy};
