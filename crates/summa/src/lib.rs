//! Distributed SpGEMM for `hipmcl-rs`: the Sparse SUMMA algorithm and the
//! paper's optimizations on top of it.
//!
//! * [`distmat`] — 2D block-distributed matrices on the
//!   [`hipmcl_comm::ProcGrid`] (CombBLAS-style layout, DCSC-aware sizing).
//! * [`merge`] — merging the per-stage intermediate products: the
//!   multiway and **binary** (§IV, Algorithm 2) schedules, and one
//!   list-order merge behind one entry ([`merge::merge_with`]). Each
//!   merge's kernel label, its modeled rate, is picked by a machine-model
//!   cost rule ([`merge::select_merge_kernel`]). Merges themselves execute
//!   as executor tasks ([`executor::MergeTask`]) on per-socket lanes.
//! * [`estimate`] — distributed memory-requirement estimation: the exact
//!   symbolic SUMMA of original HipMCL and the paper's **probabilistic**
//!   Cohen-sketch estimator (§V), plus the hybrid rule (exact when `cf` is
//!   small).
//! * [`executor`] — the kernel-execution layer: every local multiply is
//!   a [`executor::KernelLaunch`] that the rank's [`executor::Executor`]
//!   charges from its product's column counts: GPU-selected multiplies on
//!   the devices ([`hipmcl_gpu::multi::MultiGpu`]), CPU-side multiplies
//!   inline on the host, and the per-socket lanes carry the merges. It
//!   forms no product and reads no clock.
//! * [`pipeline`] — the single stage scheduler of Pipelined Sparse SUMMA:
//!   issues broadcasts, forms every stage product (timing it on the wall
//!   clock under measured time), has the executor charge its launch, and
//!   drives merging off the launches' completion events.
//! * [`spgemm`] — distributed `C = A·B`: configuration and entry points
//!   for plain Sparse SUMMA (bulk synchronous, original HipMCL) and
//!   **Pipelined Sparse SUMMA** (§III) overlapping local multiplications
//!   with broadcasts and CPU merging.
//! * [`topk`] — distributed top-k column selection for MCL pruning.
//! * [`components`] — cluster extraction from the converged distributed
//!   matrix.
//!
//! Everything executes for real over the simulated-MPI runtime (results
//! are validated against single-process kernels) while virtual clocks
//! produce the Summit-shaped timings (see `hipmcl-comm` docs).

pub mod components;
pub mod distmat;
pub mod estimate;
pub mod executor;
pub mod merge;
pub mod pipeline;
pub mod spgemm;
pub mod topk;

pub use distmat::{DistMatrix, Operand, Panel};
pub use estimate::{EstimatorKind, MemoryEstimate};
pub use executor::{Executor, KernelLaunch, MergeTask};
pub use merge::{merge_with, MergeKernelPolicy, MergeSpan, MergeStrategy, StackMerger};
pub use spgemm::{
    summa_spgemm, summa_spgemm_in, summa_spgemm_with, summa_spgemm_with_in, CommChoice, CommPolicy,
    SummaConfig, SummaOutput,
};
