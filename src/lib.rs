//! # hipmcl-rs
//!
//! A from-scratch Rust reproduction of *"Optimizing High Performance
//! Markov Clustering for Pre-Exascale Architectures"* (Selvitopi,
//! Hussain, Azad, Buluç — IPDPS 2020): the HipMCL distributed Markov
//! Cluster algorithm plus the paper's four optimizations — Pipelined
//! Sparse SUMMA with CPU–GPU overlap, binary merge, probabilistic memory
//! estimation, and hash-based CPU SpGEMM — on top of simulated-MPI and
//! simulated-GPU substrates (rationale: DESIGN.md, "Substitutions").
//!
//! ## Quick start
//!
//! ```
//! use hipmcl::prelude::*;
//!
//! // A small protein-similarity-like network with planted families.
//! let net = hipmcl::workloads::protein::generate_protein_net(
//!     &ProteinNetConfig { n: 200, avg_degree: 14.0, ..Default::default() },
//! );
//! let graph = Csc::from_triples(&net.graph);
//!
//! // Serial MCL.
//! let result = cluster_serial(&graph, &MclConfig::testing(24));
//! assert!(result.converged);
//! assert!(result.num_clusters > 1);
//! ```
//!
//! Distributed runs go through [`comm::Universe::run`], which spawns the
//! simulated-MPI ranks; see `examples/quickstart.rs`.

/// Sparse-matrix substrate (formats, column ops, components, I/O).
pub use hipmcl_sparse as sparse;

/// Local SpGEMM kernels, symbolic multiplication, Cohen estimation.
pub use hipmcl_spgemm as spgemm;

/// Simulated-MPI runtime, process grids, machine models, virtual clocks.
pub use hipmcl_comm as comm;

/// Simulated GPUs: devices that charge each launch at its library label's
/// modeled rate (bhsparse/nsparse/rmerge2), one hash kernel behind every
/// label.
pub use hipmcl_gpu as gpu;

/// Distributed SpGEMM: Sparse SUMMA, pipelining, merging, estimation.
pub use hipmcl_summa as summa;

/// The MCL pipeline: serial reference and the distributed HipMCL driver.
pub use hipmcl_core as core;

/// Workload generators and the paper-network registry.
pub use hipmcl_workloads as workloads;

/// The most common imports in one place.
pub mod prelude {
    pub use crate::comm::{MachineModel, ProcGrid, Universe};
    pub use crate::core::dist::cluster_distributed;
    pub use crate::core::{cluster_serial, MclConfig};
    pub use crate::gpu::multi::MultiGpu;
    pub use crate::sparse::{Csc, Triples};
    pub use crate::summa::DistMatrix;
    pub use crate::workloads::{Dataset, ProteinNetConfig};
}

pub use prelude::*;
