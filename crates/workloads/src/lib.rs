//! Workload generators for `hipmcl-rs`.
//!
//! The paper evaluates on protein-similarity networks from the IMG
//! database (archaea, eukarya, the isom100 family) and Metaclust50 —
//! none of which can ship with this reproduction. This crate provides
//! (DESIGN.md, "Substitutions"):
//!
//! * [`protein`] — a planted-partition "protein similarity" generator:
//!   power-law cluster sizes, dense high-weight intra-cluster blocks,
//!   sparse low-weight inter-cluster noise. This is the workload family
//!   whose density regime (hundreds to ~1000 nonzeros per column after
//!   selection, large SpGEMM compression factors) drives every
//!   experiment in the paper.
//! * [`rmat`] — R-MAT (Graph500 parameters) for skewed-degree stress
//!   tests.
//! * [`er`] — Erdős–Rényi `G(n, m)` for unstructured baselines.
//! * [`registry`] — the paper's six networks (Table I) mapped to scaled
//!   synthetic instances with matched average degree, one constructor per
//!   network, so benches can say `Dataset::Archaea.instance(scale)`.
//! * [`apsp`] — weighted digraphs plus a Bellman–Ford all-pairs
//!   shortest-path reference for the **min-plus** SUMMA workload.
//! * [`reach`] — digraphs plus a BFS transitive-closure reference for the
//!   **boolean** SUMMA workload.
//!
//! All generators are deterministic in their seed; the matrix-market
//! generators are rayon-parallel.

pub mod apsp;
pub mod er;
pub mod protein;
pub mod reach;
pub mod registry;
pub mod rmat;

pub use apsp::{bellman_ford_apsp, generate_apsp_digraph};
pub use protein::{generate_protein_net, ProteinNetConfig};
pub use reach::{bfs_closure, generate_reach_digraph};
pub use registry::Dataset;
