//! Simulated-MPI communication substrate for `hipmcl-rs`.
//!
//! HipMCL is an MPI + OpenMP code; this reproduction has no MPI cluster, so
//! the distributed algorithms run on a message-passing runtime instead
//! (DESIGN.md, "Substitutions"). The substrate is built from two
//! *orthogonal* axes, chosen per universe and invisible to algorithm code:
//!
//! **Transport** ([`transport::Endpoint`], [`TransportKind`]) — how frames
//! physically move between ranks. Every message is a length-prefixed frame
//! (`[FrameHeader][payload]`); collectives (broadcast, reduce, gather,
//! barrier, split) are built from matched point-to-point sends over
//! binomial trees exactly as a small MPI would build them, *above* the
//! transport, so every backend inherits them unchanged.
//!
//! * [`TransportKind::InProcess`] (default): ranks are OS threads, frames
//!   ride typed in-memory channels — fast, deterministic, zero-copy for
//!   large slabs (`Arc` payloads).
//! * [`TransportKind::ProcessShm`] (`--features process-shm`, `shm` module):
//!   ranks are OS processes; frames are byte-encoded ([`WirePayload`]'s
//!   explicit little-endian wire format) and move through shared-memory
//!   SPSC rings. Real serialization, real cross-address-space movement.
//! * [`TransportKind::Tcp`] / [`TransportKind::Uds`] ([`socket`] module,
//!   always built — pure std): ranks are OS processes moving the same
//!   frames over stream sockets after a rank-0 rendezvous. TCP is the
//!   only transport that spans *machines* (hand-launch ranks with
//!   `HIPMCL_TCP_RANK` / `HIPMCL_TCP_RANKS` / `HIPMCL_TCP_ROOT`); the
//!   Unix-domain variant is the same backend without the TCP/IP stack.
//!
//! The three process transports start, replay and collect their ranks
//! through one launcher (the private `launch` module): the parent
//! re-executes the binary once per rank, and each child replays the
//! program up to its own universe. Remote transports get a receive
//! deadline by default under every time model, and a dead peer surfaces
//! as a rank/tag/peer diagnostic instead of a hang.
//!
//! **Time model** ([`TimeModel`], [`clock`]) — how time is charged.
//!
//! * [`TimeModel::Modeled`] (default): every rank carries a virtual clock;
//!   message receipt charges an α–β (latency + bytes/bandwidth) cost from
//!   the [`machine::MachineModel`]; compute sections charge kernel-model
//!   durations. Tree collectives accumulate these along their critical
//!   path, so `lg p` factors, load imbalance, and idle time emerge rather
//!   than being hand-computed. This is what lets a laptop reproduce the
//!   *shape* of 100–1024-node Summit results. Modeled mode never reads the
//!   host clock.
//! * [`TimeModel::Measured`]: the modeled clock still runs (and stays
//!   authoritative — schedules, stats, and results are bit-identical to
//!   Modeled), but ranks *additionally* sample the monotonic host clock,
//!   so reports carry a real wall-time breakdown next to the modeled one,
//!   and blocking receives gain a deadline that panics with rank/tag/src
//!   diagnostics instead of hanging.
//!
//! The invariant tying the axes together: **what is computed is a property
//! of the algorithm alone**. Cluster labels, modeled times, and comm
//! schedules are bit-identical across all transport × time combinations
//! (`probe_transport` asserts this end-to-end on the Archaea workload).
//!
//! Entry point: [`universe::Universe::run`] spawns `P` ranks and hands
//! each a [`comm::Comm`]; [`universe::Universe::run_with`] takes a
//! [`UniverseConfig`] selecting transport and time model, and
//! [`universe::Universe::run_dist`] reads them from `HIPMCL_TRANSPORT` /
//! `HIPMCL_TIME` so tests and benches can be re-run under any combination
//! without code changes.

pub mod clock;
pub mod collectives;
pub mod comm;
pub mod grid;
pub(crate) mod launch;
pub mod machine;
pub mod packet;
#[cfg(feature = "process-shm")]
pub mod shm;
pub mod socket;
pub mod transport;
pub mod universe;

pub use clock::{CommStats, Event, RankClock, StageTimers, TimeModel, Timeline};
pub use comm::Comm;
pub use grid::ProcGrid;
pub use hipmcl_sparse::wire::{WireDecode, WireEncode, WireError, WireReader};
pub use machine::{CommMode, GpuLib, MachineModel, MergeKernel, SpgemmKernel};
pub use packet::{WirePayload, WireSize};
pub use transport::{
    Endpoint, Frame, FrameHeader, FramePayload, RecvError, SendPayload, TransportKind,
};
pub use universe::{SocketConfig, Universe, UniverseConfig};

#[cfg(test)]
mod proptests;
