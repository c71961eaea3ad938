//! The communicator: matched point-to-point messaging with virtual-clock
//! charging, receive deadlines, and communicator splitting
//! (`MPI_Comm_split` analogue).
//!
//! `Comm` is transport-agnostic: it owns tag matching, out-of-order
//! buffering, α–β charging and split bookkeeping, and delegates the
//! actual movement of frames to an [`Endpoint`]
//! (see [`crate::transport`]). Under a byte-oriented endpoint payloads
//! are wire-encoded on send and decoded on recv; under the in-process
//! endpoint they move as boxed values — either way the caller sees the
//! same typed API and bit-identical values.

use crate::clock::{CommStats, RankClock, TimeModel};
use crate::machine::MachineModel;
use crate::packet::WirePayload;
use crate::transport::{
    Endpoint, Frame, FrameHeader, FramePayload, RecvError, SendPayload, TransportKind,
};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

/// Per-rank mailbox: the transport endpoint plus a buffer for frames
/// that arrived before anyone asked for them (out-of-order matching).
pub(crate) struct Mailbox {
    endpoint: Box<dyn Endpoint>,
    pending: RefCell<Vec<Frame>>,
}

impl Mailbox {
    pub(crate) fn new(endpoint: Box<dyn Endpoint>) -> Self {
        Self {
            endpoint,
            pending: RefCell::new(Vec::new()),
        }
    }
}

/// Universe-wide configuration shared by all communicators of a rank.
pub(crate) struct Shared {
    pub(crate) model: MachineModel,
    pub(crate) time: TimeModel,
    /// `None` disables the receive deadline (hang forever, as MPI would).
    pub(crate) recv_deadline: Option<Duration>,
}

/// A communicator handle owned by one rank.
///
/// The world communicator is created by [`crate::Universe::run`]; grid
/// row/column communicators come from [`Comm::split`]. All communicators
/// of a rank share the rank's mailbox and clock pair.
pub struct Comm {
    /// Context id separating traffic of different communicators.
    ctx: u64,
    /// This rank within the communicator.
    rank: usize,
    /// Map from communicator rank to world rank.
    world_ranks: Vec<usize>,
    /// Monotone counter deriving child contexts (kept in lockstep across
    /// ranks because splits execute in program order on every rank).
    split_seq: u64,
    /// Monotone counter issuing collective tags, likewise in lockstep.
    coll_seq: std::cell::Cell<u64>,
    shared: Arc<Shared>,
    mailbox: Rc<Mailbox>,
    clock: Rc<RefCell<RankClock>>,
    stats: Rc<RefCell<CommStats>>,
}

impl Comm {
    pub(crate) fn new_world(
        rank: usize,
        size: usize,
        shared: Arc<Shared>,
        endpoint: Box<dyn Endpoint>,
    ) -> Self {
        Self::from_mailbox(rank, size, shared, Rc::new(Mailbox::new(endpoint)))
    }

    /// A world communicator over an existing (possibly shared) mailbox.
    /// The socket backend uses this to run the rank closure and then the
    /// result exchange over the *same* connections without losing frames
    /// the first communicator buffered for the second.
    pub(crate) fn from_mailbox(
        rank: usize,
        size: usize,
        shared: Arc<Shared>,
        mailbox: Rc<Mailbox>,
    ) -> Self {
        let time = shared.time;
        Self {
            ctx: 0,
            rank,
            world_ranks: (0..size).collect(),
            split_seq: 0,
            coll_seq: std::cell::Cell::new(0),
            shared,
            mailbox,
            clock: Rc::new(RefCell::new(RankClock::new(time))),
            stats: Rc::new(RefCell::new(CommStats::default())),
        }
    }

    /// Rank of this process in this communicator.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in this communicator.
    pub fn size(&self) -> usize {
        self.world_ranks.len()
    }

    /// The machine model in force.
    pub fn model(&self) -> &MachineModel {
        &self.shared.model
    }

    /// The transport this universe runs on.
    pub fn transport(&self) -> TransportKind {
        self.mailbox.endpoint.kind()
    }

    /// The receive deadline in force (`None` = wait forever).
    pub fn recv_deadline(&self) -> Option<Duration> {
        self.shared.recv_deadline
    }

    /// Current virtual time of this rank (authoritative for scheduling
    /// under both time models).
    pub fn now(&self) -> f64 {
        self.clock.borrow().now()
    }

    /// Wall seconds since this rank started, or `0.0` under
    /// [`TimeModel::Modeled`]. Sample before/after a section to get its
    /// measured duration.
    pub fn measured_now(&self) -> f64 {
        self.clock.borrow().measured_now()
    }

    /// Advances this rank's virtual clock by `dt` seconds of compute.
    pub fn advance_clock(&self, dt: f64) {
        self.clock.borrow_mut().advance(dt);
    }

    /// Jumps this rank's clock forward to `t` (if later); returns idle time.
    pub fn wait_clock_until(&self, t: f64) -> f64 {
        self.clock.borrow_mut().wait_until(t)
    }

    /// Resets clock and statistics (between experiments in one universe).
    pub fn reset_instrumentation(&self) {
        self.clock.borrow_mut().reset();
        *self.stats.borrow_mut() = CommStats::default();
    }

    /// Communication statistics accumulated so far.
    pub fn stats(&self) -> CommStats {
        *self.stats.borrow()
    }

    /// Issues the next collective sequence number. Collectives execute in
    /// identical program order on every rank of a communicator, so these
    /// counters stay in lockstep and uniquely tag each collective's
    /// traffic.
    pub(crate) fn next_coll_seq(&self) -> u64 {
        let s = self.coll_seq.get();
        self.coll_seq.set(s + 1);
        s
    }

    /// Sends `value` to `dst` (communicator rank) with `tag`.
    ///
    /// Non-blocking in virtual time: the send itself charges nothing; the
    /// α–β cost is charged at the receiver against the sender's clock, the
    /// usual LogP-style accounting.
    pub fn send<T: WirePayload>(&self, dst: usize, tag: u64, value: T) {
        let bytes = value.wire_bytes();
        if self.mailbox.endpoint.kind().is_remote() {
            self.send_payload(dst, tag, bytes, SendPayload::Bytes(&value.encoded()));
        } else {
            self.send_payload(dst, tag, bytes, SendPayload::Typed(Box::new(value)));
        }
    }

    /// Stamps, counts and hands one frame to the transport — the single
    /// exit for every message, so the modeled clock and the counters see
    /// a forwarded payload exactly as they see a freshly encoded one.
    fn send_payload(&self, dst: usize, tag: u64, bytes: usize, payload: SendPayload<'_>) {
        let header = FrameHeader {
            src_world: self.world_ranks[self.rank],
            ctx: self.ctx,
            tag,
            send_clock: self.now(),
            bytes,
        };
        {
            let mut st = self.stats.borrow_mut();
            st.msgs_sent += 1;
            st.bytes_sent += bytes as u64;
        }
        self.mailbox
            .endpoint
            .send_frame(self.world_ranks[dst], header, payload);
    }

    /// Adds the wall seconds `f` takes to [`CommStats::measured_comm_s`]
    /// under [`TimeModel::Measured`]; never reads the host clock otherwise.
    fn timed_comm<R>(&self, f: impl FnOnce() -> R) -> R {
        if !self.shared.time.is_measured() {
            return f();
        }
        let t0 = std::time::Instant::now();
        let out = f();
        self.stats.borrow_mut().measured_comm_s += t0.elapsed().as_secs_f64();
        out
    }

    /// Receives the message `(src, tag)` (communicator ranks), blocking
    /// until it arrives. Charges `max(own_clock, sender_clock + α + βb)`
    /// on the modeled clock; under [`TimeModel::Measured`] additionally
    /// accumulates the wall seconds spent blocked (match + decode) into
    /// [`CommStats::measured_comm_s`].
    ///
    /// If a receive deadline is configured (see
    /// [`crate::UniverseConfig::recv_deadline`]) and no matching frame
    /// arrives in time, panics with rank/src/tag diagnostics instead of
    /// deadlocking the run.
    pub fn recv<T: WirePayload>(&self, src: usize, tag: u64) -> T {
        self.recv_relay(src, tag).into_value(self)
    }

    /// Wraps the value a collective's root contributes: on a byte-oriented
    /// transport it is encoded here, once, however many peers it goes to.
    pub(crate) fn relay_from<T: WirePayload>(&self, value: T) -> Relay<T> {
        let bytes = value.wire_bytes();
        let body = if self.mailbox.endpoint.kind().is_remote() {
            let wire = value.encoded();
            RelayBody::Encoded(value, wire)
        } else {
            RelayBody::Value(value)
        };
        Relay { bytes, body }
    }

    /// [`Comm::recv`] minus the decode: matches `(src, tag)`, charges the
    /// clock and the counters, and leaves a byte payload as it arrived so
    /// a tree collective can pass it on before paying for the decode.
    pub(crate) fn recv_relay<T: WirePayload>(&self, src: usize, tag: u64) -> Relay<T> {
        let frame = self.timed_comm(|| self.match_frame(self.world_ranks[src], src, tag));
        let bytes = frame.header.bytes;
        let arrival = frame.header.send_clock + self.shared.model.p2p_time(bytes);
        let idle = self.clock.borrow_mut().wait_until(arrival);
        {
            let mut st = self.stats.borrow_mut();
            st.msgs_recv += 1;
            st.bytes_recv += bytes as u64;
            st.modeled_comm_s += idle;
        }
        let body = match frame.payload {
            FramePayload::Typed(b) => RelayBody::Value(
                *b.downcast::<T>()
                    .unwrap_or_else(|_| panic!("type mismatch receiving tag {tag} from {src}")),
            ),
            FramePayload::Bytes(wire) => RelayBody::Wire { wire, src, tag },
        };
        Relay { bytes, body }
    }

    /// Sends `relay`'s message on to `dst`: the bytes verbatim on a
    /// byte-oriented transport, a clone of the value otherwise. Stamped
    /// and counted like any [`Comm::send`] of the same value.
    pub(crate) fn send_relay<T: WirePayload + Clone>(
        &self,
        dst: usize,
        tag: u64,
        relay: &Relay<T>,
    ) {
        let payload = match &relay.body {
            RelayBody::Value(v) => SendPayload::Typed(Box::new(v.clone())),
            RelayBody::Encoded(_, wire) | RelayBody::Wire { wire, .. } => SendPayload::Bytes(wire),
        };
        self.send_payload(dst, tag, relay.bytes, payload);
    }

    /// Pulls the first frame matching `(world_src, ctx, tag)`, buffering
    /// everything else. Enforces the configured receive deadline.
    fn match_frame(&self, world_src: usize, src: usize, tag: u64) -> Frame {
        // Check the pending buffer first.
        {
            let mut pending = self.mailbox.pending.borrow_mut();
            if let Some(pos) = pending.iter().position(|f| {
                f.header.src_world == world_src && f.header.ctx == self.ctx && f.header.tag == tag
            }) {
                // Order-preserving: frames left behind must keep their
                // arrival order, or two messages on one (src, tag) could
                // overtake each other.
                return pending.remove(pos);
            }
        }
        // Fail fast if the transport already knows the source is dead —
        // no point waiting out the deadline on a corpse.
        if let Some(reason) = self.mailbox.endpoint.closed_peer_info(world_src) {
            self.peer_closed_panic(world_src, src, tag, &reason);
        }
        let deadline = self.shared.recv_deadline;
        let started = deadline.map(|_| std::time::Instant::now());
        loop {
            let remaining = match (deadline, started) {
                (Some(d), Some(t0)) => match d.checked_sub(t0.elapsed()) {
                    Some(left) => Some(left),
                    None => self.recv_deadline_panic(world_src, src, tag, d),
                },
                _ => None,
            };
            let frame = match self.mailbox.endpoint.recv_frame(remaining) {
                Ok(f) => f,
                Err(RecvError::Timeout) => {
                    self.recv_deadline_panic(world_src, src, tag, deadline.unwrap())
                }
                Err(RecvError::Disconnected) => panic!("universe torn down while receiving"),
                Err(RecvError::PeerClosed(dead)) if dead == world_src => {
                    let reason = self
                        .mailbox
                        .endpoint
                        .closed_peer_info(dead)
                        .unwrap_or_else(|| "connection closed".into());
                    self.peer_closed_panic(world_src, src, tag, &reason);
                }
                // Some *other* peer died. Our source may still deliver;
                // keep waiting (the deadline still bounds us), and let a
                // receive actually aimed at the dead peer do the failing.
                Err(RecvError::PeerClosed(_)) => continue,
            };
            if frame.header.src_world == world_src
                && frame.header.ctx == self.ctx
                && frame.header.tag == tag
            {
                return frame;
            }
            self.mailbox.pending.borrow_mut().push(frame);
        }
    }

    #[allow(clippy::panic)]
    fn peer_closed_panic(&self, world_src: usize, src: usize, tag: u64, reason: &str) -> ! {
        panic!(
            "peer rank died: rank {} (world {}) was receiving tag {:#x} from src {} \
             (world {}) on ctx {:#x}, but that peer's connection is gone ({reason}) \
             [transport {}, time {}]",
            self.rank,
            self.world_ranks[self.rank],
            tag,
            src,
            world_src,
            self.ctx,
            self.transport(),
            self.shared.time,
        );
    }

    #[allow(clippy::panic)]
    fn recv_deadline_panic(&self, world_src: usize, src: usize, tag: u64, after: Duration) -> ! {
        let pending = self.mailbox.pending.borrow();
        panic!(
            "recv deadline exceeded after {:.1?}: rank {} (world {}) waiting for tag {:#x} \
             from src {} (world {}) on ctx {:#x}; {} unmatched frame(s) buffered \
             [transport {}, time {}]",
            after,
            self.rank,
            self.world_ranks[self.rank],
            tag,
            src,
            world_src,
            self.ctx,
            pending.len(),
            self.transport(),
            self.shared.time,
        );
    }

    /// Splits the communicator like `MPI_Comm_split`: ranks with the same
    /// `color` form a new communicator, ordered by `key` (ties broken by
    /// parent rank). Collective — every rank must call it.
    pub fn split(&mut self, color: u64, key: u64) -> Comm {
        // Exchange (color, key) among all parent ranks.
        let pairs: Vec<(u64, u64)> = crate::collectives::allgather(self, (color, key));
        let mut members: Vec<(u64, usize)> = pairs
            .iter()
            .enumerate()
            .filter(|(_, &(c, _))| c == color)
            .map(|(r, &(_, k))| (k, r))
            .collect();
        members.sort();
        let world_ranks: Vec<usize> = members
            .iter()
            .map(|&(_, parent_rank)| self.world_ranks[parent_rank])
            .collect();
        let new_rank = members
            .iter()
            .position(|&(_, parent_rank)| parent_rank == self.rank)
            .expect("calling rank must be in its own color group");

        // Derive a context id deterministically and identically on all
        // ranks of the group: parent ctx, split ordinal, and color.
        self.split_seq += 1;
        let ctx = fxhash3(self.ctx, self.split_seq, color);

        Comm {
            ctx,
            rank: new_rank,
            world_ranks,
            split_seq: 0,
            coll_seq: std::cell::Cell::new(0),
            shared: Arc::clone(&self.shared),
            mailbox: Rc::clone(&self.mailbox),
            clock: Rc::clone(&self.clock),
            stats: Rc::clone(&self.stats),
        }
    }
}

/// A message passing through a collective: supplied by the root or
/// received from a parent, forwarded to any number of peers with
/// [`Comm::send_relay`], and finally turned into its value — encoded at
/// most once and decoded at most once on the way.
pub(crate) struct Relay<T> {
    /// Modeled wire size, as the sender's `wire_bytes()` reported it.
    bytes: usize,
    body: RelayBody<T>,
}

enum RelayBody<T> {
    /// In-process: the value itself moves.
    Value(T),
    /// Byte transport, root: the value and its one encoding.
    Encoded(T, Vec<u8>),
    /// Byte transport, received: the payload as it arrived.
    Wire { wire: Vec<u8>, src: usize, tag: u64 },
}

impl<T: WirePayload> Relay<T> {
    /// Modeled wire size of the message.
    pub(crate) fn bytes(&self) -> usize {
        self.bytes
    }

    /// The value: as supplied, as received, or decoded now (the wall time
    /// of which counts as receive time under [`TimeModel::Measured`]).
    pub(crate) fn into_value(self, comm: &Comm) -> T {
        match self.body {
            RelayBody::Value(v) | RelayBody::Encoded(v, _) => v,
            RelayBody::Wire { wire, src, tag } => {
                let v = comm
                    .timed_comm(|| T::decode_all(&wire))
                    .unwrap_or_else(|e| {
                        panic!("wire decode failed receiving tag {tag} from {src}: {e}")
                    });
                debug_assert_eq!(
                    v.wire_bytes(),
                    self.bytes,
                    "decoded value models a different wire size than the frame that carried it"
                );
                v
            }
        }
    }
}

/// Deterministic 3-word mix for context derivation.
fn fxhash3(a: u64, b: u64, c: u64) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for w in [a, b, c] {
        h ^= w;
        h = h.wrapping_mul(0x100000001b3);
        h ^= h >> 29;
    }
    h | 1 // never collide with the world context 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::{Universe, UniverseConfig};

    #[test]
    fn fxhash3_is_deterministic_and_nonzero() {
        assert_eq!(fxhash3(1, 2, 3), fxhash3(1, 2, 3));
        assert_ne!(fxhash3(1, 2, 3), fxhash3(1, 2, 4));
        assert_ne!(fxhash3(0, 0, 0), 0);
    }

    #[test]
    fn p2p_roundtrip() {
        let results = Universe::run(2, MachineModel::summit(), |comm| {
            if comm.rank() == 0 {
                comm.send(1, 7, vec![1.0f64, 2.0, 3.0]);
                0.0
            } else {
                let v: Vec<f64> = comm.recv(0, 7);
                v.iter().sum()
            }
        });
        assert_eq!(results[1], 6.0);
    }

    #[test]
    fn recv_charges_transfer_time() {
        let results = Universe::run(2, MachineModel::summit(), |comm| {
            if comm.rank() == 0 {
                comm.advance_clock(1.0); // sender is busy first
                comm.send(1, 0, vec![0u8; 1_000_000]);
            } else {
                let _: Vec<u8> = comm.recv(0, 0);
            }
            comm.now()
        });
        let expect = 1.0 + MachineModel::summit().p2p_time(1_000_000 + 8);
        assert!(
            (results[1] - expect).abs() < 1e-9,
            "got {} want {}",
            results[1],
            expect
        );
    }

    #[test]
    fn out_of_order_tags_match() {
        let results = Universe::run(2, MachineModel::summit(), |comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, 10u64);
                comm.send(1, 2, 20u64);
                0
            } else {
                // Receive in reverse tag order.
                let b: u64 = comm.recv(0, 2);
                let a: u64 = comm.recv(0, 1);
                a * 100 + b
            }
        });
        assert_eq!(results[1], 1020);
    }

    #[test]
    fn buffered_messages_on_one_tag_keep_their_order() {
        // X(tag 1), A1(tag 2), A2(tag 2) are all buffered while the
        // receiver waits for tag 3; pulling X out of the buffer must not
        // reorder A1 and A2 behind it (MPI's non-overtaking rule).
        let results = Universe::run(2, MachineModel::summit(), |comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, 100u64);
                comm.send(1, 2, 1u64);
                comm.send(1, 2, 2u64);
                comm.send(1, 3, 300u64);
                Vec::new()
            } else {
                [3, 1, 2, 2].map(|tag| comm.recv::<u64>(0, tag)).to_vec()
            }
        });
        assert_eq!(results[1], vec![300, 100, 1, 2]);
    }

    #[test]
    fn split_creates_independent_groups() {
        let results = Universe::run(4, MachineModel::summit(), |mut comm| {
            // Colors {0,1}: ranks 0,1 in group 0; ranks 2,3 in group 1.
            let color = (comm.rank() / 2) as u64;
            let sub = comm.split(color, comm.rank() as u64);
            assert_eq!(sub.size(), 2);
            // Exchange within each group; same tags must not cross groups.
            if sub.rank() == 0 {
                sub.send(1, 9, comm.rank() as u64);
                u64::MAX
            } else {
                sub.recv::<u64>(0, 9)
            }
        });
        assert_eq!(results[1], 0, "rank 1 hears from rank 0");
        assert_eq!(results[3], 2, "rank 3 hears from rank 2");
    }

    #[test]
    fn stats_count_messages() {
        let results = Universe::run(2, MachineModel::summit(), |comm| {
            if comm.rank() == 0 {
                comm.send(1, 0, 1u64);
                comm.send(1, 1, 2u64);
            } else {
                let _: u64 = comm.recv(0, 0);
                let _: u64 = comm.recv(0, 1);
            }
            comm.stats()
        });
        assert_eq!(results[0].msgs_sent, 2);
        assert_eq!(results[1].msgs_recv, 2);
        assert_eq!(results[0].bytes_sent, 16);
    }

    #[test]
    fn modeled_runs_never_sample_wall_time() {
        let results = Universe::run(2, MachineModel::summit(), |comm| {
            if comm.rank() == 0 {
                comm.send(1, 0, vec![0u8; 100_000]);
            } else {
                let _: Vec<u8> = comm.recv(0, 0);
            }
            (comm.stats(), comm.measured_now())
        });
        assert_eq!(results[1].0.measured_comm_s, 0.0);
        assert_eq!(results[1].1, 0.0);
        assert!(results[1].0.modeled_comm_s > 0.0, "α–β wait was charged");
    }

    #[test]
    fn measured_runs_report_both_rollups() {
        let cfg = UniverseConfig::new(2, MachineModel::summit()).with_time(TimeModel::Measured);
        let results = Universe::run_with(cfg, |comm| {
            // Both rank threads are live before the sleep starts; a late
            // spawn must not eat into the receiver's blocking time.
            crate::collectives::barrier(&comm);
            if comm.rank() == 0 {
                // Make the receiver actually block on the wall clock.
                std::thread::sleep(Duration::from_millis(5));
                comm.send(1, 0, vec![1u64; 1000]);
            } else {
                let _: Vec<u64> = comm.recv(0, 0);
            }
            comm.stats()
        });
        let st = results[1];
        assert!(st.modeled_comm_s > 0.0, "modeled charge still accumulates");
        assert!(
            st.measured_comm_s >= 0.004,
            "wall blocking time recorded, got {}",
            st.measured_comm_s
        );
    }

    #[test]
    #[should_panic(expected = "recv deadline exceeded")]
    fn recv_on_silent_tag_panics_with_deadline() {
        let cfg = UniverseConfig::new(2, MachineModel::summit())
            .with_recv_deadline(Some(Duration::from_millis(20)));
        let _ = Universe::run_with(cfg, |comm| {
            if comm.rank() == 1 {
                // Nobody ever sends tag 99.
                let _: u64 = comm.recv(0, 99);
            }
        });
    }

    #[test]
    #[should_panic(expected = "recv deadline exceeded")]
    fn measured_time_defaults_deadline_on() {
        let cfg = UniverseConfig::new(2, MachineModel::summit()).with_time(TimeModel::Measured);
        assert!(cfg.resolved_recv_deadline().is_some());
        let short = cfg.with_recv_deadline(Some(Duration::from_millis(20)));
        let _ = Universe::run_with(short, |comm| {
            if comm.rank() == 1 {
                let _: u64 = comm.recv(0, 99);
            }
        });
    }
}
