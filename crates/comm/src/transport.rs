//! The transport layer: *how bytes move between ranks*, divorced from
//! *how time is charged* ([`crate::clock::TimeModel`]).
//!
//! A transport is anything that can deliver length-prefixed frames
//! between world ranks with matched send/recv semantics. Everything
//! else — tag matching, α–β charging, collectives (barrier, bcast,
//! reduce, gather), and communicator splitting — is derived from that
//! one primitive in [`crate::comm`] and [`crate::collectives`], so every
//! transport gets the full MPI-like surface for free and all transports
//! produce bit-identical results.
//!
//! Four transports ship:
//!
//! * [`TransportKind::InProcess`] — ranks are OS threads, frames move
//!   through typed crossbeam channels as `Box<dyn Any>`. No bytes are
//!   serialized; this is the default and is fully deterministic under
//!   [`crate::clock::TimeModel::Modeled`].
//! * [`TransportKind::ProcessShm`] (feature `process-shm`) — ranks are
//!   OS *processes*, frames are wire-encoded
//!   ([`hipmcl_sparse::wire`]) and moved through single-producer
//!   single-consumer shared-memory rings. Real bytes, real copies, real
//!   wall time.
//! * [`TransportKind::Tcp`] — ranks are OS processes, possibly on
//!   *different machines*, moving the same frame format over TCP
//!   streams after a rank-0 rendezvous ([`crate::socket`]).
//! * [`TransportKind::Uds`] — the same socket backend over Unix-domain
//!   stream sockets: single-host only, but skips the TCP/IP stack and
//!   needs no free port.

use std::any::Any;
use std::time::Duration;

/// Which transport a universe runs on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TransportKind {
    /// Threads + typed channels (the default; deterministic, zero-copy).
    #[default]
    InProcess,
    /// OS processes + serialized frames over shared-memory rings.
    /// Requires the `process-shm` cargo feature at runtime.
    ProcessShm,
    /// OS processes + serialized frames over TCP streams; the only
    /// transport that spans machines. Always built (pure std).
    Tcp,
    /// OS processes + serialized frames over Unix-domain stream
    /// sockets — the socket backend without the TCP/IP stack, for
    /// single-host runs that want real sockets but no port.
    Uds,
}

impl TransportKind {
    /// Parses `HIPMCL_TRANSPORT`-style names.
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "" | "in-process" | "inprocess" | "threads" => Some(Self::InProcess),
            "process-shm" | "shm" | "processes" => Some(Self::ProcessShm),
            "tcp" | "socket" | "sockets" => Some(Self::Tcp),
            "uds" | "unix" | "unix-domain" => Some(Self::Uds),
            _ => None,
        }
    }

    /// Canonical name (the one `parse` round-trips).
    pub fn name(self) -> &'static str {
        match self {
            Self::InProcess => "in-process",
            Self::ProcessShm => "process-shm",
            Self::Tcp => "tcp",
            Self::Uds => "uds",
        }
    }

    /// `true` for transports whose ranks are separate OS processes, so a
    /// peer can die *independently* (crash, OOM-kill, unplugged cable)
    /// while this rank keeps running. Remote transports get a receive
    /// deadline by default under **every** time model — a dead peer must
    /// surface as a diagnostic, never as an infinite hang. Their payloads
    /// cross as wire-encoded [`FramePayload::Bytes`].
    pub fn is_remote(self) -> bool {
        match self {
            Self::InProcess => false,
            Self::ProcessShm | Self::Tcp | Self::Uds => true,
        }
    }
}

impl std::fmt::Display for TransportKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Frame metadata — everything the receiver needs for tag matching and
/// α–β charging, independent of how the payload travelled.
#[derive(Clone, Copy, Debug)]
pub struct FrameHeader {
    /// World rank of the sender.
    pub src_world: usize,
    /// Communicator context (world = 0; splits derive ids), preventing
    /// cross-communicator tag collisions.
    pub ctx: u64,
    /// User or collective tag.
    pub tag: u64,
    /// Sender's *modeled* clock at send time. Travels with the frame on
    /// every transport so modeled accounting is transport-invariant.
    pub send_clock: f64,
    /// Modeled wire size in bytes (what the α–β model charges).
    pub bytes: usize,
}

/// Fixed serialized size of a [`FrameHeader`] on byte-oriented
/// transports: five 8-byte little-endian words.
pub const FRAME_HEADER_BYTES: usize = 40;

/// What precedes the payload of a frame on byte-oriented transports: the
/// `u64` length of everything after it, then the [`FrameHeader`].
pub(crate) const FRAME_LEAD_BYTES: usize = 8 + FRAME_HEADER_BYTES;

impl FrameHeader {
    /// Serializes the header.
    pub fn to_bytes(&self) -> [u8; FRAME_HEADER_BYTES] {
        let words = [
            self.src_world as u64,
            self.ctx,
            self.tag,
            self.send_clock.to_bits(),
            self.bytes as u64,
        ];
        let mut out = [0u8; FRAME_HEADER_BYTES];
        for (dst, w) in out.chunks_exact_mut(8).zip(words) {
            dst.copy_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// The fixed-size start of a byte-oriented frame carrying
    /// `payload_len` payload bytes — `[total_len u64][header]`. It lives
    /// on the sender's stack; the payload follows from wherever it
    /// already is, so a frame is never assembled in a second buffer.
    pub(crate) fn frame_lead(&self, payload_len: usize) -> [u8; FRAME_LEAD_BYTES] {
        let mut lead = [0u8; FRAME_LEAD_BYTES];
        lead[..8].copy_from_slice(&((FRAME_HEADER_BYTES + payload_len) as u64).to_le_bytes());
        lead[8..].copy_from_slice(&self.to_bytes());
        lead
    }

    /// Deserializes a header from exactly [`FRAME_HEADER_BYTES`] bytes.
    pub fn decode(buf: &[u8; FRAME_HEADER_BYTES]) -> Self {
        let word = |i: usize| u64::from_le_bytes(buf[i * 8..(i + 1) * 8].try_into().unwrap());
        Self {
            src_world: word(0) as usize,
            ctx: word(1),
            tag: word(2),
            send_clock: f64::from_bits(word(3)),
            bytes: word(4) as usize,
        }
    }
}

/// A frame's payload: either the typed value itself (in-process, no
/// serialization) or its wire encoding (byte-oriented transports).
pub enum FramePayload {
    /// The boxed value, moved by pointer between threads.
    Typed(Box<dyn Any + Send>),
    /// The wire-encoded bytes, decoded by the receiver.
    Bytes(Vec<u8>),
}

impl std::fmt::Debug for FramePayload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Typed(_) => f.write_str("Typed(..)"),
            Self::Bytes(b) => write!(f, "Bytes({} B)", b.len()),
        }
    }
}

/// The payload of a frame being sent. Bytes are *borrowed*: the transport
/// writes them out (or copies them into its ring) straight from the
/// sender's buffer, and the same buffer can go to any number of peers.
pub enum SendPayload<'a> {
    /// The boxed value, moved by pointer between threads.
    Typed(Box<dyn Any + Send>),
    /// The wire-encoded bytes.
    Bytes(&'a [u8]),
}

/// One received message.
#[derive(Debug)]
pub struct Frame {
    /// Matching/charging metadata.
    pub header: FrameHeader,
    /// The payload.
    pub payload: FramePayload,
}

/// Why a blocking receive returned without a frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecvError {
    /// The deadline elapsed with no frame arriving.
    Timeout,
    /// All peers hung up (a rank panicked or exited).
    Disconnected,
    /// A specific peer's connection closed (process died, stream broke,
    /// corrupt framing). Carries the peer's world rank; the transport
    /// keeps a reason string retrievable via
    /// [`Endpoint::closed_peer_info`].
    PeerClosed(usize),
}

/// A rank's connection to its universe: matched frame send/recv.
///
/// This is the entire transport contract. Tag matching, out-of-order
/// buffering, clock charging, deadlines, collectives and `split` are
/// all layered on top by [`crate::comm::Comm`], identically for every
/// implementation.
pub trait Endpoint {
    /// Which transport this endpoint belongs to.
    fn kind(&self) -> TransportKind;

    /// Delivers a frame to `dst_world`'s incoming queue. May block on
    /// transport backpressure but never on the receiver's progress
    /// through unrelated tags.
    fn send_frame(&self, dst_world: usize, header: FrameHeader, payload: SendPayload<'_>);

    /// Blocks for the next incoming frame (any source, any tag — the
    /// caller does the matching). `timeout` of `None` waits forever.
    fn recv_frame(&self, timeout: Option<Duration>) -> Result<Frame, RecvError>;

    /// If the connection to `world` is known dead, the reason ("connection
    /// closed", "read error: …"). Transports with per-peer connections
    /// (sockets) record closures here so a receive aimed at a dead peer
    /// fails fast with diagnostics instead of waiting out the deadline.
    fn closed_peer_info(&self, world: usize) -> Option<String> {
        let _ = world;
        None
    }
}

/// The default transport: typed crossbeam channels between rank threads.
pub struct InProcessEndpoint {
    senders: std::sync::Arc<Vec<crossbeam_channel::Sender<Frame>>>,
    rx: crossbeam_channel::Receiver<Frame>,
}

impl InProcessEndpoint {
    /// Builds the full set of endpoints for a `p`-rank universe, indexed
    /// by rank.
    pub fn universe(p: usize) -> Vec<Self> {
        let (senders, receivers): (Vec<_>, Vec<_>) = (0..p)
            .map(|_| crossbeam_channel::unbounded::<Frame>())
            .unzip();
        let senders = std::sync::Arc::new(senders);
        receivers
            .into_iter()
            .map(|rx| Self {
                senders: std::sync::Arc::clone(&senders),
                rx,
            })
            .collect()
    }
}

impl Endpoint for InProcessEndpoint {
    fn kind(&self) -> TransportKind {
        TransportKind::InProcess
    }

    fn send_frame(&self, dst_world: usize, header: FrameHeader, payload: SendPayload<'_>) {
        let payload = match payload {
            SendPayload::Typed(b) => FramePayload::Typed(b),
            SendPayload::Bytes(b) => FramePayload::Bytes(b.to_vec()),
        };
        self.senders[dst_world]
            .send(Frame { header, payload })
            .expect("peer rank hung up (panicked?)");
    }

    fn recv_frame(&self, timeout: Option<Duration>) -> Result<Frame, RecvError> {
        match timeout {
            None => self.rx.recv().map_err(|_| RecvError::Disconnected),
            Some(d) => self.rx.recv_timeout(d).map_err(|e| match e {
                crossbeam_channel::RecvTimeoutError::Timeout => RecvError::Timeout,
                crossbeam_channel::RecvTimeoutError::Disconnected => RecvError::Disconnected,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_parse_roundtrips() {
        for k in [
            TransportKind::InProcess,
            TransportKind::ProcessShm,
            TransportKind::Tcp,
            TransportKind::Uds,
        ] {
            assert_eq!(TransportKind::parse(k.name()), Some(k));
        }
        assert_eq!(TransportKind::parse("shm"), Some(TransportKind::ProcessShm));
        assert_eq!(TransportKind::parse("sockets"), Some(TransportKind::Tcp));
        assert_eq!(TransportKind::parse("SOCKET"), Some(TransportKind::Tcp));
        assert_eq!(TransportKind::parse("unix"), Some(TransportKind::Uds));
        assert_eq!(
            TransportKind::parse("unix-domain"),
            Some(TransportKind::Uds)
        );
        assert_eq!(TransportKind::parse("bogus"), None);
        assert_eq!(TransportKind::default(), TransportKind::InProcess);
    }

    #[test]
    fn remote_classification() {
        assert!(!TransportKind::InProcess.is_remote());
        assert!(TransportKind::ProcessShm.is_remote());
        assert!(TransportKind::Tcp.is_remote());
        assert!(TransportKind::Uds.is_remote());
    }

    #[test]
    fn header_encoding_is_fixed_width_and_exact() {
        let h = FrameHeader {
            src_world: 3,
            ctx: 0xdead_beef,
            tag: (1 << 63) | 17,
            send_clock: -0.0,
            bytes: 1_000_000,
        };
        let lead = h.frame_lead(3);
        assert_eq!(lead[..8], (FRAME_HEADER_BYTES as u64 + 3).to_le_bytes());
        assert_eq!(lead[8..], h.to_bytes());
        let back = FrameHeader::decode(&h.to_bytes());
        assert_eq!(back.src_world, 3);
        assert_eq!(back.ctx, 0xdead_beef);
        assert_eq!(back.tag, (1 << 63) | 17);
        assert_eq!(back.send_clock.to_bits(), (-0.0f64).to_bits());
        assert_eq!(back.bytes, 1_000_000);
    }

    #[test]
    fn in_process_endpoints_deliver_and_time_out() {
        let eps = InProcessEndpoint::universe(2);
        eps[0].send_frame(
            1,
            FrameHeader {
                src_world: 0,
                ctx: 0,
                tag: 5,
                send_clock: 0.0,
                bytes: 8,
            },
            SendPayload::Typed(Box::new(42u64)),
        );
        let f = eps[1].recv_frame(None).unwrap();
        assert_eq!(f.header.tag, 5);
        assert_eq!(
            eps[1]
                .recv_frame(Some(Duration::from_millis(1)))
                .unwrap_err(),
            RecvError::Timeout
        );
    }
}
