//! The socket transports ([`TransportKind::Tcp`] /
//! [`TransportKind::Uds`]): ranks as OS processes — possibly on
//! *different machines* — exchanging wire-encoded frames over stream
//! sockets. Pure `std`, always built.
//!
//! # Frame format
//!
//! Identical to the shared-memory rings: `[total_len u64][header 40 B]
//! [payload]`, all little-endian (see [`crate::transport::FrameHeader`]).
//! A dedicated reader thread per peer connection reassembles frames and
//! pushes them into one incoming channel, so [`SocketEndpoint::recv_frame`]
//! is a single channel receive; writes go directly to the peer's stream.
//! Socket bytes are *untrusted* in a way ring bytes were not: the reader
//! rejects runt, oversized, and mis-attributed frames (a frame whose
//! header claims a source other than the connection it arrived on) by
//! closing the connection with a reason, which surfaces on the next
//! receive aimed at that peer as a rank/tag/peer diagnostic.
//!
//! # Rendezvous
//!
//! Rank 0 listens on the root address; every other rank dials it with
//! bounded retry + deterministic jittered backoff, sends a hello naming
//! its own listener address, and receives the full address table back.
//! The mesh then completes pairwise: rank *j* dials every rank *i* with
//! `0 < i < j` and accepts from every rank `> j` (listener backlogs make
//! the ordering deadlock-free). All rendezvous failures panic with the
//! rank, phase, and address involved.
//!
//! # Launch
//!
//! The one process launcher (`launch.rs` module docs) starts, replays and
//! collects socket ranks, hand-launched ones included. A launched rank
//! rendezvouses in the session directory: rank 0 of a local TCP universe
//! publishes its ephemeral port there as `root_addr.txt`, and Unix-domain
//! ranks bind their sockets there.

use crate::comm::{Comm, Mailbox};
use crate::launch::ChildIdentity;
use crate::packet::WirePayload;
use crate::transport::{
    Endpoint, Frame, FrameHeader, FramePayload, RecvError, SendPayload, TransportKind,
    FRAME_HEADER_BYTES,
};
use crate::universe::UniverseConfig;
use std::cell::RefCell;
use std::io::{IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// First word of every rendezvous message; guards against a stray client
/// (port scanner, wrong address) being mistaken for a rank.
const HELLO_MAGIC: u64 = 0x4849_504d_434c_534b; // "HIPMCLSK"

/// Upper bound on a single frame. Nothing the SUMMA stack ships comes
/// within two orders of magnitude of this; a larger length prefix means
/// a corrupt or hostile stream, not a big matrix.
const MAX_FRAME_BYTES: usize = 1 << 30;

/// The most payload capacity reserved on the word of a length prefix
/// alone; beyond it the buffer grows only with bytes that arrived.
const PAYLOAD_PREALLOC_CAP: usize = 64 * 1024;

/// Poll interval while waiting to accept or for the root-address file.
const POLL: Duration = Duration::from_millis(2);

/// Tag for the post-universe result exchange in hand-launched mode.
/// Collides with nothing: the universe body has fully matched its own
/// traffic by the time this runs on a fresh world communicator.
const RESULT_TAG: u64 = 0x5245_5355_4c54; // "RESULT"

/// A connected stream of either flavor.
enum Stream {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Stream {
    /// Wraps a connected TCP stream — dialed or accepted — with Nagle's
    /// algorithm off. A frame already leaves in one write, so coalescing
    /// buys nothing, while the small back-to-back frames of a collective
    /// would each wait out the peer's delayed ACK (~40 ms).
    fn tcp(s: TcpStream) -> std::io::Result<Stream> {
        s.set_nodelay(true)?;
        Ok(Stream::Tcp(s))
    }

    fn try_clone(&self) -> std::io::Result<Stream> {
        match self {
            Stream::Tcp(s) => s.try_clone().map(Stream::Tcp),
            #[cfg(unix)]
            Stream::Unix(s) => s.try_clone().map(Stream::Unix),
        }
    }

    /// Half-closes the write side so the peer's reader sees EOF at a
    /// frame boundary (graceful teardown); already-sent frames still
    /// drain first.
    fn shutdown_write(&self) {
        let _ = match self {
            Stream::Tcp(s) => s.shutdown(std::net::Shutdown::Write),
            #[cfg(unix)]
            Stream::Unix(s) => s.shutdown(std::net::Shutdown::Write),
        };
    }

    /// The local IP as the remote end routes to it — what a TCP rank
    /// advertises as its dial-in host.
    fn local_ip(&self) -> Option<std::net::IpAddr> {
        match self {
            Stream::Tcp(s) => s.local_addr().ok().map(|a| a.ip()),
            #[cfg(unix)]
            Stream::Unix(_) => None,
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.write(buf),
        }
    }

    // Without this the default writes only the first slice, and a frame
    // would leave as two packets.
    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write_vectored(bufs),
            #[cfg(unix)]
            Stream::Unix(s) => s.write_vectored(bufs),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Stream::Unix(s) => s.flush(),
        }
    }
}

/// A listening socket of either flavor.
enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

impl Listener {
    fn set_nonblocking(&self, nb: bool) -> std::io::Result<()> {
        match self {
            Listener::Tcp(l) => l.set_nonblocking(nb),
            #[cfg(unix)]
            Listener::Unix(l) => l.set_nonblocking(nb),
        }
    }

    fn accept(&self) -> std::io::Result<Stream> {
        match self {
            Listener::Tcp(l) => l.accept().and_then(|(s, _)| Stream::tcp(s)),
            #[cfg(unix)]
            Listener::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
        }
    }
}

/// Binds a Unix-domain listener at `path`, clearing a stale socket file.
#[cfg(unix)]
fn bind_unix(path: &Path) -> std::io::Result<Listener> {
    if path.exists() {
        let _ = std::fs::remove_file(path);
    }
    UnixListener::bind(path).map(Listener::Unix)
}

#[cfg(not(unix))]
fn bind_unix(_path: &Path) -> std::io::Result<Listener> {
    Err(std::io::Error::new(
        std::io::ErrorKind::Unsupported,
        "uds transport requires a unix platform (use tcp)",
    ))
}

/// Starts a rendezvous message: its words, little-endian. Each message
/// is assembled whole and leaves in one write — with Nagle off, a write
/// per word would be a packet per word.
fn rendezvous_msg(words: &[u64]) -> Vec<u8> {
    words.iter().flat_map(|w| w.to_le_bytes()).collect()
}

/// Appends a length-prefixed address to a rendezvous message.
fn push_addr(msg: &mut Vec<u8>, addr: &str) {
    msg.extend_from_slice(&(addr.len() as u64).to_le_bytes());
    msg.extend_from_slice(addr.as_bytes());
}

/// Reads one little-endian u64 word.
fn read_word(s: &mut Stream) -> std::io::Result<u64> {
    let mut b = [0u8; 8];
    s.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

/// Reads a length-prefixed rendezvous string (addresses only — bounded
/// well below frame sizes).
fn read_addr(s: &mut Stream) -> std::io::Result<String> {
    let len = read_word(s)? as usize;
    if len > 4096 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("rendezvous address length {len} is implausible"),
        ));
    }
    let mut buf = vec![0u8; len];
    s.read_exact(&mut buf)?;
    String::from_utf8(buf)
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "non-utf8 address"))
}

/// Fills `buf`, returning how many bytes arrived before EOF.
fn read_full(s: &mut Stream, buf: &mut [u8]) -> std::io::Result<usize> {
    let mut n = 0;
    while n < buf.len() {
        match s.read(&mut buf[n..]) {
            Ok(0) => break,
            Ok(k) => n += k,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(n)
}

/// Writes one frame — the stack-resident lead, then the payload from
/// wherever the caller holds it — as a single vectored write (finished
/// with plain writes if the kernel takes only part of it).
fn write_frame(s: &mut Stream, lead: &[u8], payload: &[u8]) -> std::io::Result<()> {
    let mut sent = 0;
    while sent < lead.len() + payload.len() {
        let wrote = if sent < lead.len() {
            s.write_vectored(&[IoSlice::new(&lead[sent..]), IoSlice::new(payload)])
        } else {
            s.write(&payload[sent - lead.len()..])
        };
        match wrote {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => sent += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// What a reader thread forwards to the endpoint.
enum Incoming {
    Frame(Frame),
    Closed { peer: usize, reason: String },
}

/// Reads one frame off `s`, validating the untrusted envelope.
/// `Ok(None)` is a clean EOF at a frame boundary (the peer finished and
/// closed); anything else wrong is an `Err` with the reason.
fn read_frame(s: &mut Stream, expect_src: usize) -> Result<Option<Frame>, String> {
    let mut len_b = [0u8; 8];
    match read_full(s, &mut len_b) {
        Ok(0) => return Ok(None),
        Ok(n) if n < 8 => return Err(format!("truncated frame length ({n}/8 bytes, then EOF)")),
        Ok(_) => {}
        Err(e) => return Err(format!("read error: {e}")),
    }
    let total = u64::from_le_bytes(len_b) as usize;
    if total < FRAME_HEADER_BYTES {
        return Err(format!(
            "runt frame ({total} B < {FRAME_HEADER_BYTES} B header)"
        ));
    }
    if total > MAX_FRAME_BYTES {
        return Err(format!(
            "oversized frame ({total} B > {MAX_FRAME_BYTES} B cap) — corrupt stream?"
        ));
    }
    let mut hdr = [0u8; FRAME_HEADER_BYTES];
    s.read_exact(&mut hdr)
        .map_err(|e| format!("truncated frame header: {e}"))?;
    let header = FrameHeader::decode(&hdr);
    if header.src_world != expect_src {
        return Err(format!(
            "frame claims src_world {} on the connection from world {expect_src} — corrupt stream",
            header.src_world
        ));
    }
    // Read straight into the payload, which grows as bytes actually
    // arrive: `total` is not trusted enough to allocate it in one shot.
    let want = total - FRAME_HEADER_BYTES;
    let mut payload = Vec::with_capacity(want.min(PAYLOAD_PREALLOC_CAP));
    match s.take(want as u64).read_to_end(&mut payload) {
        Ok(got) if got == want => {}
        Ok(got) => {
            return Err(format!(
                "truncated frame payload: {got}/{want} bytes, then EOF"
            ))
        }
        Err(e) => return Err(format!("truncated frame payload: {e}")),
    }
    Ok(Some(Frame {
        header,
        payload: FramePayload::Bytes(payload),
    }))
}

fn spawn_reader(stream: &Stream, peer: usize, tx: crossbeam_channel::Sender<Incoming>) {
    let mut rd = stream
        .try_clone()
        .unwrap_or_else(|e| panic!("clone stream of world {peer} for reader: {e}"));
    std::thread::spawn(move || loop {
        match read_frame(&mut rd, peer) {
            Ok(Some(f)) => {
                if tx.send(Incoming::Frame(f)).is_err() {
                    return; // endpoint gone, we're shutting down
                }
            }
            Ok(None) => {
                let _ = tx.send(Incoming::Closed {
                    peer,
                    reason: "connection closed (peer exited)".into(),
                });
                return;
            }
            Err(reason) => {
                let _ = tx.send(Incoming::Closed { peer, reason });
                return;
            }
        }
    });
}

/// A rank's endpoint over its mesh of peer connections.
pub struct SocketEndpoint {
    kind: TransportKind,
    world_rank: usize,
    writers: Vec<Option<RefCell<Stream>>>,
    rx: crossbeam_channel::Receiver<Incoming>,
    /// Keeps the channel open even with zero peers (p = 1) so
    /// `recv_frame` times out instead of reporting a torn-down universe.
    _tx: crossbeam_channel::Sender<Incoming>,
    closed: RefCell<Vec<Option<String>>>,
}

impl Endpoint for SocketEndpoint {
    fn kind(&self) -> TransportKind {
        self.kind
    }

    fn send_frame(&self, dst_world: usize, header: FrameHeader, payload: SendPayload<'_>) {
        let payload = match payload {
            SendPayload::Bytes(b) => b,
            SendPayload::Typed(_) => {
                unreachable!("typed payload on a byte-oriented transport")
            }
        };
        let mut w = self.writers[dst_world]
            .as_ref()
            .expect("send to self goes through the mailbox, not the socket")
            .borrow_mut();
        write_frame(&mut w, &header.frame_lead(payload.len()), payload).unwrap_or_else(|e| {
            panic!(
                "rank (world {}) failed sending tag {:#x} to world {dst_world} over {}: {e} \
                 (peer process died?)",
                self.world_rank, header.tag, self.kind
            )
        });
    }

    fn recv_frame(&self, timeout: Option<Duration>) -> Result<Frame, RecvError> {
        let msg = match timeout {
            None => self.rx.recv().map_err(|_| RecvError::Disconnected)?,
            Some(d) => self.rx.recv_timeout(d).map_err(|e| match e {
                crossbeam_channel::RecvTimeoutError::Timeout => RecvError::Timeout,
                crossbeam_channel::RecvTimeoutError::Disconnected => RecvError::Disconnected,
            })?,
        };
        match msg {
            Incoming::Frame(f) => Ok(f),
            Incoming::Closed { peer, reason } => {
                self.closed.borrow_mut()[peer] = Some(reason);
                Err(RecvError::PeerClosed(peer))
            }
        }
    }

    fn closed_peer_info(&self, world: usize) -> Option<String> {
        self.closed.borrow().get(world).and_then(|r| r.clone())
    }
}

impl Drop for SocketEndpoint {
    fn drop(&mut self) {
        for w in self.writers.iter().flatten() {
            w.borrow().shutdown_write();
        }
    }
}

/// Deterministic backoff for dial attempt `attempt` by `rank`: doubling
/// base capped at 100 ms, plus a rank/attempt-derived jitter so peers
/// dialing the same root don't retry in lockstep.
fn backoff(rank: usize, attempt: u32) -> Duration {
    let base = Duration::from_millis((2u64 << attempt.min(6)).min(100));
    let jitter_ms = (rank as u64)
        .wrapping_mul(7919)
        .wrapping_add(u64::from(attempt).wrapping_mul(104_729))
        % 5;
    base + Duration::from_millis(jitter_ms)
}

/// Dials `addr` with retry/backoff until `deadline`.
fn dial(kind: TransportKind, addr: &str, rank: usize, deadline: Instant) -> Stream {
    let mut attempt = 0u32;
    loop {
        let res = match kind {
            TransportKind::Tcp => TcpStream::connect(addr).and_then(Stream::tcp),
            #[cfg(unix)]
            TransportKind::Uds => UnixStream::connect(addr).map(Stream::Unix),
            _ => unreachable!("dial on a non-socket transport"),
        };
        match res {
            Ok(s) => return s,
            Err(e) => {
                if Instant::now() >= deadline {
                    panic!(
                        "rank {rank}: could not reach {addr} over {kind} before the dial \
                         deadline (last error: {e}); is the root rank up, and is \
                         HIPMCL_TCP_ROOT the same on every rank?"
                    );
                }
                std::thread::sleep(backoff(rank, attempt));
                attempt += 1;
            }
        }
    }
}

/// Accepts one connection, polling until `deadline`.
fn accept_deadline(l: &Listener, rank: usize, expect: &str, deadline: Instant) -> Stream {
    l.set_nonblocking(true).expect("listener nonblocking");
    loop {
        match l.accept() {
            Ok(s) => {
                l.set_nonblocking(false).expect("listener blocking");
                return s;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if Instant::now() >= deadline {
                    panic!(
                        "rank {rank}: gave up waiting to accept {expect} before the dial \
                         deadline; a peer rank likely never started or cannot route here"
                    );
                }
                std::thread::sleep(POLL);
            }
            Err(e) => panic!("rank {rank}: accept failed while waiting for {expect}: {e}"),
        }
    }
}

/// Where rank 0 listens, resolved per mode (see module docs).
fn root_addr(
    kind: TransportKind,
    cfg: &UniverseConfig,
    dir: Option<&Path>,
    rank: usize,
    deadline: Instant,
) -> String {
    if kind == TransportKind::Uds {
        let dir = dir.expect("uds root_addr needs a session dir");
        return dir.join("sock_0").to_string_lossy().into_owned();
    }
    if let Some(root) = cfg
        .socket
        .root
        .clone()
        .or_else(|| std::env::var("HIPMCL_TCP_ROOT").ok())
    {
        return root;
    }
    // Local launch: rank 0 binds an ephemeral port and publishes it.
    let dir = dir.unwrap_or_else(|| {
        panic!(
            "tcp transport needs a rendezvous address for hand-launched ranks: set \
             HIPMCL_TCP_ROOT=HOST:PORT identically on every rank (rank 0 listens there)"
        )
    });
    if rank == 0 {
        // The caller (bind_root) publishes the bound address; this value
        // is the bind target.
        return "127.0.0.1:0".into();
    }
    // Non-root ranks poll for the published address.
    let path = dir.join("root_addr.txt");
    loop {
        if let Ok(s) = std::fs::read_to_string(&path) {
            return s.trim().to_string();
        }
        if Instant::now() >= deadline {
            panic!(
                "rank {rank}: root address file {} never appeared; rank 0 failed to bind?",
                path.display()
            );
        }
        std::thread::sleep(POLL);
    }
}

/// Rank 0's listener, bound with retry (a just-released port or a stale
/// socket file clears within the budget) and published when local.
fn bind_root(
    kind: TransportKind,
    addr: &str,
    dir: Option<&Path>,
    publish: bool,
    deadline: Instant,
) -> Listener {
    let listener = loop {
        let res = match kind {
            TransportKind::Tcp => TcpListener::bind(addr).map(Listener::Tcp),
            TransportKind::Uds => bind_unix(Path::new(addr)),
            _ => unreachable!("bind_root on a non-socket transport"),
        };
        match res {
            Ok(l) => break l,
            Err(e) => {
                if Instant::now() >= deadline {
                    panic!(
                        "rank 0: could not bind rendezvous listener on {addr} over {kind}: \
                         {e} (another process holding it? stale HIPMCL_TCP_ROOT?)",
                    );
                }
                std::thread::sleep(POLL * 10);
            }
        }
    };
    if publish {
        let dir = dir.expect("publishing the root address requires a session dir");
        let bound = match &listener {
            Listener::Tcp(l) => l.local_addr().expect("root local_addr").to_string(),
            #[cfg(unix)]
            Listener::Unix(_) => unreachable!("uds roots are never published via file"),
        };
        let tmp = dir.join("root_addr.tmp");
        std::fs::write(&tmp, &bound).expect("write root addr");
        std::fs::rename(tmp, dir.join("root_addr.txt")).expect("publish root addr");
    }
    listener
}

/// The address rank `rank` tells peers to dial.
fn advertised_addr(
    kind: TransportKind,
    listener: &Listener,
    root_stream: &Stream,
    cfg: &UniverseConfig,
    dir: Option<&Path>,
    rank: usize,
) -> String {
    match kind {
        TransportKind::Uds => {
            let dir = dir.expect("uds advertised_addr needs a session dir");
            dir.join(format!("sock_{rank}"))
                .to_string_lossy()
                .into_owned()
        }
        TransportKind::Tcp => {
            let port = match listener {
                Listener::Tcp(l) => l.local_addr().expect("peer local_addr").port(),
                #[cfg(unix)]
                Listener::Unix(_) => unreachable!("tcp advertise over unix listener"),
            };
            let bind = cfg
                .socket
                .bind
                .clone()
                .or_else(|| std::env::var("HIPMCL_TCP_BIND").ok());
            let host = match bind.as_deref().and_then(|b| b.rsplit_once(':')) {
                // An explicit non-wildcard bind host is also the dial-in
                // host (multi-homed machines).
                Some((h, _)) if h != "0.0.0.0" && h != "[::]" && h != "::" => h.to_string(),
                // Otherwise: the IP this host uses to reach the root is
                // the IP the cluster can route back to.
                _ => match root_stream.local_ip() {
                    Some(std::net::IpAddr::V6(ip)) => format!("[{ip}]"),
                    Some(ip) => ip.to_string(),
                    None => "127.0.0.1".into(),
                },
            };
            format!("{host}:{port}")
        }
        _ => unreachable!("advertised_addr on a non-socket transport"),
    }
}

/// Builds the fully-connected mesh for `rank` of `p` and wraps it in an
/// endpoint with one reader thread per peer.
pub(crate) fn connect_mesh(
    cfg: &UniverseConfig,
    rank: usize,
    p: usize,
    dir: Option<&Path>,
) -> SocketEndpoint {
    let kind = cfg.transport;
    let (tx, rx) = crossbeam_channel::unbounded::<Incoming>();
    let mut conns: Vec<Option<Stream>> = (0..p).map(|_| None).collect();
    if p > 1 {
        let deadline = Instant::now() + cfg.socket.dial_timeout;
        if rank == 0 {
            let addr = root_addr(kind, cfg, dir, rank, deadline);
            let publish = kind == TransportKind::Tcp && addr.ends_with(":0") && dir.is_some();
            let listener = bind_root(kind, &addr, dir, publish, deadline);
            let mut addrs: Vec<Option<String>> = (0..p).map(|_| None).collect();
            for _ in 1..p {
                let mut s = accept_deadline(&listener, rank, "a rank hello", deadline);
                let magic = read_word(&mut s).expect("hello magic");
                assert_eq!(
                    magic, HELLO_MAGIC,
                    "non-rank client dialed the rendezvous port"
                );
                let peer = read_word(&mut s).expect("hello rank") as usize;
                assert!(peer > 0 && peer < p, "hello from out-of-range rank {peer}");
                let addr = read_addr(&mut s).expect("hello addr");
                assert!(
                    conns[peer].is_none(),
                    "two processes both claim rank {peer}; check HIPMCL_TCP_RANK assignments"
                );
                addrs[peer] = Some(addr);
                conns[peer] = Some(s);
            }
            // Everyone reported in: send the address table to each peer.
            let mut table = rendezvous_msg(&[HELLO_MAGIC, p as u64]);
            for (i, a) in addrs.iter().enumerate().skip(1) {
                table.extend_from_slice(&(i as u64).to_le_bytes());
                push_addr(&mut table, a.as_ref().expect("all addrs known"));
            }
            for conn in conns.iter_mut().skip(1) {
                let s = conn.as_mut().expect("all peers connected");
                s.write_all(&table).expect("send address table");
            }
        } else {
            // Bind our own listener before advertising it.
            let listener = match kind {
                TransportKind::Tcp => {
                    let bind = cfg
                        .socket
                        .bind
                        .clone()
                        .or_else(|| std::env::var("HIPMCL_TCP_BIND").ok())
                        .unwrap_or_else(|| "0.0.0.0:0".into());
                    Listener::Tcp(TcpListener::bind(&bind).unwrap_or_else(|e| {
                        panic!("rank {rank}: could not bind peer listener on {bind}: {e}")
                    }))
                }
                TransportKind::Uds => {
                    let dir = dir.expect("uds needs a session dir");
                    bind_unix(&dir.join(format!("sock_{rank}")))
                        .unwrap_or_else(|e| panic!("rank {rank}: bind unix listener: {e}"))
                }
                _ => unreachable!(),
            };
            let addr = root_addr(kind, cfg, dir, rank, deadline);
            let mut root = dial(kind, &addr, rank, deadline);
            let advert = advertised_addr(kind, &listener, &root, cfg, dir, rank);
            let mut hello = rendezvous_msg(&[HELLO_MAGIC, rank as u64]);
            push_addr(&mut hello, &advert);
            root.write_all(&hello).expect("send hello");
            // Address table back from the root.
            let magic = read_word(&mut root).expect("table magic");
            assert_eq!(magic, HELLO_MAGIC, "bad rendezvous reply from root");
            let table_p = read_word(&mut root).expect("table size") as usize;
            assert_eq!(
                table_p, p,
                "root thinks the universe has {table_p} ranks, this rank thinks {p}; \
                 HIPMCL_TCP_RANKS must agree everywhere"
            );
            let mut addrs: Vec<Option<String>> = (0..p).map(|_| None).collect();
            for _ in 1..p {
                let i = read_word(&mut root).expect("table entry rank") as usize;
                addrs[i] = Some(read_addr(&mut root).expect("table entry addr"));
            }
            conns[0] = Some(root);
            // Complete the mesh: dial lower ranks, accept higher ones.
            for (i, a) in addrs.iter().enumerate().take(rank).skip(1) {
                let a = a.as_ref().expect("table covers all peers");
                let mut s = dial(kind, a, rank, deadline);
                s.write_all(&rendezvous_msg(&[HELLO_MAGIC, rank as u64]))
                    .expect("mesh hello");
                conns[i] = Some(s);
            }
            for _ in rank + 1..p {
                let mut s = accept_deadline(&listener, rank, "a higher-rank peer", deadline);
                let magic = read_word(&mut s).expect("mesh hello magic");
                assert_eq!(magic, HELLO_MAGIC, "non-rank client dialed a peer listener");
                let j = read_word(&mut s).expect("mesh hello rank") as usize;
                assert!(j > rank && j < p, "mesh hello from unexpected rank {j}");
                conns[j] = Some(s);
            }
        }
    }
    for (peer, s) in conns.iter().enumerate() {
        if let Some(s) = s {
            spawn_reader(s, peer, tx.clone());
        }
    }
    SocketEndpoint {
        kind,
        world_rank: rank,
        writers: conns.into_iter().map(|c| c.map(RefCell::new)).collect(),
        rx,
        _tx: tx,
        closed: RefCell::new(vec![None; p]),
    }
}

/// A hand-launched (multi-host) rank: connect, run the closure, then
/// exchange the per-rank results over the same connections so every rank
/// returns the full rank-ordered `Vec<R>` and the program continues.
pub(crate) fn standalone_rank<R, F>(cfg: &UniverseConfig, f: &F, id: &ChildIdentity) -> Vec<R>
where
    R: WirePayload,
    F: Fn(Comm) -> R + Sync,
{
    assert_eq!(
        id.ranks, cfg.ranks,
        "socket universe diverged between launcher and rank \
         (launcher: {} ranks, rank: {} ranks); code before a socket universe \
         must be deterministic",
        id.ranks, cfg.ranks
    );
    let endpoint = connect_mesh(cfg, id.rank, id.ranks, id.dir.as_deref());
    let shared = cfg.shared();
    // The two communicators (universe body, result exchange) must share
    // one mailbox: a fast peer's result frame can arrive while this rank
    // is still inside `f`, and would be lost if the first communicator's
    // pending buffer died with it.
    let mailbox = Rc::new(Mailbox::new(Box::new(endpoint)));
    let comm = Comm::from_mailbox(
        id.rank,
        id.ranks,
        std::sync::Arc::clone(&shared),
        Rc::clone(&mailbox),
    );
    let result = f(comm);
    let comm = Comm::from_mailbox(id.rank, id.ranks, shared, mailbox);
    exchange_results(&comm, result)
}

/// Rank 0 gathers every rank's encoded result and redistributes the full
/// table; all ranks decode to the identical rank-ordered `Vec<R>`.
fn exchange_results<R: WirePayload>(comm: &Comm, mine: R) -> Vec<R> {
    let p = comm.size();
    if p == 1 {
        return vec![mine];
    }
    if comm.rank() == 0 {
        let mut all: Vec<Vec<u8>> = Vec::with_capacity(p);
        all.push(mine.encoded());
        for r in 1..p {
            all.push(comm.recv(r, RESULT_TAG));
        }
        for r in 1..p {
            comm.send(r, RESULT_TAG, all.clone());
        }
        decode_results(&all)
    } else {
        comm.send(0, RESULT_TAG, mine.encoded());
        let all: Vec<Vec<u8>> = comm.recv(0, RESULT_TAG);
        decode_results(&all)
    }
}

fn decode_results<R: WirePayload>(all: &[Vec<u8>]) -> Vec<R> {
    all.iter()
        .enumerate()
        .map(|(rank, b)| {
            R::decode_all(b).unwrap_or_else(|e| panic!("decode result of rank {rank}: {e}"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::TimeModel;
    use crate::collectives::{allgather, allreduce, barrier, bcast};
    use crate::launch::{self, TCP_ENV_RANK, TCP_ENV_RANKS};
    use crate::machine::MachineModel;
    use crate::packet::WireSize;
    use crate::universe::Universe;
    use hipmcl_sparse::wire::{WireDecode, WireEncode, WireError, WireReader};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn sock_cfg(p: usize, kind: TransportKind) -> UniverseConfig {
        UniverseConfig::new(p, MachineModel::summit())
            .with_transport(kind)
            .with_recv_deadline(Some(Duration::from_secs(60)))
    }

    /// A dialed and an accepted loopback TCP stream, made the way the
    /// mesh makes them.
    fn loopback_streams() -> (Stream, Stream) {
        let listener = Listener::Tcp(TcpListener::bind("127.0.0.1:0").unwrap());
        let Listener::Tcp(l) = &listener else {
            unreachable!()
        };
        let addr = l.local_addr().unwrap().to_string();
        let deadline = Instant::now() + Duration::from_secs(5);
        let dialed = dial(TransportKind::Tcp, &addr, 0, deadline);
        (dialed, listener.accept().unwrap())
    }

    /// A connected endpoint pair over a loopback TCP socket, bypassing
    /// the rendezvous (unit-level plumbing tests).
    fn loopback_pair() -> (SocketEndpoint, SocketEndpoint) {
        let (a, b) = loopback_streams();
        let mk = |rank: usize, peer: usize, s: Stream| {
            let (tx, rx) = crossbeam_channel::unbounded::<Incoming>();
            spawn_reader(&s, peer, tx.clone());
            let mut writers: Vec<Option<RefCell<Stream>>> = (0..2).map(|_| None).collect();
            writers[peer] = Some(RefCell::new(s));
            SocketEndpoint {
                kind: TransportKind::Tcp,
                world_rank: rank,
                writers,
                rx,
                _tx: tx,
                closed: RefCell::new(vec![None; 2]),
            }
        };
        (mk(0, 1, a), mk(1, 0, b))
    }

    fn frame(src: usize, tag: u64, payload: Vec<u8>) -> Frame {
        Frame {
            header: FrameHeader {
                src_world: src,
                ctx: 0,
                tag,
                send_clock: 0.0,
                bytes: payload.len(),
            },
            payload: FramePayload::Bytes(payload),
        }
    }

    fn send(ep: &SocketEndpoint, dst: usize, f: Frame) {
        let FramePayload::Bytes(payload) = f.payload else {
            panic!("socket frames are bytes")
        };
        ep.send_frame(dst, f.header, SendPayload::Bytes(&payload));
    }

    #[test]
    fn frames_roundtrip_over_a_real_socket() {
        let (a, b) = loopback_pair();
        send(&a, 1, frame(0, 7, vec![1, 2, 3]));
        let f = b.recv_frame(Some(Duration::from_secs(5))).unwrap();
        assert_eq!(f.header.tag, 7);
        match f.payload {
            FramePayload::Bytes(p) => assert_eq!(p, vec![1, 2, 3]),
            FramePayload::Typed(_) => panic!("socket frames are bytes"),
        }
        // And a large frame that spans many reads.
        let big: Vec<u8> = (0..300_000u32).map(|i| (i % 251) as u8).collect();
        send(&b, 0, frame(1, 9, big.clone()));
        let f = a.recv_frame(Some(Duration::from_secs(5))).unwrap();
        match f.payload {
            FramePayload::Bytes(p) => assert_eq!(p, big),
            FramePayload::Typed(_) => panic!("socket frames are bytes"),
        }
    }

    #[test]
    fn dead_peer_surfaces_as_peer_closed_with_reason() {
        let (a, b) = loopback_pair();
        drop(a); // rank 0 "dies": write side shuts down, b's reader sees EOF
        match b.recv_frame(Some(Duration::from_secs(5))) {
            Err(RecvError::PeerClosed(0)) => {}
            other => panic!("expected PeerClosed(0), got {other:?}"),
        }
        let reason = b.closed_peer_info(0).expect("reason recorded");
        assert!(reason.contains("closed"), "got {reason:?}");
    }

    #[test]
    fn corrupt_length_prefix_closes_the_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut raw = TcpStream::connect(addr).unwrap();
        let s = Stream::Tcp(listener.accept().unwrap().0);
        let (tx, rx) = crossbeam_channel::unbounded::<Incoming>();
        spawn_reader(&s, 0, tx);
        // An absurd length prefix must be rejected, not allocated.
        raw.write_all(&u64::MAX.to_le_bytes()).unwrap();
        match rx.recv_timeout(Duration::from_secs(5)).unwrap() {
            Incoming::Closed { peer: 0, reason } => {
                assert!(reason.contains("oversized"), "got {reason:?}")
            }
            _ => panic!("expected Closed"),
        }
    }

    #[test]
    fn misattributed_src_world_closes_the_connection() {
        let (a, b) = loopback_pair();
        // Endpoint `a` is world 0, but claims src_world 5.
        send(&a, 1, frame(5, 7, vec![]));
        match b.recv_frame(Some(Duration::from_secs(5))) {
            Err(RecvError::PeerClosed(0)) => {}
            other => panic!("expected PeerClosed(0), got {other:?}"),
        }
        assert!(b.closed_peer_info(0).unwrap().contains("src_world"));
    }

    #[test]
    fn nagle_is_off_on_both_ends_of_a_tcp_connection() {
        let (dialed, accepted) = loopback_streams();
        for (side, s) in [("dialed", dialed), ("accepted", accepted)] {
            let Stream::Tcp(s) = s else { unreachable!() };
            assert!(s.nodelay().unwrap(), "{side} stream must set TCP_NODELAY");
        }
    }

    #[test]
    fn payload_shorter_than_its_length_prefix_closes_the_connection() {
        let (mut raw, s) = loopback_streams();
        let (tx, rx) = crossbeam_channel::unbounded::<Incoming>();
        spawn_reader(&s, 0, tx);
        // The prefix promises 100 payload bytes; 10 arrive, then EOF.
        let f = frame(0, 7, vec![]);
        raw.write_all(&f.header.frame_lead(100)).unwrap();
        raw.write_all(&[0xAB; 10]).unwrap();
        raw.shutdown_write();
        match rx.recv_timeout(Duration::from_secs(5)).unwrap() {
            Incoming::Closed { peer: 0, reason } => {
                assert!(reason.contains("truncated frame payload"), "got {reason:?}")
            }
            _ => panic!("expected Closed"),
        }
    }

    #[test]
    fn tcp_burst_of_small_sends_is_not_nagle_bound() {
        // Four 8-byte sends to one peer, then one reply: with Nagle on,
        // the second small write waits for the delayed ACK of the first
        // (~40 ms a round); without it a round is tens of microseconds.
        let results = Universe::run_with(sock_cfg(2, TransportKind::Tcp), |comm| {
            let mut rounds: Vec<f64> = (0..20)
                .map(|_| {
                    let t = Instant::now();
                    if comm.rank() == 0 {
                        for i in 0..4u64 {
                            comm.send(1, 5, i);
                        }
                        let _: u64 = comm.recv(1, 5);
                    } else {
                        let sum: u64 = (0..4).map(|_| comm.recv::<u64>(0, 5)).sum();
                        comm.send(0, 5, sum);
                    }
                    t.elapsed().as_secs_f64()
                })
                .collect();
            rounds.sort_by(f64::total_cmp);
            rounds[rounds.len() / 2]
        });
        assert!(
            results[0] < 5e-3,
            "median burst round took {:.1} ms",
            results[0] * 1e3
        );
    }

    #[test]
    fn tcp_p2p_roundtrip() {
        let results = Universe::run_with(sock_cfg(2, TransportKind::Tcp), |comm| {
            if comm.rank() == 0 {
                comm.send(1, 7, vec![1.5f64, 2.5, -0.0]);
                0.0
            } else {
                let v: Vec<f64> = comm.recv(0, 7);
                assert_eq!(v[2].to_bits(), (-0.0f64).to_bits(), "bits survive the wire");
                v.iter().sum()
            }
        });
        assert_eq!(results, vec![0.0, 4.0]);
    }

    #[test]
    fn uds_p2p_roundtrip() {
        let results = Universe::run_with(sock_cfg(2, TransportKind::Uds), |comm| {
            if comm.rank() == 0 {
                let v: u64 = comm.recv(1, 3);
                v * 2
            } else {
                comm.send(0, 3, 21u64);
                0
            }
        });
        assert_eq!(results, vec![42, 0]);
    }

    #[test]
    fn tcp_collectives_and_clocks_match_in_process() {
        let body = |comm: Comm| {
            let mut comm = comm;
            comm.advance_clock(comm.rank() as f64 * 1e-3);
            let sum = allreduce(&comm, comm.rank() as u64, |a, b| a + b);
            let all: Vec<u64> = allgather(&comm, sum + comm.rank() as u64);
            barrier(&comm);
            let sub = comm.split((comm.rank() % 2) as u64, comm.rank() as u64);
            let subs: Vec<u64> = allgather(&sub, comm.rank() as u64);
            (all, subs, comm.now())
        };
        let tcp = Universe::run_with(sock_cfg(4, TransportKind::Tcp), body);
        let inp = Universe::run_with(UniverseConfig::new(4, MachineModel::summit()), body);
        assert_eq!(
            tcp, inp,
            "results and modeled clocks identical across transports"
        );
    }

    /// A payload that counts, per process, how often it is encoded and
    /// decoded.
    #[derive(Clone)]
    struct Counted(Vec<u64>);
    static ENCODES: AtomicUsize = AtomicUsize::new(0);
    static DECODES: AtomicUsize = AtomicUsize::new(0);

    impl WireSize for Counted {
        fn wire_bytes(&self) -> usize {
            self.0.wire_bytes()
        }
    }
    impl WireEncode for Counted {
        fn encode(&self, out: &mut Vec<u8>) {
            ENCODES.fetch_add(1, Ordering::Relaxed);
            self.0.encode(out);
        }
    }
    impl WireDecode for Counted {
        fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
            DECODES.fetch_add(1, Ordering::Relaxed);
            Vec::decode(r).map(Counted)
        }
    }

    #[test]
    fn bcast_encodes_once_and_decodes_once_per_rank() {
        // Root 3 of 5: relative rank 2 (world 0) is the tree's one
        // interior node — it must forward the bytes it received, not
        // re-encode the value it decoded from them.
        const ROOT: usize = 3;
        let body = |comm: Comm| {
            comm.advance_clock(comm.rank() as f64 * 1e-4);
            let mine = (comm.rank() == ROOT).then(|| Counted((0..1000).collect()));
            let got = bcast(&comm, ROOT, mine);
            let counts = (
                ENCODES.load(Ordering::Relaxed) as u64,
                DECODES.load(Ordering::Relaxed) as u64,
            );
            (got.0, comm.now(), counts)
        };
        let uds = Universe::run_with(sock_cfg(5, TransportKind::Uds), body);
        let inp = Universe::run_with(UniverseConfig::new(5, MachineModel::summit()), body);
        for (rank, ((value, clock, counts), (inp_value, inp_clock, _))) in
            uds.iter().zip(&inp).enumerate()
        {
            assert_eq!(value, inp_value, "rank {rank} value");
            assert_eq!(
                clock.to_bits(),
                inp_clock.to_bits(),
                "rank {rank} modeled clock"
            );
            let want = if rank == ROOT { (1, 0) } else { (0, 1) };
            assert_eq!(*counts, want, "rank {rank} (encodes, decodes)");
        }
    }

    #[test]
    fn tcp_measured_time_reports_wall_seconds() {
        let cfg = sock_cfg(2, TransportKind::Tcp).with_time(TimeModel::Measured);
        let results = Universe::run_with(cfg, |comm| {
            // Both rank processes are live before the sleep starts: a
            // late spawn must not eat into the receiver's blocking time.
            // The barrier (reduce to 0, broadcast back) releases rank 0
            // first, so rank 0 receives and rank 1 sleeps; the counters
            // are a delta from after the barrier, so time blocked in the
            // barrier cannot pass for blocking here.
            crate::collectives::barrier(&comm);
            let before = comm.stats();
            if comm.rank() == 1 {
                std::thread::sleep(Duration::from_millis(5));
                comm.send(0, 0, vec![0u8; 1 << 16]);
            } else {
                let _: Vec<u8> = comm.recv(1, 0);
            }
            comm.stats().delta_since(&before)
        });
        assert!(results[0].modeled_comm_s > 0.0);
        assert!(
            results[0].measured_comm_s >= 0.004,
            "receiver measurably blocked, got {}",
            results[0].measured_comm_s
        );
    }

    #[test]
    fn sequential_socket_universes_replay_correctly() {
        // A uds universe then a tcp universe: the children of the second
        // must replay the first in-process (shared launch ordinals).
        let a = Universe::run_with(sock_cfg(2, TransportKind::Uds), |comm| {
            comm.rank() as u64 + 1
        });
        assert_eq!(a, vec![1, 2]);
        let b = Universe::run_with(sock_cfg(3, TransportKind::Tcp), |comm| {
            allreduce(&comm, comm.rank() as u64, |x, y| x + y)
        });
        assert_eq!(b, vec![3, 3, 3]);
    }

    #[test]
    fn single_rank_socket_universe() {
        let r = Universe::run_with(sock_cfg(1, TransportKind::Tcp), |comm| {
            assert_eq!(comm.size(), 1);
            comm.rank() as u64
        });
        assert_eq!(r, vec![0]);
    }

    #[test]
    fn killed_rank_fails_fast_with_diagnostics() {
        // Rank 0 dies mid-universe; rank 1 is blocked receiving from it.
        // The survivors must fail fast via PeerClosed — well inside the
        // 60 s recv deadline — and the parent must name the dead rank.
        let t0 = Instant::now();
        let caught = std::panic::catch_unwind(|| {
            let _ = Universe::run_with(sock_cfg(2, TransportKind::Tcp), |comm| {
                if comm.rank() == 0 {
                    // Simulated crash: no result file, sockets torn down.
                    std::process::exit(3);
                }
                let _: u64 = comm.recv(0, 99); // never sent
                0u64
            });
        })
        .unwrap_err();
        let msg = caught
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| caught.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(
            msg.contains("rank 0 exited"),
            "parent names the dead rank, got {msg:?}"
        );
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "fail-fast, not deadline-wait: took {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn standalone_multihost_mode_gathers_results_everywhere() {
        // Simulates `mpirun`-less multi-host launch on localhost: spawn 3
        // hand-launched ranks (HIPMCL_TCP_RANK/RANKS/ROOT, no session
        // dir, no universe ordinal) and check each got the full result
        // vector over the wire.
        if std::env::var(TCP_ENV_RANK).is_ok() {
            // We ARE one of the hand-launched ranks.
            let cfg =
                UniverseConfig::new(3, MachineModel::summit()).with_transport(TransportKind::Tcp);
            let v = Universe::run_with(cfg, |comm| comm.rank() as u64 * 3 + 1);
            assert_eq!(v, vec![1, 4, 7], "every rank sees the full gather");
            std::process::exit(0);
        }
        // Parent: reserve a root port by binding and dropping a listener.
        let root = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let exe = std::env::current_exe().unwrap();
        let args = launch::child_args();
        let children: Vec<_> = (0..3)
            .map(|rank: usize| {
                std::process::Command::new(&exe)
                    .args(&args)
                    .env(TCP_ENV_RANK, rank.to_string())
                    .env(TCP_ENV_RANKS, "3")
                    .env("HIPMCL_TCP_ROOT", &root)
                    .stdout(std::process::Stdio::null())
                    .spawn()
                    .unwrap()
            })
            .collect();
        for (rank, mut child) in children.into_iter().enumerate() {
            let status = child.wait().unwrap();
            assert!(status.success(), "standalone rank {rank}: {status}");
        }
    }
}
