//! The one launcher for every transport that runs ranks as OS
//! *processes* (`process-shm` rings, TCP and Unix-domain sockets):
//! re-exec, replay, session directories and per-rank result files.
//!
//! # Re-exec and replay
//!
//! A closure cannot be shipped to another process, so
//! [`run_processes`] re-executes the current binary, `mpirun`-style.
//! The `run_with` caller becomes the **parent**: it creates a session
//! directory under `/dev/shm` (tmpfs; `shm` puts its ring files there),
//! writes `meta.bin` — (ranks, transport name, ring bytes) — and spawns
//! `P` copies of `current_exe()` with `HIPMCL_LAUNCH_{DIR,RANK,RANKS,
//! UNIVERSE}` set. Each child runs the same program from the top. Which
//! `run_with` call it serves is told by a per-thread **launch ordinal**
//! that parent and child bump at the same call sites, whatever the
//! transport. At its own ordinal a child checks `meta.bin` against its
//! own config, opens its endpoint (`ShmEndpoint::open` or the socket
//! mesh), runs the rank closure, writes its wire-encoded result to
//! `result_<rank>.bin` and exits; the parent names every rank that
//! failed, then decodes the results, so the caller sees the `Vec<R>` the
//! in-process transport would return. At any other ordinal the child
//! *replays* the universe in-process, which is sound because results are
//! bit-identical across transports.
//!
//! Hence the determinism contract: code executed before a process-backed
//! universe must be deterministic (no RNG without fixed seeds, no
//! branching on wall-clock or process-id values); `meta.bin` is the
//! tripwire for a replay that diverged. Under `cargo test`, the test
//! thread's name is the test's own path, which is how a child re-runs
//! just the right test (`<name> --exact --include-ignored
//! --test-threads=1`), `#[ignore]`d or not.
//!
//! # Hand-launched ranks
//!
//! Socket ranks started *by hand*, possibly on several machines, carry
//! `HIPMCL_TCP_{RANK,RANKS}` (and `HIPMCL_TCP_ROOT`, optionally
//! `HIPMCL_TCP_DIR`) but no launch ordinal. Every socket universe they
//! reach runs over the wire, and the per-rank results are exchanged
//! through the sockets themselves (`socket::standalone_rank`); every
//! other universe they replay in-process. Only the parent writes the
//! `HIPMCL_LAUNCH_*` variables; a process carries at most one of the two
//! rank variables.

use crate::comm::Comm;
use crate::packet::WirePayload;
use crate::transport::{Endpoint, TransportKind};
use crate::universe::{run_threads, UniverseConfig};
use hipmcl_sparse::util::with_rank_threads;
use hipmcl_sparse::wire::{WireDecode, WireEncode};
use std::cell::Cell;
use std::path::{Path, PathBuf};

/// Environment the parent sets on each launched child.
const LAUNCH_ENV_DIR: &str = "HIPMCL_LAUNCH_DIR";
const LAUNCH_ENV_RANK: &str = "HIPMCL_LAUNCH_RANK";
const LAUNCH_ENV_RANKS: &str = "HIPMCL_LAUNCH_RANKS";
const LAUNCH_ENV_UNIVERSE: &str = "HIPMCL_LAUNCH_UNIVERSE";

/// Environment of a hand-launched socket rank. `TCP` in the names covers
/// both socket transports.
const TCP_ENV_DIR: &str = "HIPMCL_TCP_DIR";
pub(crate) const TCP_ENV_RANK: &str = "HIPMCL_TCP_RANK";
pub(crate) const TCP_ENV_RANKS: &str = "HIPMCL_TCP_RANKS";

/// A child rank's identity, read from the environment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct ChildIdentity {
    /// This process's world rank.
    pub rank: usize,
    /// World size.
    pub ranks: usize,
    /// Ordinal of the universe a launched child serves; `None` for a
    /// hand-launched rank.
    pub universe: Option<u64>,
    /// Session directory (rings, rendezvous sockets, result files).
    /// Always present for launched children.
    pub dir: Option<PathBuf>,
}

thread_local! {
    /// Ordinal of the next process-backed universe requested on this
    /// thread, shared by every process transport (see module docs).
    static LAUNCH_ORDINAL: Cell<u64> = const { Cell::new(0) };
}

/// Issues the next launch ordinal. [`run_processes`] calls this on entry,
/// parent or child, which is what keeps the counters in lockstep across
/// the re-exec boundary.
pub(crate) fn next_ordinal() -> u64 {
    LAUNCH_ORDINAL.with(|c| {
        let v = c.get();
        c.set(v + 1);
        v
    })
}

/// Runs a process-backed universe: as the parent, as the launched child
/// that serves this ordinal, as a hand-launched socket rank, or as an
/// in-process replay — decided by the environment (see module docs).
pub(crate) fn run_processes<R, F>(cfg: &UniverseConfig, f: &F) -> Vec<R>
where
    R: WirePayload,
    F: Fn(Comm) -> R + Sync,
{
    assert!(cfg.ranks > 0, "need at least one rank");
    let ordinal = next_ordinal();
    match child_identity() {
        None => parent(cfg, ordinal),
        Some(id) if id.universe == Some(ordinal) => child(cfg, f, &id, ordinal),
        Some(id) if id.universe.is_none() && cfg.transport != TransportKind::ProcessShm => {
            crate::socket::standalone_rank(cfg, f, &id)
        }
        Some(_) => run_threads(cfg, f),
    }
}

/// What parent and child must agree on: (ranks, transport name, ring
/// bytes).
fn session_meta(cfg: &UniverseConfig) -> (u64, String, u64) {
    (
        cfg.ranks as u64,
        cfg.transport.name().to_string(),
        cfg.shm_ring_bytes as u64,
    )
}

/// The parent side: session setup, spawn, wait, result collection.
fn parent<R: WirePayload>(cfg: &UniverseConfig, ordinal: u64) -> Vec<R> {
    let p = cfg.ranks;
    let dir = create_session_dir("hipmcl-launch");
    let _guard = SessionGuard(dir.clone());
    #[cfg(feature = "process-shm")]
    if cfg.transport == TransportKind::ProcessShm {
        // A zero-byte ring has no room for any byte: every sender would
        // spin forever.
        assert!(cfg.shm_ring_bytes > 0, "shm_ring_bytes must be > 0");
        crate::shm::create_rings(&dir, p, cfg.shm_ring_bytes);
    }
    std::fs::write(dir.join("meta.bin"), session_meta(cfg).encoded()).expect("write session meta");

    let exe = std::env::current_exe().expect("current_exe for rank spawn");
    let args = child_args();
    let children: Vec<_> = (0..p)
        .map(|rank| {
            std::process::Command::new(&exe)
                .args(&args)
                .env(LAUNCH_ENV_DIR, &dir)
                .env(LAUNCH_ENV_RANK, rank.to_string())
                .env(LAUNCH_ENV_RANKS, p.to_string())
                .env(LAUNCH_ENV_UNIVERSE, ordinal.to_string())
                .stdout(std::process::Stdio::null())
                .spawn()
                .unwrap_or_else(|e| panic!("spawn rank {rank}: {e}"))
        })
        .collect();
    let failures: Vec<String> = children
        .into_iter()
        .enumerate()
        .filter_map(|(rank, mut child)| {
            let status = child.wait().expect("wait for rank");
            (!status.success()).then(|| format!("rank {rank} exited with {status}"))
        })
        .collect();
    assert!(
        failures.is_empty(),
        "{} universe {ordinal} failed: {} (peer diagnostics on the failing ranks' stderr)",
        cfg.transport,
        failures.join("; ")
    );
    collect_results(&dir, p)
}

/// The child side: check the replay tripwire, become rank `id.rank`, run
/// the closure, publish the result, exit without returning.
fn child<R, F>(cfg: &UniverseConfig, f: &F, id: &ChildIdentity, ordinal: u64) -> !
where
    R: WirePayload,
    F: Fn(Comm) -> R + Sync,
{
    let dir = id.dir.as_deref().expect("launched child session dir");
    let meta = std::fs::read(dir.join("meta.bin")).expect("read session meta");
    let parent_meta = <(u64, String, u64)>::decode_all(&meta).expect("decode session meta");
    let own_meta = session_meta(cfg);
    assert!(
        parent_meta == own_meta,
        "universe {ordinal} diverged between parent and child replay \
         (ranks, transport, ring bytes: parent {parent_meta:?}, child {own_meta:?}). \
         Code before a process-backed universe must be deterministic."
    );
    let (rank, p) = (id.rank, id.ranks);
    // All `p` ranks of a launched universe are on this host. The endpoint
    // is not `Send`, so it is opened on the rank's own thread.
    let encoded = with_rank_threads(p, || {
        let endpoint: Box<dyn Endpoint> = match cfg.transport {
            #[cfg(feature = "process-shm")]
            TransportKind::ProcessShm => Box::new(crate::shm::ShmEndpoint::open(dir, rank, p, cfg)),
            _ => Box::new(crate::socket::connect_mesh(cfg, rank, p, Some(dir))),
        };
        f(Comm::new_world(rank, p, cfg.shared(), endpoint)).encoded()
    });
    write_result(dir, rank, &encoded);
    std::process::exit(0);
}

/// Reads the child identity, if any, from the environment.
pub(crate) fn child_identity() -> Option<ChildIdentity> {
    child_identity_from(|key| std::env::var(key).ok())
}

/// [`child_identity`] with the environment abstracted as a lookup
/// function, so the launch protocol is testable without mutating the
/// real (process-global, racy) environment.
pub(crate) fn child_identity_from(get: impl Fn(&str) -> Option<String>) -> Option<ChildIdentity> {
    let launched = get(LAUNCH_ENV_RANK).is_some();
    let hand = get(TCP_ENV_RANK).is_some();
    assert!(
        !(launched && hand),
        "both {LAUNCH_ENV_RANK} and {TCP_ENV_RANK} are set; a rank is either launched \
         or hand-launched"
    );
    let number = |key: &str| -> u64 {
        get(key)
            .unwrap_or_else(|| panic!("{key} must be set alongside the rank variable"))
            .parse()
            .unwrap_or_else(|_| panic!("{key}: not a number"))
    };
    if launched {
        let dir = get(LAUNCH_ENV_DIR)
            .unwrap_or_else(|| panic!("{LAUNCH_ENV_DIR} must accompany {LAUNCH_ENV_RANK}"));
        return Some(ChildIdentity {
            rank: number(LAUNCH_ENV_RANK) as usize,
            ranks: number(LAUNCH_ENV_RANKS) as usize,
            universe: Some(number(LAUNCH_ENV_UNIVERSE)),
            dir: Some(PathBuf::from(dir)),
        });
    }
    hand.then(|| ChildIdentity {
        rank: number(TCP_ENV_RANK) as usize,
        ranks: number(TCP_ENV_RANKS) as usize,
        universe: None,
        dir: socket_dir(get(TCP_ENV_DIR)).unwrap_or_else(|msg| panic!("{msg}")),
    })
}

/// A hand-launched rank's session directory from the value of
/// `HIPMCL_TCP_DIR`: none when unset, an error when empty.
fn socket_dir(value: Option<String>) -> Result<Option<PathBuf>, String> {
    match value {
        Some(s) if s.is_empty() => Err(format!(
            "{TCP_ENV_DIR}: empty path (unset the variable to use a fresh /dev/shm dir)"
        )),
        value => Ok(value.map(PathBuf::from)),
    }
}

/// Process-unique suffix for session directories (two tests running
/// process-backed universes concurrently in one binary must not collide).
pub(crate) fn unique_session_id() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Directory for session state: `/dev/shm` when present (tmpfs pages are
/// shared memory, and short Unix-socket paths live happily there),
/// otherwise the system temp dir.
pub(crate) fn session_root() -> PathBuf {
    let shm = Path::new("/dev/shm");
    if shm.is_dir() {
        shm.to_path_buf()
    } else {
        std::env::temp_dir()
    }
}

/// Creates a fresh uniquely-named session directory under
/// [`session_root`].
pub(crate) fn create_session_dir(prefix: &str) -> PathBuf {
    let dir = session_root().join(format!(
        "{prefix}-{}-{}",
        std::process::id(),
        unique_session_id()
    ));
    std::fs::create_dir_all(&dir).expect("create session dir");
    dir
}

/// Removes the session directory when the parent is done (or panics).
pub(crate) struct SessionGuard(pub PathBuf);

impl Drop for SessionGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Arguments that make a re-executed child reach this exact call site.
pub(crate) fn child_args() -> Vec<String> {
    match std::thread::current().name() {
        // Under `cargo test`, libtest names each test thread after the
        // test's full path — rerun exactly that test, serially, also if it
        // is `#[ignore]`d.
        Some(name) if name != "main" => vec![
            name.to_string(),
            "--exact".into(),
            "--include-ignored".into(),
            "--test-threads=1".into(),
            "--nocapture".into(),
        ],
        // A normal binary: replay its own command line.
        _ => std::env::args().skip(1).collect(),
    }
}

/// Where rank `rank` publishes its wire-encoded result.
pub(crate) fn result_path(dir: &Path, rank: usize) -> PathBuf {
    dir.join(format!("result_{rank}.bin"))
}

/// Atomically publishes a child rank's encoded result (tmp + rename, so
/// the parent never reads a torn file).
pub(crate) fn write_result(dir: &Path, rank: usize, encoded: &[u8]) {
    let tmp = dir.join(format!("result_{rank}.tmp"));
    std::fs::write(&tmp, encoded).expect("write result");
    std::fs::rename(&tmp, result_path(dir, rank)).expect("publish result");
}

/// Reads and decodes every rank's result file, indexed by rank.
pub(crate) fn collect_results<R: WirePayload>(dir: &Path, p: usize) -> Vec<R> {
    (0..p)
        .map(|rank| {
            let path = result_path(dir, rank);
            let bytes =
                std::fs::read(&path).unwrap_or_else(|e| panic!("read result of rank {rank}: {e}"));
            R::decode_all(&bytes).unwrap_or_else(|e| panic!("decode result of rank {rank}: {e}"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordinals_increment_per_thread() {
        let a = next_ordinal();
        let b = next_ordinal();
        assert_eq!(b, a + 1);
        std::thread::spawn(|| assert_eq!(next_ordinal(), 0))
            .join()
            .unwrap();
    }

    fn env_of<'a>(pairs: &'a [(&'a str, &'a str)]) -> impl Fn(&str) -> Option<String> + 'a {
        move |key| {
            pairs
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| v.to_string())
        }
    }

    const LAUNCHED: [(&str, &str); 4] = [
        ("HIPMCL_LAUNCH_RANK", "2"),
        ("HIPMCL_LAUNCH_RANKS", "4"),
        ("HIPMCL_LAUNCH_UNIVERSE", "3"),
        ("HIPMCL_LAUNCH_DIR", "/tmp/mcl-session"),
    ];

    #[test]
    fn launched_variables_name_the_universe_and_session_dir() {
        let id = child_identity_from(env_of(&LAUNCHED)).unwrap();
        let want = ChildIdentity {
            rank: 2,
            ranks: 4,
            universe: Some(3),
            dir: Some(PathBuf::from("/tmp/mcl-session")),
        };
        assert_eq!(id, want);
    }

    #[test]
    fn hand_launch_variables_name_no_universe() {
        let id = child_identity_from(env_of(&[
            ("HIPMCL_TCP_RANK", "1"),
            ("HIPMCL_TCP_RANKS", "3"),
            ("HIPMCL_TCP_ROOT", "10.0.0.1:7177"),
        ]))
        .unwrap();
        let want = ChildIdentity {
            rank: 1,
            ranks: 3,
            universe: None,
            dir: None,
        };
        assert_eq!(id, want);
    }

    #[test]
    #[should_panic(expected = "both HIPMCL_LAUNCH_RANK and HIPMCL_TCP_RANK are set")]
    fn a_rank_is_launched_or_hand_launched_not_both() {
        let mut both = LAUNCHED.to_vec();
        both.extend([("HIPMCL_TCP_RANK", "2"), ("HIPMCL_TCP_RANKS", "4")]);
        child_identity_from(env_of(&both));
    }

    #[test]
    fn no_rank_variable_means_no_child() {
        let id = child_identity_from(env_of(&[("HIPMCL_TCP_ROOT", "10.0.0.1:7177")]));
        assert_eq!(id, None);
    }

    #[test]
    #[should_panic(expected = "HIPMCL_TCP_DIR: empty path")]
    fn an_empty_hand_launch_dir_is_refused() {
        child_identity_from(env_of(&[
            ("HIPMCL_TCP_RANK", "0"),
            ("HIPMCL_TCP_RANKS", "2"),
            ("HIPMCL_TCP_DIR", ""),
        ]));
    }

    #[cfg(feature = "process-shm")]
    #[test]
    #[should_panic(expected = "shm_ring_bytes must be > 0")]
    fn a_zero_byte_ring_is_refused_before_any_rank_spawns() {
        // One rank sends nothing: without the check this universe ends
        // (and the test fails) instead of spinning on a full ring.
        let mut cfg = UniverseConfig::new(1, crate::MachineModel::summit())
            .with_transport(TransportKind::ProcessShm);
        cfg.shm_ring_bytes = 0;
        crate::Universe::run_with(cfg, |comm| comm.rank() as u64);
    }

    #[test]
    fn a_socket_session_dir_must_not_be_empty() {
        assert_eq!(socket_dir(None), Ok(None));
        let dir = socket_dir(Some("/tmp/mcl-session".into()));
        assert_eq!(dir, Ok(Some(PathBuf::from("/tmp/mcl-session"))));
        let err = socket_dir(Some(String::new())).unwrap_err();
        assert!(
            err.contains(TCP_ENV_DIR) && err.contains("empty path"),
            "{err}"
        );
    }

    #[test]
    fn session_dirs_are_unique() {
        let a = create_session_dir("hipmcl-launchtest");
        let b = create_session_dir("hipmcl-launchtest");
        assert_ne!(a, b);
        let _ga = SessionGuard(a.clone());
        let _gb = SessionGuard(b.clone());
        assert!(a.is_dir() && b.is_dir());
    }

    #[test]
    fn results_roundtrip_through_files() {
        let dir = create_session_dir("hipmcl-launchtest");
        let _g = SessionGuard(dir.clone());
        use hipmcl_sparse::wire::WireEncode;
        for rank in 0..3usize {
            write_result(&dir, rank, &(rank as u64 * 7).encoded());
        }
        let got: Vec<u64> = collect_results(&dir, 3);
        assert_eq!(got, vec![0, 7, 14]);
    }
}
