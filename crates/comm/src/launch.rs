//! Shared machinery for transports that run ranks as OS *processes*
//! (`process-shm` rings, TCP/Unix-domain sockets): re-exec bookkeeping,
//! session directories, and per-rank result files.
//!
//! # The re-exec / replay contract
//!
//! A closure cannot be shipped to another process, so every process
//! backend re-executes the current binary, `mpirun`-style, and lets the
//! child run the same program from the top until it reaches the target
//! `run_with` call. "The target" is identified by a per-thread **launch
//! ordinal** shared by *all* process transports: parent and child bump
//! it at the same call sites, so a TCP child on its way to universe 3
//! replays an earlier `process-shm` universe 1 in-process rather than
//! spawning a nested process tree. The consequence is the determinism
//! contract documented in the `shm` module: code executed before a
//! process-backed universe must be deterministic.
//!
//! A child learns its identity from the environment
//! ([`child_identity`]): which transport family launched it, its rank,
//! the world size, and — when a parent on the same host orchestrates the
//! launch — the session directory and target ordinal. Socket ranks
//! launched *by hand* on several machines (`HIPMCL_TCP_RANK` set, no
//! session directory) have no target ordinal: every socket universe they
//! reach runs over the wire, and results are exchanged through the
//! sockets themselves instead of through files.

use crate::packet::WirePayload;
use std::cell::Cell;
use std::path::{Path, PathBuf};

/// Environment of a `process-shm` child rank.
pub(crate) const SHM_ENV_DIR: &str = "HIPMCL_SHM_DIR";
pub(crate) const SHM_ENV_RANK: &str = "HIPMCL_SHM_RANK";
pub(crate) const SHM_ENV_RANKS: &str = "HIPMCL_SHM_RANKS";
pub(crate) const SHM_ENV_UNIVERSE: &str = "HIPMCL_SHM_UNIVERSE";

/// Environment of a socket (TCP / Unix-domain) child rank. `TCP` in the
/// names covers both socket transports — the Unix-domain variant is the
/// same launch protocol with paths instead of addresses.
pub(crate) const TCP_ENV_DIR: &str = "HIPMCL_TCP_DIR";
pub(crate) const TCP_ENV_RANK: &str = "HIPMCL_TCP_RANK";
pub(crate) const TCP_ENV_RANKS: &str = "HIPMCL_TCP_RANKS";
pub(crate) const TCP_ENV_UNIVERSE: &str = "HIPMCL_TCP_UNIVERSE";

/// Which process transport launched a child.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum LaunchFamily {
    /// Shared-memory rings (`HIPMCL_SHM_*`).
    Shm,
    /// Stream sockets (`HIPMCL_TCP_*`), TCP or Unix-domain.
    Socket,
}

/// A child rank's identity, read from the environment.
#[derive(Clone, Debug)]
pub(crate) struct ChildIdentity {
    /// Transport family that set the variables.
    pub family: LaunchFamily,
    /// This process's world rank.
    pub rank: usize,
    /// World size.
    pub ranks: usize,
    /// Ordinal of the universe this child serves, when a parent process
    /// orchestrates the launch. `None` for hand-launched socket ranks,
    /// which serve *every* socket universe the program reaches.
    pub universe: Option<u64>,
    /// Session directory (rings, rendezvous sockets, result files).
    /// Always present for parent-orchestrated launches.
    pub dir: Option<PathBuf>,
}

impl ChildIdentity {
    /// `true` if this launch `ordinal` is the one the child was spawned
    /// to serve. Hand-launched ranks serve every universe of their
    /// family.
    pub fn serves(&self, ordinal: u64) -> bool {
        match self.universe {
            Some(target) => target == ordinal,
            None => true,
        }
    }
}

thread_local! {
    /// Ordinal of the next process-backed universe requested on this
    /// thread, shared by every launch family (see module docs).
    static LAUNCH_ORDINAL: Cell<u64> = const { Cell::new(0) };
}

/// Issues the next launch ordinal. Every process transport calls this at
/// its `run_with` entry, parent or child, which is what keeps the
/// counters in lockstep across the re-exec boundary.
pub(crate) fn next_ordinal() -> u64 {
    LAUNCH_ORDINAL.with(|c| {
        let v = c.get();
        c.set(v + 1);
        v
    })
}

fn env_usize(key: &str) -> usize {
    std::env::var(key)
        .unwrap_or_else(|_| panic!("{key} must be set alongside the rank variable"))
        .parse()
        .unwrap_or_else(|_| panic!("{key}: not a number"))
}

/// Reads the child identity, if any, from the environment. At most one
/// launch family's rank variable may be set.
pub(crate) fn child_identity() -> Option<ChildIdentity> {
    let shm = std::env::var(SHM_ENV_RANK).ok();
    let tcp = std::env::var(TCP_ENV_RANK).ok();
    assert!(
        shm.is_none() || tcp.is_none(),
        "both {SHM_ENV_RANK} and {TCP_ENV_RANK} are set; a child belongs to one launch family"
    );
    if let Some(rank_s) = shm {
        let universe: u64 = std::env::var(SHM_ENV_UNIVERSE)
            .unwrap_or_else(|_| panic!("{SHM_ENV_UNIVERSE} must accompany {SHM_ENV_RANK}"))
            .parse()
            .unwrap_or_else(|_| panic!("{SHM_ENV_UNIVERSE}: not a number"));
        return Some(ChildIdentity {
            family: LaunchFamily::Shm,
            rank: rank_s
                .parse()
                .unwrap_or_else(|_| panic!("{SHM_ENV_RANK}: not a number")),
            ranks: env_usize(SHM_ENV_RANKS),
            universe: Some(universe),
            dir: Some(PathBuf::from(std::env::var(SHM_ENV_DIR).unwrap_or_else(
                |_| panic!("{SHM_ENV_DIR} must accompany {SHM_ENV_RANK}"),
            ))),
        });
    }
    if let Some(rank_s) = tcp {
        // A parent-orchestrated socket child carries a session directory
        // and a target ordinal; a hand-launched multi-host rank carries
        // neither and serves every socket universe.
        let universe = std::env::var(TCP_ENV_UNIVERSE).ok().map(|s| {
            s.parse()
                .unwrap_or_else(|_| panic!("{TCP_ENV_UNIVERSE}: not a number"))
        });
        return Some(ChildIdentity {
            family: LaunchFamily::Socket,
            rank: rank_s
                .parse()
                .unwrap_or_else(|_| panic!("{TCP_ENV_RANK}: not a number")),
            ranks: env_usize(TCP_ENV_RANKS),
            universe,
            dir: socket_dir(std::env::var(TCP_ENV_DIR).ok()).unwrap_or_else(|msg| panic!("{msg}")),
        });
    }
    None
}

/// A socket child's session directory from the value of `HIPMCL_TCP_DIR`:
/// none when unset, an error when empty.
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
        // test's full path — rerun exactly that test, serially.
        Some(name) if name != "main" => vec![
            name.to_string(),
            "--exact".into(),
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
