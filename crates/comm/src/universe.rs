//! The universe: spawns `P` ranks and hands each a world communicator,
//! like `mpirun`.
//!
//! A universe is configured by transport × time model
//! ([`UniverseConfig`]): any [`TransportKind`] composes with any
//! [`TimeModel`]. [`Universe::run`] is the legacy deterministic entry
//! point (in-process threads, modeled time, bit-identical to the
//! pre-transport-split runtime); [`Universe::run_with`] takes an
//! explicit config; [`Universe::run_dist`] reads the config from the
//! environment (`HIPMCL_TRANSPORT`, `HIPMCL_TIME`,
//! `HIPMCL_RECV_DEADLINE_MS`) so one binary serves every mode.

use crate::clock::TimeModel;
use crate::comm::{Comm, Shared};
use crate::machine::MachineModel;
use crate::packet::WirePayload;
use crate::transport::{InProcessEndpoint, TransportKind};
use hipmcl_sparse::util::with_rank_threads;
use std::sync::Arc;
use std::time::Duration;

/// Default receive deadline when the policy wants one: long enough for
/// any honest workload step, short enough to fail a hung run. Applied
/// under [`TimeModel::Measured`] and — regardless of time model — on
/// every remote transport ([`TransportKind::is_remote`]), where a dead
/// peer process would otherwise hang the survivors forever.
pub const DEFAULT_RECV_DEADLINE: Duration = Duration::from_secs(30);

/// Socket-transport settings ([`TransportKind::Tcp`] /
/// [`TransportKind::Uds`]). Every field has a sensible default for the
/// single-host case; multi-host TCP runs set `root` (and usually `bind`)
/// per rank, either here or via the `HIPMCL_TCP_*` environment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SocketConfig {
    /// Rendezvous address rank 0 listens on, `HOST:PORT` (port `0` =
    /// ephemeral). Required for hand-launched multi-host TCP; picked
    /// automatically when a local parent orchestrates the launch.
    pub root: Option<String>,
    /// Local listener bind address for non-root ranks, `HOST:PORT`.
    /// Defaults to `0.0.0.0:0`; set it when the host is multi-homed and
    /// peers must dial a specific interface.
    pub bind: Option<String>,
    /// Total budget for the rendezvous: dialing with retry/backoff and
    /// waiting for all peers to accept.
    pub dial_timeout: Duration,
}

impl Default for SocketConfig {
    fn default() -> Self {
        Self {
            root: None,
            bind: None,
            dial_timeout: Duration::from_secs(20),
        }
    }
}

/// Validates a `HOST:PORT` string from the environment, returning an
/// actionable message naming the variable on failure.
fn parse_host_port(var: &str, s: &str) -> Result<String, String> {
    let (host, port) = s.rsplit_once(':').ok_or_else(|| {
        format!("{var}: expected HOST:PORT, got {s:?} (e.g. 10.0.0.1:7177, or node17:0 for an ephemeral port)")
    })?;
    if host.is_empty() {
        return Err(format!(
            "{var}: empty host in {s:?} (use 0.0.0.0:PORT to listen on all interfaces)"
        ));
    }
    if port.parse::<u16>().is_err() {
        return Err(format!(
            "{var}: port {port:?} in {s:?} is not a u16 (0-65535; 0 asks the OS for an ephemeral port)"
        ));
    }
    Ok(s.to_string())
}

/// Full configuration of a universe: rank count, machine model,
/// transport, time model, receive-deadline policy.
#[derive(Clone, Debug)]
pub struct UniverseConfig {
    /// Number of ranks.
    pub ranks: usize,
    /// The α–β/kernel cost model charged on the modeled clock.
    pub model: MachineModel,
    /// How bytes move between ranks.
    pub transport: TransportKind,
    /// How time is charged.
    pub time: TimeModel,
    /// Receive-deadline override: `Some(None)` forces deadlines off,
    /// `Some(Some(d))` forces `d`, `None` uses the policy default
    /// ([`DEFAULT_RECV_DEADLINE`] on remote transports and under
    /// Measured time, otherwise off).
    pub recv_deadline: Option<Option<Duration>>,
    /// Per-directed-pair ring capacity for the `process-shm` transport
    /// (bytes, > 0).
    pub shm_ring_bytes: usize,
    /// Socket-transport settings (addresses, dial budget).
    pub socket: SocketConfig,
}

impl UniverseConfig {
    /// The deterministic default: in-process transport, modeled time,
    /// no deadline.
    pub fn new(ranks: usize, model: MachineModel) -> Self {
        Self {
            ranks,
            model,
            transport: TransportKind::default(),
            time: TimeModel::default(),
            recv_deadline: None,
            shm_ring_bytes: 16 << 20,
            socket: SocketConfig::default(),
        }
    }

    /// Reads transport/time/deadline overrides from the environment:
    /// `HIPMCL_TRANSPORT` (`in-process` | `process-shm` | `tcp` | `uds`),
    /// `HIPMCL_TIME` (`modeled` | `measured`), `HIPMCL_RECV_DEADLINE_MS`
    /// (`0` = off), `HIPMCL_SHM_RING_BYTES`, and the socket settings
    /// `HIPMCL_TCP_ROOT` / `HIPMCL_TCP_BIND` (`HOST:PORT`) and
    /// `HIPMCL_TCP_DIAL_TIMEOUT_MS`. Unset variables
    /// keep the defaults; malformed values panic with the variable name
    /// and the accepted forms.
    pub fn from_env(ranks: usize, model: MachineModel) -> Self {
        Self::new(ranks, model)
            .apply_env(|key| std::env::var(key).ok())
            .unwrap_or_else(|msg| panic!("{msg}"))
    }

    /// [`UniverseConfig::from_env`] with the environment abstracted as a
    /// lookup function, so validation is testable without mutating the
    /// real (process-global, racy) environment. Returns the message
    /// `from_env` would panic with.
    pub fn apply_env(mut self, get: impl Fn(&str) -> Option<String>) -> Result<Self, String> {
        if let Some(s) = get("HIPMCL_TRANSPORT") {
            self.transport = TransportKind::parse(&s).ok_or_else(|| {
                format!(
                    "HIPMCL_TRANSPORT: unknown transport {s:?} \
                     (expected in-process | process-shm | tcp | uds)"
                )
            })?;
        }
        if let Some(s) = get("HIPMCL_TIME") {
            self.time = TimeModel::parse(&s).ok_or_else(|| {
                format!("HIPMCL_TIME: unknown time model {s:?} (expected modeled | measured)")
            })?;
        }
        if let Some(s) = get("HIPMCL_RECV_DEADLINE_MS") {
            let ms: u64 = s.parse().map_err(|_| {
                format!("HIPMCL_RECV_DEADLINE_MS: not a number: {s:?} (milliseconds; 0 = off)")
            })?;
            self.recv_deadline = Some((ms > 0).then(|| Duration::from_millis(ms)));
        }
        if let Some(s) = get("HIPMCL_SHM_RING_BYTES") {
            self.shm_ring_bytes = s.parse().map_err(|_| {
                format!("HIPMCL_SHM_RING_BYTES: not a number: {s:?} (ring capacity in bytes)")
            })?;
            if self.shm_ring_bytes == 0 {
                return Err(format!(
                    "HIPMCL_SHM_RING_BYTES: must be > 0, got {s:?} \
                     (a zero-byte ring can never carry a frame)"
                ));
            }
        }
        if let Some(s) = get("HIPMCL_TCP_ROOT") {
            self.socket.root = Some(parse_host_port("HIPMCL_TCP_ROOT", &s)?);
        }
        if let Some(s) = get("HIPMCL_TCP_BIND") {
            self.socket.bind = Some(parse_host_port("HIPMCL_TCP_BIND", &s)?);
        }
        if let Some(s) = get("HIPMCL_TCP_DIAL_TIMEOUT_MS") {
            let ms: u64 = s.parse().map_err(|_| {
                format!("HIPMCL_TCP_DIAL_TIMEOUT_MS: not a number: {s:?} (milliseconds, > 0)")
            })?;
            if ms == 0 {
                return Err(format!(
                    "HIPMCL_TCP_DIAL_TIMEOUT_MS: must be > 0, got {s:?} \
                     (a zero dial budget can never rendezvous)"
                ));
            }
            self.socket.dial_timeout = Duration::from_millis(ms);
        }
        Ok(self)
    }

    /// Replaces the transport.
    pub fn with_transport(mut self, t: TransportKind) -> Self {
        self.transport = t;
        self
    }

    /// Replaces the time model.
    pub fn with_time(mut self, t: TimeModel) -> Self {
        self.time = t;
        self
    }

    /// Overrides the receive deadline (`None` = deadlines off).
    pub fn with_recv_deadline(mut self, d: Option<Duration>) -> Self {
        self.recv_deadline = Some(d);
        self
    }

    /// The deadline actually in force after applying the policy default.
    /// An explicit override always wins. Otherwise remote transports
    /// ([`TransportKind::is_remote`]) get [`DEFAULT_RECV_DEADLINE`]
    /// under *every* time model — their peers are separate processes
    /// that can die independently, and a receive aimed at a corpse must
    /// fail with diagnostics, not hang (this used to key off the time
    /// model alone, which hung `HIPMCL_TIME=modeled` runs on real
    /// processes). In-process universes keep the time-model rule: off
    /// under Modeled (a deterministic run may legitimately idle at a
    /// blocking recv while a peer grinds), on under Measured.
    pub fn resolved_recv_deadline(&self) -> Option<Duration> {
        match self.recv_deadline {
            Some(explicit) => explicit,
            None if self.transport.is_remote() => Some(DEFAULT_RECV_DEADLINE),
            None => match self.time {
                TimeModel::Modeled => None,
                TimeModel::Measured => Some(DEFAULT_RECV_DEADLINE),
            },
        }
    }

    pub(crate) fn shared(&self) -> Arc<Shared> {
        Arc::new(Shared {
            model: self.model.clone(),
            time: self.time,
            recv_deadline: self.resolved_recv_deadline(),
        })
    }
}

/// Entry point of the simulated-MPI runtime.
pub struct Universe;

impl Universe {
    /// Runs `f` on `p` ranks (one OS thread each) under the given machine
    /// model and returns the per-rank results, indexed by rank. Always
    /// the deterministic default mode: in-process transport, modeled
    /// time.
    ///
    /// Every rank body runs with its own share of the host's cores as the
    /// width of its parallel kernels (the OpenMP analogue):
    /// `max(1, available_parallelism ÷ p)` threads per rank, set where a
    /// rank's [`Comm`] is built — here, and in a launched child process —
    /// by [`with_rank_threads`]. That is measured
    /// wall-clock only: modeled clocks never read the host, and price
    /// intra-rank threading from [`MachineModel::threads`] and
    /// [`MachineModel::thread_efficiency`] as before.
    ///
    /// Panics in any rank propagate after all ranks are joined.
    pub fn run<R, F>(p: usize, model: MachineModel, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Comm) -> R + Sync,
    {
        run_threads(&UniverseConfig::new(p, model), &f)
    }

    /// Runs `f` under an explicit [`UniverseConfig`] — any transport,
    /// any time model. Results must be wire-encodable because the process
    /// transports ship them back from child processes as bytes.
    pub fn run_with<R, F>(cfg: UniverseConfig, f: F) -> Vec<R>
    where
        R: WirePayload,
        F: Fn(Comm) -> R + Sync,
    {
        match cfg.transport {
            TransportKind::InProcess => run_threads(&cfg, &f),
            #[cfg(not(feature = "process-shm"))]
            TransportKind::ProcessShm => panic!(
                "transport process-shm requested but the `process-shm` cargo feature \
                 is not enabled; rebuild with --features process-shm"
            ),
            _ => crate::launch::run_processes(&cfg, &f),
        }
    }

    /// [`Universe::run_with`] with the config read from the environment
    /// ([`UniverseConfig::from_env`]) — the dispatch point probes and
    /// workload tests use so `HIPMCL_TRANSPORT=process-shm cargo test`
    /// exercises the real byte-moving backend with zero code changes.
    pub fn run_dist<R, F>(p: usize, model: MachineModel, f: F) -> Vec<R>
    where
        R: WirePayload,
        F: Fn(Comm) -> R + Sync,
    {
        Self::run_with(UniverseConfig::from_env(p, model), f)
    }
}

/// The in-process engine: one scoped thread per rank over typed
/// channels. Used directly by [`Universe::run`] and for the
/// `InProcess` arm of [`Universe::run_with`]; the process launcher also
/// reuses it to deterministically replay earlier universes inside child
/// processes.
pub(crate) fn run_threads<R, F>(cfg: &UniverseConfig, f: &F) -> Vec<R>
where
    R: Send,
    F: Fn(Comm) -> R + Sync,
{
    let p = cfg.ranks;
    assert!(p > 0, "need at least one rank");
    let shared = cfg.shared();
    let endpoints = InProcessEndpoint::universe(p);

    std::thread::scope(|scope| {
        let handles: Vec<_> = endpoints
            .into_iter()
            .enumerate()
            .map(|(rank, ep)| {
                let shared = Arc::clone(&shared);
                scope.spawn(move || {
                    with_rank_threads(p, || f(Comm::new_world(rank, p, shared, Box::new(ep))))
                })
            })
            .collect();
        // Join everyone before propagating, so a panicking rank cannot
        // leave peers running against torn-down channels; then re-raise
        // the first rank's original payload (keeps `should_panic`
        // expectations pointed at the real message, not a generic
        // "rank panicked").
        let results: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        results
            .into_iter()
            .map(|r| r.unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_rank_ordered() {
        let results = Universe::run(5, MachineModel::summit(), |comm| comm.rank() * 10);
        assert_eq!(results, vec![0, 10, 20, 30, 40]);
    }

    #[test]
    fn single_rank_universe() {
        let results = Universe::run(1, MachineModel::summit(), |comm| {
            assert_eq!(comm.size(), 1);
            comm.advance_clock(2.0);
            comm.now()
        });
        assert_eq!(results, vec![2.0]);
    }

    #[test]
    fn sequential_universes_are_independent() {
        for _ in 0..3 {
            let r = Universe::run(3, MachineModel::summit(), |comm| {
                if comm.rank() == 0 {
                    comm.send(2, 0, 99u32);
                    0
                } else if comm.rank() == 2 {
                    comm.recv::<u32>(0, 0)
                } else {
                    0
                }
            });
            assert_eq!(r[2], 99);
        }
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_rejected() {
        let _ = Universe::run(0, MachineModel::summit(), |_| ());
    }

    #[test]
    fn rank_panics_propagate_with_original_message() {
        let caught = std::panic::catch_unwind(|| {
            let _ = Universe::run(2, MachineModel::summit(), |comm| {
                if comm.rank() == 1 {
                    panic!("deliberate rank failure");
                }
            });
        })
        .unwrap_err();
        let msg = caught
            .downcast_ref::<&str>()
            .copied()
            .map(String::from)
            .or_else(|| caught.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("deliberate rank failure"), "got {msg:?}");
    }

    #[test]
    fn config_deadline_policy_defaults() {
        let m = MachineModel::summit;
        assert_eq!(UniverseConfig::new(2, m()).resolved_recv_deadline(), None);
        assert_eq!(
            UniverseConfig::new(2, m())
                .with_time(TimeModel::Measured)
                .resolved_recv_deadline(),
            Some(DEFAULT_RECV_DEADLINE)
        );
        assert_eq!(
            UniverseConfig::new(2, m())
                .with_time(TimeModel::Measured)
                .with_recv_deadline(None)
                .resolved_recv_deadline(),
            None,
            "explicit off beats the Measured default"
        );
        assert_eq!(
            UniverseConfig::new(2, m())
                .with_recv_deadline(Some(Duration::from_millis(5)))
                .resolved_recv_deadline(),
            Some(Duration::from_millis(5))
        );
    }

    #[test]
    fn remote_transports_default_to_a_deadline_even_under_modeled_time() {
        // The regression this pins: a dead peer process under
        // HIPMCL_TIME=modeled used to hang the survivors forever because
        // the deadline keyed off the time model alone.
        let m = MachineModel::summit;
        for t in [
            TransportKind::ProcessShm,
            TransportKind::Tcp,
            TransportKind::Uds,
        ] {
            let cfg = UniverseConfig::new(2, m()).with_transport(t);
            assert_eq!(cfg.time, TimeModel::Modeled);
            assert_eq!(
                cfg.resolved_recv_deadline(),
                Some(DEFAULT_RECV_DEADLINE),
                "remote transport {t} must have a default deadline"
            );
            assert_eq!(
                cfg.with_recv_deadline(None).resolved_recv_deadline(),
                None,
                "explicit off still wins on {t}"
            );
        }
    }

    fn env_of<'a>(pairs: &'a [(&'a str, &'a str)]) -> impl Fn(&str) -> Option<String> + 'a {
        move |key| {
            pairs
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| v.to_string())
        }
    }

    #[test]
    fn apply_env_accepts_well_formed_socket_settings() {
        let cfg = UniverseConfig::new(4, MachineModel::summit())
            .apply_env(env_of(&[
                ("HIPMCL_TRANSPORT", "tcp"),
                ("HIPMCL_TCP_ROOT", "10.0.0.1:7177"),
                ("HIPMCL_TCP_BIND", "0.0.0.0:0"),
                ("HIPMCL_TCP_DIAL_TIMEOUT_MS", "1500"),
            ]))
            .unwrap();
        assert_eq!(cfg.transport, TransportKind::Tcp);
        assert_eq!(cfg.socket.root.as_deref(), Some("10.0.0.1:7177"));
        assert_eq!(cfg.socket.bind.as_deref(), Some("0.0.0.0:0"));
        assert_eq!(cfg.socket.dial_timeout, Duration::from_millis(1500));
    }

    #[test]
    fn apply_env_rejects_malformed_values_with_actionable_messages() {
        let m = MachineModel::summit;
        let cases: &[(&str, &str, &str)] = &[
            (
                "HIPMCL_TRANSPORT",
                "carrier-pigeon",
                "in-process | process-shm | tcp | uds",
            ),
            ("HIPMCL_TCP_ROOT", "no-port-here", "HOST:PORT"),
            ("HIPMCL_TCP_ROOT", ":7177", "empty host"),
            ("HIPMCL_TCP_ROOT", "host:70000", "not a u16"),
            ("HIPMCL_TCP_BIND", "host:port", "not a u16"),
            ("HIPMCL_TCP_DIAL_TIMEOUT_MS", "soon", "not a number"),
            ("HIPMCL_TCP_DIAL_TIMEOUT_MS", "0", "must be > 0"),
            ("HIPMCL_RECV_DEADLINE_MS", "1e3", "not a number"),
            ("HIPMCL_SHM_RING_BYTES", "0", "must be > 0"),
        ];
        for (var, value, expect) in cases {
            let err = UniverseConfig::new(2, m())
                .apply_env(env_of(&[(var, value)]))
                .unwrap_err();
            assert!(
                err.contains(var) && err.contains(expect),
                "{var}={value:?}: message {err:?} should name the variable and say {expect:?}"
            );
        }
    }

    #[test]
    fn run_with_in_process_matches_run() {
        let cfg = UniverseConfig::new(3, MachineModel::summit());
        let a = Universe::run_with(cfg, |comm| comm.rank() as u64 * 7);
        let b = Universe::run(3, MachineModel::summit(), |comm| comm.rank() as u64 * 7);
        assert_eq!(a, b);
    }
}
