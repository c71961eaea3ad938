//! **Transport ablation** — runs the identical Archaea MCL workload over
//! every (transport × time model) arm and proves the tentpole claim of
//! the transport/time split: *what* the pipeline computes is a property
//! of the algorithm, not of how frames move or how time is charged.
//!
//! Checks, per rank count (4 and 9, capped by `HIPMCL_MAX_RANKS`):
//!
//! * cluster labels are **bit-identical** across `InProcess`,
//!   `ProcessShm` (the feature-gated OS-process/shared-memory-ring
//!   backend) and `Tcp` (the always-built socket backend on localhost),
//!   and across `Modeled`/`Measured` time;
//! * the modeled total time and iteration count are exactly equal on
//!   every arm (the modeled clock stays authoritative under `Measured`);
//! * under `Measured`, the report carries a non-trivial wall-clock
//!   stage breakdown next to the modeled one, which is printed as a
//!   modeled-vs-measured table per stage;
//! * before any arm runs, a **kill-one-rank** check: a 2-rank TCP
//!   universe whose rank 0 dies mid-iteration must fail fast with
//!   rank/tag/peer diagnostics ("peer rank died …"), not hang out the
//!   receive deadline.
//!
//! The `ProcessShm` arms exist only when the crate is built with
//! `--features process-shm`; without it the probe runs the in-process
//! and socket arms and says so. Results land in
//! `results/probe_transport.csv`.

use hipmcl_bench::*;
use hipmcl_comm::{MachineModel, TimeModel, TransportKind, Universe, UniverseConfig};
use hipmcl_core::dist::DistMclReport;
use hipmcl_core::MclConfig;
use hipmcl_workloads::Dataset;

fn panic_message(cause: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = cause.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = cause.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Fail-fast check: kill rank 0 of a 2-rank TCP universe and require the
/// survivor to die with rank/tag/peer diagnostics instead of hanging out
/// the receive deadline.
///
/// This runs *first* so the check owns launch ordinal 0 in every process
/// of the tree. Children spawned for later socket/shm arms re-enter
/// `main` and replay this ordinal in-process, where the closure
/// early-returns (the replay transport is `InProcess`, not `Tcp`). The
/// kill check's own surviving rank catches the "peer rank died" panic,
/// verifies the diagnostics, and exits cleanly, so the parent's failure
/// report names exactly the rank that was killed.
fn kill_one_rank_check() {
    use std::time::{Duration, Instant};

    if max_ranks(usize::MAX) < 2 {
        println!("note: HIPMCL_MAX_RANKS < 2; kill-one-rank check skipped\n");
        return;
    }
    // The two child processes of the real TCP kill universe see
    // HIPMCL_LAUNCH_UNIVERSE=0; children of later arms see a later
    // ordinal and take the replay path above.
    let is_kill_child = std::env::var("HIPMCL_LAUNCH_UNIVERSE").as_deref() == Ok("0");
    let in_any_child = std::env::var("HIPMCL_LAUNCH_RANK").is_ok();
    let t0 = Instant::now();
    let ucfg = UniverseConfig::new(2, MachineModel::summit_bench())
        .with_transport(TransportKind::Tcp)
        .with_time(TimeModel::Modeled);
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
        Universe::run_with(ucfg, |comm| {
            if comm.transport() != TransportKind::Tcp {
                // In-process replay inside a child spawned for a later
                // arm: nothing to kill, nothing to check.
                return 0u64;
            }
            if comm.rank() == 0 {
                // Die without ceremony, as a crashed remote rank would.
                std::process::exit(3);
            }
            // The survivor blocks on the dead peer; the transport must
            // turn the closed connection into diagnostics, not a hang.
            let _: u64 = comm.recv(0, 99);
            unreachable!("recv from a dead peer returned data");
        });
    }));
    match outcome {
        Err(cause) => {
            // `&*cause`: downcast the payload, not the Box around it.
            let msg = panic_message(&*cause);
            if is_kill_child {
                // We are the surviving rank: our recv just died. Check
                // the diagnostics name the tag (99 = 0x63) and exit 0 so
                // the parent's failure list holds only the killed rank.
                if msg.contains("peer rank died") && msg.contains("tag 0x63") {
                    std::process::exit(0);
                }
                eprintln!("kill check: survivor died without rank/tag/peer diagnostics: {msg}");
                std::process::exit(5);
            }
            // Parent: the universe failed and named the killed rank.
            assert!(
                msg.contains("rank 0 exited") && msg.contains("3"),
                "kill check: expected 'rank 0 exited ... 3' in: {msg}"
            );
            assert!(
                !msg.contains("rank 1 exited"),
                "kill check: the survivor should have exited cleanly, got: {msg}"
            );
            let elapsed = t0.elapsed();
            assert!(
                elapsed < Duration::from_secs(25),
                "kill check: took {elapsed:?}; must fail well before the 30 s recv deadline"
            );
            println!(
                "kill-one-rank check: TCP universe failed fast with diagnostics ({elapsed:.2?})\n"
            );
        }
        Ok(()) => {
            if is_kill_child {
                eprintln!("kill check: child ran to completion instead of dying/exiting");
                std::process::exit(5);
            }
            assert!(in_any_child, "kill check did not detect the dead rank");
            // A later-arm child replayed the ordinal in-process: fine.
        }
    }
}

/// One (transport, time) arm of the ablation. The universe config is the
/// only thing that varies — the rank body is byte-for-byte the same.
fn run_arm(p: usize, transport: TransportKind, time: TimeModel, cfg: &MclConfig) -> DistMclReport {
    let ucfg = UniverseConfig::new(p, MachineModel::summit_bench())
        .with_transport(transport)
        .with_time(time);
    let reports = Universe::run_with(ucfg, |comm| {
        run_scattered_on(comm, Dataset::Archaea, cfg, |_, _| {})
    });
    reports.into_iter().next().unwrap()
}

fn main() {
    println!("Transport ablation: archaea MCL across (transport x time) arms\n");
    kill_one_rank_check();
    let shm_built = cfg!(feature = "process-shm");
    if !shm_built {
        println!("note: built without --features process-shm; ProcessShm arms skipped\n");
    }
    let mut arms: Vec<(TransportKind, TimeModel)> = vec![
        (TransportKind::InProcess, TimeModel::Modeled),
        (TransportKind::InProcess, TimeModel::Measured),
    ];
    if shm_built {
        arms.push((TransportKind::ProcessShm, TimeModel::Modeled));
        arms.push((TransportKind::ProcessShm, TimeModel::Measured));
    }
    // The socket backend is pure std and always built.
    arms.push((TransportKind::Tcp, TimeModel::Modeled));
    arms.push((TransportKind::Tcp, TimeModel::Measured));

    let headers = [
        "ranks",
        "transport",
        "time",
        "clusters",
        "iters",
        "modeled_total_s",
        "measured_stage_s",
        "labels_match",
    ];
    let mut rows: Vec<Vec<String>> = Vec::new();

    let cap = max_ranks(usize::MAX);
    for p in [4usize, 9].into_iter().filter(|&p| p <= cap) {
        let cfg = bench_mcl_config_for(Dataset::Archaea, MclConfig::optimized(4 << 30));
        println!("== {p} ranks");
        let mut baseline: Option<DistMclReport> = None;
        for &(transport, time) in &arms {
            let r = run_arm(p, transport, time, &cfg);
            let measured_total: f64 = r.stage_times_measured.iter().map(|(_, t)| t).sum();
            let labels_match = match &baseline {
                None => {
                    baseline = Some(r.clone());
                    true
                }
                Some(b) => {
                    // The tentpole guarantee: transports and time models
                    // change observability, never results. Labels must be
                    // bit-identical and the modeled clock untouched.
                    assert_eq!(
                        b.labels,
                        r.labels,
                        "{p} ranks: labels diverged on ({}, {})",
                        transport.name(),
                        time.name()
                    );
                    assert_eq!(
                        b.iterations,
                        r.iterations,
                        "{p} ranks: iteration count diverged on ({}, {})",
                        transport.name(),
                        time.name()
                    );
                    assert_eq!(
                        b.total_time.to_bits(),
                        r.total_time.to_bits(),
                        "{p} ranks: modeled total time diverged on ({}, {})",
                        transport.name(),
                        time.name()
                    );
                    true
                }
            };
            println!(
                "   {:<12} {:<9} clusters {:<6} iters {:<3} modeled {:>10} measured {:>10}",
                transport.name(),
                time.name(),
                r.num_clusters,
                r.iterations,
                fmt_time(r.total_time),
                fmt_time(measured_total),
            );
            if time.is_measured() {
                println!("      {:<16} {:>12} {:>12}", "stage", "modeled", "measured");
                for ((name, modeled), (_, measured)) in
                    r.stage_times.iter().zip(&r.stage_times_measured)
                {
                    println!(
                        "      {:<16} {:>12} {:>12}",
                        name,
                        fmt_time(*modeled),
                        fmt_time(*measured)
                    );
                }
            }
            rows.push(vec![
                p.to_string(),
                transport.name().to_string(),
                time.name().to_string(),
                r.num_clusters.to_string(),
                r.iterations.to_string(),
                format!("{:.6}", r.total_time),
                format!("{measured_total:.6}"),
                labels_match.to_string(),
            ]);
        }
        println!();
    }

    let csv = write_csv("probe_transport", &headers, &rows);
    println!("all arms bit-identical; wrote {}", csv.display());
}
