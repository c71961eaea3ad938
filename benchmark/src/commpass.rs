//! The comm pass: point-to-point and collective micro-measurements on
//! one 4-rank universe per transport, each universe in its own process
//! invocation (see the replay contract in `launch.rs`).
//!
//! `burst4` is the pattern a ping-pong cannot see: four small sends to
//! one peer, then one reply. On a TCP socket without `TCP_NODELAY` the
//! second small write waits for the delayed ACK of the first, which is
//! where the socket workloads' collectives lose their time.

use crate::stats::median;
use crate::workloads::RANKS;
use hipmcl_comm::collectives::{allreduce, barrier, bcast};
use hipmcl_comm::{Comm, MachineModel, TransportKind, Universe, UniverseConfig};
use std::time::Instant;

/// Metric stems, in the order [`run`] returns their values.
pub const STEMS: [&str; 5] = [
    "p2p_lat_us",
    "burst4_us",
    "p2p_gbps",
    "allreduce_us",
    "bcast_ms",
];

/// The transports of the pass, by their suffix in metric names.
pub const TRANSPORTS: [(&str, TransportKind); 4] = [
    ("inproc", TransportKind::InProcess),
    ("shm", TransportKind::ProcessShm),
    ("uds", TransportKind::Uds),
    ("tcp", TransportKind::Tcp),
];

const TAG: u64 = 0xBE;
const BANDWIDTH_WORDS: usize = (4 << 20) / 8;
const PANEL_WORDS: usize = (1 << 20) / 8;

/// Runs the pass on `transport` and returns rank 0's medians, one per
/// entry of [`STEMS`].
pub fn run(transport: TransportKind, smoke: bool) -> Vec<f64> {
    let ucfg = UniverseConfig::new(RANKS, MachineModel::summit_bench()).with_transport(transport);
    let mut per_rank: Vec<Vec<f64>> = Universe::run_with(ucfg, move |comm| body(&comm, smoke));
    per_rank.swap_remove(0)
}

/// Median seconds per exchange between ranks 0 and 1 (the others wait at
/// the closing barrier). `prepare` builds each exchange's input outside
/// the timed window.
fn timed<I>(
    comm: &Comm,
    reps: usize,
    mut prepare: impl FnMut() -> I,
    mut exchange: impl FnMut(I),
) -> f64 {
    barrier(comm);
    let mut samples = Vec::with_capacity(reps);
    if comm.rank() < 2 {
        exchange(prepare()); // connection and allocator warm-up
        for _ in 0..reps {
            let input = prepare();
            let t = Instant::now();
            exchange(input);
            samples.push(t.elapsed().as_secs_f64());
        }
    }
    barrier(comm);
    median(&samples)
}

fn body(comm: &Comm, smoke: bool) -> Vec<f64> {
    let rank = comm.rank();
    let (many, few) = if smoke { (20, 3) } else { (200, 11) };

    let round_trip = timed(
        comm,
        many,
        || (),
        |()| {
            if rank == 0 {
                comm.send(1, TAG, 1u64);
                let _: u64 = comm.recv(1, TAG);
            } else {
                let x: u64 = comm.recv(0, TAG);
                comm.send(0, TAG, x);
            }
        },
    );

    let burst = timed(
        comm,
        few,
        || (),
        |()| {
            if rank == 0 {
                for i in 0..4u64 {
                    comm.send(1, TAG, i);
                }
                let _: u64 = comm.recv(1, TAG);
            } else {
                let sum: u64 = (0..4).map(|_| comm.recv::<u64>(0, TAG)).sum();
                comm.send(0, TAG, sum);
            }
        },
    );

    let transfer = timed(
        comm,
        few,
        || (rank == 0).then(|| vec![1.0f64; BANDWIDTH_WORDS]),
        |payload| match payload {
            Some(payload) => {
                comm.send(1, TAG, payload);
                let _: u64 = comm.recv(1, TAG);
            }
            None => {
                let got: Vec<f64> = comm.recv(0, TAG);
                comm.send(0, TAG, got.len() as u64);
            }
        },
    );

    barrier(comm);
    let reduce: Vec<f64> = (0..few * 2)
        .map(|_| {
            let t = Instant::now();
            allreduce(comm, 1.0f64, |a, b| a + b);
            t.elapsed().as_secs_f64()
        })
        .collect();

    // Broadcast of a ~1 MiB panel, timed on the root until every other
    // rank has acknowledged receipt.
    let spread: Vec<f64> = (0..few)
        .map(|_| {
            let panel = (rank == 0).then(|| vec![1.0f64; PANEL_WORDS]);
            barrier(comm);
            let t = Instant::now();
            let got = bcast(comm, 0, panel);
            if rank == 0 {
                for r in 1..comm.size() {
                    let _: u64 = comm.recv(r, TAG);
                }
            } else {
                comm.send(0, TAG, got.len() as u64);
            }
            t.elapsed().as_secs_f64()
        })
        .collect();

    // Only rank 0's numbers are reported; ranks 2 and 3 timed nothing.
    let gbps = if transfer > 0.0 {
        (BANDWIDTH_WORDS * 8) as f64 / transfer / 1e9
    } else {
        0.0
    };
    vec![
        round_trip / 2.0 * 1e6,
        burst * 1e6,
        gbps,
        median(&reduce) * 1e6,
        median(&spread) * 1e3,
    ]
}
