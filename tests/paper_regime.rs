//! The drivers at n = 2^17, the smallest size where the serial driver's
//! accumulator is hashed ([`Addressing::of`]), and where a distributed
//! iteration 0 needs several phases under a modest budget: the only check
//! of either driver above n = 8 192. Slow — about 50 s for both drivers on
//! two cores — so `#[ignore]`d; run it with
//! `cargo test --release --offline --test paper_regime -- --ignored`.

use hipmcl::comm::{TransportKind, UniverseConfig};
use hipmcl::prelude::*;
use hipmcl::spgemm::hash::Addressing;
use hipmcl::workloads::rmat::{generate_rmat, RmatParams};

#[test]
#[ignore = "n = 2^17 serially and on nine processes: ≈ 50 s on two cores"]
fn graph500_scale_17_clusters_alike_serially_and_on_nine_uds_ranks() {
    let graph = Csc::from_triples(&generate_rmat(&RmatParams::graph500(17, 4, 1)));
    let n = graph.ncols();
    assert_eq!(Addressing::of::<f64>(n, n), Addressing::Hashed);
    let budget = 32 << 20;
    let mut cfg = MclConfig::optimized(budget);
    (cfg.prune.select, cfg.max_iters) = (100, 12);

    // Launched ranks replay this test up to the universe: it goes first.
    let ucfg = UniverseConfig::new(9, MachineModel::summit()).with_transport(TransportKind::Uds);
    let (g, c) = (&graph, &cfg);
    let reports = Universe::run_with(ucfg, move |comm| {
        let grid = ProcGrid::new(comm);
        let mut gpus = MultiGpu::summit_node(grid.world.model());
        cluster_distributed(&grid, &mut gpus, g, c)
    });
    let dist = reports.into_iter().next().expect("rank 0's report");
    let estimate = dist.estimates[0].expect("an estimate in iteration 0");
    let phases = hipmcl::summa::estimate::plan_phases(&estimate, 9, budget);
    assert!(phases >= 4, "{phases} phases in iteration 0");

    let serial = cluster_serial(&graph, &cfg);
    assert_eq!(
        dist.labels, serial.labels,
        "distributed diverged from serial"
    );
    assert_eq!(dist.iterations, serial.iterations);
    println!(
        "n = {n}: {} clusters in {} iterations, {phases} phases in iteration 0",
        serial.num_clusters, serial.iterations
    );
}
