//! Cross-crate integration tests: the whole stack, exercised through the
//! public umbrella API exactly the way `examples/` use it.

use hipmcl::core::DistMclReport;
use hipmcl::prelude::*;
use hipmcl::workloads::protein::generate_protein_net;

fn small_net(seed: u64) -> (Csc<f64>, Vec<u32>, usize) {
    let net = generate_protein_net(&ProteinNetConfig {
        n: 180,
        avg_degree: 14.0,
        min_cluster: 10,
        max_cluster: 30,
        noise_frac: 0.04,
        seed,
        ..Default::default()
    });
    (Csc::from_triples(&net.graph), net.truth, net.num_clusters)
}

fn same_partition(a: &[u32], b: &[u32]) -> bool {
    a.len() == b.len()
        && (0..a.len()).all(|i| ((i + 1)..a.len()).all(|j| (a[i] == a[j]) == (b[i] == b[j])))
}

/// `HIPMCL_MAX_RANKS=k` caps the rank count of the `run_dist` test below.
fn max_ranks() -> usize {
    std::env::var("HIPMCL_MAX_RANKS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(usize::MAX)
        .max(1)
}

/// The whole driver dispatched through [`Universe::run_dist`], so the
/// transport comes from the environment (`HIPMCL_TRANSPORT=tcp`, or
/// `process-shm` with that feature built): the labels must be bit-equal
/// to the serial oracle's on every transport.
#[test]
fn the_distributed_driver_matches_serial_on_any_transport() {
    driver_matches_serial(MclConfig::testing(12));
}

/// The same under the original-HipMCL preset, whose exact estimator sends
/// structure-only pattern frames — bytes on a socket transport — and
/// whose small budget plans several phases from them.
#[test]
fn the_distributed_driver_matches_serial_under_original_hipmcl() {
    let budget = 4 << 10;
    let mut cfg = MclConfig::original_hipmcl(budget);
    cfg.prune.select = 12;
    let (r, p) = driver_matches_serial(cfg);
    let estimates = r
        .estimates
        .iter()
        .map(|e| e.expect("an estimate every iteration"));
    let phases: Vec<usize> = estimates
        .inspect(|e| assert_eq!(e.scheme, "exact-symbolic"))
        .map(|e| hipmcl::summa::estimate::plan_phases(&e, p, budget))
        .collect();
    assert!(phases[0] > 1, "phases per iteration {phases:?}");
}

/// The same under the optimized preset: pipelined, binary merging, every
/// launch on the devices, so each phase's stage pairs are formed column by
/// column into their merge — and a budget that plans several phases from
/// the probabilistic estimate.
#[test]
fn the_distributed_driver_matches_serial_under_the_optimized_preset() {
    let budget = 4 << 10;
    let mut cfg = MclConfig::optimized(budget);
    cfg.prune.select = 12;
    let (r, p) = driver_matches_serial(cfg);
    let estimates = r
        .estimates
        .iter()
        .map(|e| e.expect("an estimate every iteration"));
    let phases: Vec<usize> = estimates
        .map(|e| hipmcl::summa::estimate::plan_phases(&e, p, budget))
        .collect();
    assert!(phases[0] > 1, "phases per iteration {phases:?}");
}

/// The driver on four ranks under both time models, with the transport
/// from the environment: measuring wall time moves no label and no
/// modeled second, and only the `Measured` run samples the local
/// multiplies' wall time. `original_hipmcl` runs every phase's stages in
/// stage order, `optimized` forms its launches in tiled pairs.
#[test]
fn the_distributed_driver_keeps_its_modeled_clock_under_measured_time() {
    use hipmcl::comm::{TimeModel, UniverseConfig};
    let (graph, _, _) = small_net(31);
    let budget = 4 << 10;
    for cfg in [
        MclConfig::original_hipmcl(budget),
        MclConfig::optimized(budget),
    ] {
        let run = |time: TimeModel| {
            let ucfg = UniverseConfig::from_env(4, MachineModel::summit()).with_time(time);
            let (graph, cfg) = (&graph, &cfg);
            let reports = Universe::run_with(ucfg, move |comm| {
                let grid = ProcGrid::new(comm);
                let mut gpus = MultiGpu::summit_node(grid.world.model());
                cluster_distributed(&grid, &mut gpus, graph, cfg)
            });
            reports.into_iter().next().expect("rank 0's report")
        };
        let (modeled, measured) = (run(TimeModel::Modeled), run(TimeModel::Measured));
        assert_eq!(measured.labels, modeled.labels);
        assert_eq!(measured.total_time.to_bits(), modeled.total_time.to_bits());
        let bits = |r: &DistMclReport| -> Vec<(String, u64)> {
            let times = r.stage_times.iter();
            times.map(|(n, t)| (n.clone(), t.to_bits())).collect()
        };
        assert_eq!(bits(&measured), bits(&modeled));
        let spgemm_wall = |r: &DistMclReport| {
            let mut times = r.stage_times_measured.iter();
            times.find(|(n, _)| n == "local_spgemm").map(|&(_, t)| t)
        };
        assert!(spgemm_wall(&measured) > Some(0.0));
        assert_eq!(spgemm_wall(&modeled), Some(0.0));
    }
}

/// Runs `cfg` serially and on up to four ranks; returns rank 0's report
/// and the rank count.
fn driver_matches_serial(cfg: MclConfig) -> (DistMclReport, usize) {
    let net = generate_protein_net(&ProteinNetConfig {
        n: 120,
        avg_degree: 12.0,
        min_cluster: 8,
        max_cluster: 24,
        noise_frac: 0.05,
        seed: 97,
        ..Default::default()
    });
    let graph = Csc::from_triples(&net.graph);
    let serial = hipmcl::core::cluster_serial(&graph, &cfg);

    let p = 4.min(max_ranks());
    let reports = Universe::run_dist(p, MachineModel::summit(), move |comm| {
        let grid = ProcGrid::new(comm);
        let mut gpus = MultiGpu::summit_node(grid.world.model());
        hipmcl::core::dist::cluster_distributed(&grid, &mut gpus, &graph, &cfg)
    });
    let r = reports.into_iter().next().expect("rank 0's report");
    assert_eq!(r.labels, serial.labels, "distributed diverged from serial");
    assert_eq!(r.num_clusters, serial.num_clusters);
    assert!(r.converged);
    (r, p)
}

#[test]
fn serial_and_distributed_agree_across_grids() {
    let (graph, _, _) = small_net(5);
    let cfg = MclConfig::testing(20);
    let serial = hipmcl::core::cluster_serial(&graph, &cfg);
    assert!(serial.converged);

    for p in [1usize, 4, 9, 16] {
        let reports = Universe::run(p, MachineModel::summit(), |comm| {
            let grid = ProcGrid::new(comm);
            let mut gpus = MultiGpu::summit_node(grid.world.model());
            let (graph, _, _) = small_net(5);
            hipmcl::core::dist::cluster_distributed(
                &grid,
                &mut gpus,
                &graph,
                &MclConfig::testing(20),
            )
        });
        for r in &reports {
            assert_eq!(r.num_clusters, serial.num_clusters, "p={p}");
            assert!(same_partition(&r.labels, &serial.labels), "p={p}");
        }
    }
}

#[test]
fn all_three_paper_configurations_find_identical_clusters() {
    let cfgs = [
        MclConfig::original_hipmcl(u64::MAX),
        MclConfig::optimized_no_overlap(u64::MAX),
        MclConfig::optimized(u64::MAX),
    ];
    let mut partitions: Vec<Vec<u32>> = Vec::new();
    let mut times = Vec::new();
    for base in cfgs {
        let reports = Universe::run(4, MachineModel::summit(), move |comm| {
            let grid = ProcGrid::new(comm);
            let mut gpus = MultiGpu::summit_node(grid.world.model());
            let (graph, _, _) = small_net(6);
            let mut cfg = base;
            cfg.prune.select = 20;
            hipmcl::core::dist::cluster_distributed(&grid, &mut gpus, &graph, &cfg)
        });
        partitions.push(reports[0].labels.clone());
        times.push(reports[0].total_time);
    }
    assert!(same_partition(&partitions[0], &partitions[1]));
    assert!(same_partition(&partitions[0], &partitions[2]));
    // All three produced positive modeled times.
    assert!(times.iter().all(|&t| t > 0.0));
}

#[test]
fn clustering_recovers_planted_families_end_to_end() {
    let (graph, truth, planted) = small_net(7);
    let result = hipmcl::core::cluster_serial(&graph, &MclConfig::testing(20));
    assert_eq!(result.num_clusters, planted);
    assert!(same_partition(&result.labels, &truth));
}

#[test]
fn matrix_market_roundtrip_through_cluster_output() {
    let (graph, _, _) = small_net(8);
    // Write the graph, read it back, cluster both, compare.
    let mut buf = Vec::new();
    hipmcl::sparse::io::write_matrix_market(&mut buf, &graph).unwrap();
    let back = Csc::from_triples(&hipmcl::sparse::io::read_matrix_market(&buf[..]).unwrap());
    assert_eq!(back, graph);

    let a = hipmcl::core::cluster_serial(&graph, &MclConfig::testing(20));
    let b = hipmcl::core::cluster_serial(&back, &MclConfig::testing(20));
    assert_eq!(a.labels, b.labels);

    // Cluster output format.
    let mut out = Vec::new();
    hipmcl::sparse::io::write_clusters(&mut out, &a.clusters).unwrap();
    assert_eq!(out.iter().filter(|&&c| c == b'\n').count(), a.num_clusters);
}

#[test]
fn registry_dataset_runs_distributed() {
    let reports = Universe::run(4, MachineModel::summit(), |comm| {
        let grid = ProcGrid::new(comm);
        let mut gpus = MultiGpu::summit_node(grid.world.model());
        let net = Dataset::Archaea.instance(10_000); // 164 proteins
        let graph = Csc::from_triples(&net.graph);
        let mut cfg = MclConfig::optimized(u64::MAX);
        cfg.prune.select = 30;
        let r = hipmcl::core::dist::cluster_distributed(&grid, &mut gpus, &graph, &cfg);
        (r.converged, r.num_clusters, r.total_time)
    });
    for (converged, k, t) in reports {
        assert!(converged);
        assert!(k >= 1);
        assert!(t > 0.0);
    }
}

#[test]
fn estimators_agree_with_exact_on_mcl_iterates() {
    // Run a couple of MCL iterations and verify the probabilistic
    // estimator tracks the exact one within the Fig. 6 error band.
    let reports = Universe::run(4, MachineModel::summit(), |comm| {
        let grid = ProcGrid::new(comm);
        let (graph, _, _) = small_net(9);
        let prepared = hipmcl::core::serial::prepare_matrix(&graph, &MclConfig::testing(20));
        let a = DistMatrix::from_global(&grid, &prepared.to_triples());
        let exact = hipmcl::summa::estimate::estimate_memory(
            &grid,
            &a,
            &a,
            hipmcl::summa::estimate::EstimatorKind::ExactSymbolic,
            0,
        );
        // Average several sketch seeds (shared keys correlate columns).
        let mean: f64 = (0..8)
            .map(|s| {
                hipmcl::summa::estimate::estimate_memory(
                    &grid,
                    &a,
                    &a,
                    hipmcl::summa::estimate::EstimatorKind::Probabilistic { r: 10 },
                    s,
                )
                .nnz_estimate
            })
            .sum::<f64>()
            / 8.0;
        (exact.nnz_estimate, mean)
    });
    let (exact, est) = reports[0];
    let err = (est - exact).abs() / exact;
    assert!(err < 0.2, "estimate {est} vs exact {exact} (err {err})");
}

#[test]
fn gpu_and_cpu_paths_produce_identical_products() {
    use hipmcl::comm::GpuLib;
    let (graph, _, _) = small_net(10);
    let want = hipmcl::spgemm::hash::multiply(&graph, &graph);
    for lib in GpuLib::all() {
        let mut gpus = MultiGpu::summit_node(&MachineModel::summit());
        let (got, launch) = gpus.multiply(0.0, &graph, &graph, lib).unwrap();
        assert_eq!(got, want, "{}", lib.name());
        assert_eq!(launch.nnz, want.nnz(), "{}", lib.name());
    }
}
