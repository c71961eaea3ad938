//! Integration tests for the *invariants* of distributed MCL runs:
//! stochasticity maintained across iterations, instrumentation sanity,
//! and configuration-independence of the clustering.

use hipmcl::prelude::*;
use hipmcl::workloads::protein::generate_protein_net;

fn net_graph(seed: u64, n: usize) -> Csc<f64> {
    let net = generate_protein_net(&ProteinNetConfig {
        n,
        avg_degree: 16.0,
        min_cluster: 10,
        max_cluster: 40,
        noise_frac: 0.05,
        seed,
        ..Default::default()
    });
    Csc::from_triples(&net.graph)
}

#[test]
fn phased_execution_does_not_change_clusters() {
    use hipmcl::summa::spgemm::PhasePlan;
    let run = |phases: usize| {
        let reports = Universe::run(4, MachineModel::summit(), move |comm| {
            let grid = ProcGrid::new(comm);
            let mut gpus = MultiGpu::summit_node(grid.world.model());
            let graph = net_graph(21, 160);
            let mut cfg = MclConfig::testing(20);
            cfg.summa.phases = PhasePlan::Fixed(phases);
            hipmcl::core::dist::cluster_distributed(&grid, &mut gpus, &graph, &cfg)
        });
        reports.into_iter().next().unwrap()
    };
    let one = run(1);
    let many = run(4);
    assert_eq!(one.num_clusters, many.num_clusters);
    assert_eq!(one.labels, many.labels);
    assert_eq!(one.iterations, many.iterations);
}

#[test]
fn merge_strategy_does_not_change_clusters() {
    use hipmcl::summa::merge::MergeStrategy;
    let run = |strategy: MergeStrategy, pipelined: bool| {
        let reports = Universe::run(9, MachineModel::summit(), move |comm| {
            let grid = ProcGrid::new(comm);
            let mut gpus = MultiGpu::summit_node(grid.world.model());
            let graph = net_graph(22, 150);
            let mut cfg = MclConfig::testing(20);
            cfg.summa.merge = strategy;
            cfg.summa.pipelined = pipelined;
            cfg.summa.policy = hipmcl::gpu::select::SelectionPolicy::always_gpu();
            hipmcl::core::dist::cluster_distributed(&grid, &mut gpus, &graph, &cfg)
        });
        reports.into_iter().next().unwrap()
    };
    let mw = run(MergeStrategy::Multiway, false);
    let bin = run(MergeStrategy::Binary, true);
    assert_eq!(mw.labels, bin.labels);
    assert_eq!(mw.num_clusters, bin.num_clusters);
}

#[test]
fn chaos_trace_reaches_convergence_threshold() {
    let reports = Universe::run(4, MachineModel::summit(), |comm| {
        let grid = ProcGrid::new(comm);
        let mut gpus = MultiGpu::summit_node(grid.world.model());
        let graph = net_graph(23, 140);
        hipmcl::core::dist::cluster_distributed(&grid, &mut gpus, &graph, &MclConfig::testing(20))
    });
    let r = &reports[0];
    assert!(r.converged);
    let last = r.trace.last().unwrap();
    assert!(last.chaos < 1e-3);
    // Chaos at convergence must be far below the starting chaos.
    assert!(r.trace[0].chaos > 10.0 * last.chaos.max(1e-12));
}

#[test]
fn instrumentation_is_internally_consistent() {
    let reports = Universe::run(4, MachineModel::summit(), |comm| {
        let grid = ProcGrid::new(comm);
        let mut gpus = MultiGpu::summit_node(grid.world.model());
        let graph = net_graph(24, 150);
        let mut cfg = MclConfig::optimized(u64::MAX);
        cfg.prune.select = 20;
        hipmcl::core::dist::cluster_distributed(&grid, &mut gpus, &graph, &cfg)
    });
    let r = &reports[0];
    // Every stage time is finite and non-negative; the expansion wall
    // covers the kernel time it contains.
    for (name, t) in &r.stage_times {
        assert!(t.is_finite() && *t >= 0.0, "{name}: {t}");
    }
    assert!(
        r.total_time >= r.stage("expansion"),
        "total covers the SUMMA section"
    );
    assert!(r.cpu_idle >= 0.0 && r.gpu_idle >= 0.0);
    assert_eq!(r.merge_peaks.len(), r.iterations);
    assert_eq!(r.estimates.len(), r.iterations);
}

#[test]
fn probabilistic_estimator_runs_end_to_end() {
    use hipmcl::summa::estimate::EstimatorKind;
    let reports = Universe::run(4, MachineModel::summit(), |comm| {
        let grid = ProcGrid::new(comm);
        let mut gpus = MultiGpu::summit_node(grid.world.model());
        let graph = net_graph(25, 140);
        let mut cfg =
            MclConfig::testing(20).with_estimator(EstimatorKind::Probabilistic { r: 5 }, 1 << 30);
        cfg.summa.policy = hipmcl::gpu::select::SelectionPolicy::always_gpu();
        hipmcl::core::dist::cluster_distributed(&grid, &mut gpus, &graph, &cfg)
    });
    let r = &reports[0];
    assert!(r.converged);
    assert!(r
        .estimates
        .iter()
        .flatten()
        .all(|e| e.scheme == "probabilistic"));
}

#[test]
fn gathered_components_count_the_serial_clusters_on_mcl_output() {
    let reports = Universe::run(4, MachineModel::summit(), |comm| {
        let grid = ProcGrid::new(comm);
        let mut gpus = MultiGpu::summit_node(grid.world.model());
        let graph = net_graph(26, 120);
        let cfg = MclConfig::testing(16);
        let r = hipmcl::core::dist::cluster_distributed(&grid, &mut gpus, &graph, &cfg);
        let serial = hipmcl::core::cluster_serial(&graph, &cfg);
        (r.num_clusters, serial.num_clusters)
    });
    for (dist_k, serial_k) in reports {
        assert_eq!(dist_k, serial_k);
    }
}

#[test]
fn observer_sees_every_iteration_and_reconciles_with_the_report() {
    use hipmcl::core::dist::{cluster_distributed_from, cluster_distributed_with};
    const SUMMA_STAGES: [&str; 4] = ["local_spgemm", "summa_bcast", "merge", "mem_estimation"];
    // Per rank: the report and, per iteration, what the observer read off
    // the raw `SummaOutput`: [cpu idle, gpu idle, SUMMA_STAGES.., merge peak].
    let run = |observed: bool| {
        Universe::run(4, MachineModel::summit(), move |comm| {
            let grid = ProcGrid::new(comm);
            let mut gpus = MultiGpu::summit_node(grid.world.model());
            let mut cfg = MclConfig::optimized(u64::MAX);
            cfg.prune.select = 20;
            let prepared = hipmcl::core::serial::prepare_matrix(&net_graph(27, 150), &cfg);
            let a = DistMatrix::from_global(&grid, &prepared.to_triples());
            let mut seen: Vec<[f64; 7]> = Vec::new();
            let report = if observed {
                cluster_distributed_with(&grid, &mut gpus, a, &cfg, |iter, out| {
                    assert_eq!(iter, seen.len() + 1, "iterations arrive in order, from 1");
                    let t = |s| out.timers.get(s);
                    let [sp, bc, mg, est] = SUMMA_STAGES.map(t);
                    let peak = out.merge_stats.peak_merge_elems as f64;
                    seen.push([out.cpu_idle, out.gpu_idle, sp, bc, mg, est, peak]);
                })
            } else {
                cluster_distributed_from(&grid, &mut gpus, a, &cfg)
            };
            (report, seen)
        })
    };
    let (plain, observed) = (run(false), run(true));

    // The hook is purely additive: the report is the unobserved one, bit
    // for bit.
    let (want, report) = (&plain[0].0, &observed[0].0);
    let stage_bits = |r: &hipmcl::core::DistMclReport| -> Vec<u64> {
        r.stage_times.iter().map(|(_, t)| t.to_bits()).collect()
    };
    assert_eq!(report.labels, want.labels);
    assert_eq!(report.iterations, want.iterations);
    assert_eq!(report.total_time.to_bits(), want.total_time.to_bits());
    assert_eq!(stage_bits(report), stage_bits(want));
    assert_eq!(report.merge_peaks, want.merge_peaks);

    // Every rank saw every iteration once, and what the ranks saw rolls up
    // to what the report says.
    for (_, seen) in &observed {
        assert_eq!(seen.len(), report.iterations);
    }
    let rank_mean = |k: usize| -> f64 {
        let per_rank = |(_, seen): &(_, Vec<[f64; 7]>)| seen.iter().map(|row| row[k]).sum::<f64>();
        observed.iter().map(per_rank).sum::<f64>() / observed.len() as f64
    };
    let reconciles = |k: usize, want: f64, what: &str| {
        let got = rank_mean(k);
        assert!(
            (got - want).abs() <= 1e-12 * want.abs(),
            "{what}: the observers' rank mean {got} vs the report's {want}"
        );
    };
    reconciles(0, report.cpu_idle, "cpu_idle");
    reconciles(1, report.gpu_idle, "gpu_idle");
    for (k, s) in SUMMA_STAGES.into_iter().enumerate() {
        assert!(report.stage(s) > 0.0, "{s} must be exercised");
        reconciles(2 + k, report.stage(s), s);
    }
    for (i, &peak) in report.merge_peaks.iter().enumerate() {
        let rank_max = observed.iter().map(|(_, seen)| seen[i][6] as u64).max();
        assert_eq!(rank_max, Some(peak), "merge peak of iteration {}", i + 1);
    }
}

/// On a 6×6 grid under `Binary`, Algorithm 2 leaves `R0..3` and `R45` on
/// the stack once the sixth stage is in, and the phase's closing merge
/// takes those two merge results alone: the only SUMMA merge whose inputs
/// are all built slabs. Sunk through the prune's sink it equals the
/// identity-sink merge pruned afterwards, bit for bit and stats included,
/// pipelined and bulk synchronous. In process, so no transport spawns 36
/// ranks.
#[test]
fn the_closing_merge_of_merge_results_prunes_what_the_whole_slab_prunes() {
    use hipmcl::sparse::colops::PruneStats;
    use hipmcl::sparse::PlusTimes;
    use hipmcl::summa::merge::MergeStrategy;
    use hipmcl::summa::spgemm::{summa_spgemm_with, summa_spgemm_with_in, PhasePlan};
    use hipmcl::summa::topk::{prune_local_slab, prune_packed, PruneSink};
    use hipmcl::workloads::rmat::{generate_rmat, RmatParams};
    let rmat = Csc::from_triples(&generate_rmat(&RmatParams::graph500(7, 16, 3)));
    let mut base = MclConfig::testing(4);
    base.prune.cutoff = 1e-3;
    let prepared = hipmcl::core::serial::prepare_matrix(&rmat, &base);
    Universe::run(36, MachineModel::summit(), |comm| {
        let grid = ProcGrid::new(comm);
        let (col, params) = (&grid.col_comm, &base.prune);
        let a = DistMatrix::from_global(&grid, &prepared.to_triples());
        for pipelined in [true, false] {
            let mut cfg = base;
            cfg.summa.phases = PhasePlan::Fixed(2);
            cfg.summa.merge = MergeStrategy::Binary;
            cfg.summa.pipelined = pipelined;
            let mut gpus = MultiGpu::summit_node(grid.world.model());
            let (mut want_stats, mut got_stats) = (PruneStats::default(), PruneStats::default());
            let want = summa_spgemm_with(&grid, &mut gpus, &a, &a, &cfg.summa, |_, slab| {
                let (pruned, stats) = prune_local_slab(col, &slab, params);
                want_stats += stats;
                pruned
            });
            let (s, sink) = (PlusTimes::<f64>::new(), &PruneSink(*params));
            let got =
                summa_spgemm_with_in(s, &grid, &mut gpus, &a, &a, &cfg.summa, sink, |_, p| {
                    let (pruned, stats) = prune_packed(col, &p, params);
                    got_stats += stats;
                    pruned
                });
            let bits = |c: &Csc<f64>| {
                let vals: Vec<u64> = c.vals.iter().map(|v| v.to_bits()).collect();
                (c.colptr.clone(), c.rowidx.clone(), vals)
            };
            assert_eq!(bits(&got.c.local), bits(&want.c.local), "{pipelined}");
            assert_eq!(got_stats, want_stats, "{pipelined}");
            for out in [&want, &got] {
                let ways: Vec<usize> = out.merge_spans.iter().map(|s| s.ways).collect();
                assert_eq!(
                    ways,
                    [2, 3, 2, 2].repeat(2),
                    "{pipelined}: fan-ins per phase"
                );
            }
        }
    });
}
