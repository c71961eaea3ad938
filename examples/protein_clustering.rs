//! Cluster a scaled-down version of one of the paper's networks
//! (Table I) with the fully optimized HipMCL configuration, and print the
//! per-stage time breakdown the way Fig. 1 reports it.
//!
//! Run with: `cargo run --release --example protein_clustering [scale]`
//! where `scale` divides the paper's vertex count (default 20000).

use hipmcl::prelude::*;

fn main() {
    let scale: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(20_000);

    let dataset = Dataset::Archaea;
    let cfg = dataset.config(scale);
    println!(
        "dataset {} at 1/{}: {} proteins, avg degree {:.0} (paper: {} proteins, {} connections)",
        dataset.name(),
        scale,
        cfg.n,
        cfg.avg_degree,
        dataset.paper_size().0,
        dataset.paper_size().1,
    );

    // 16 simulated Summit nodes (4x4 grid), optimized HipMCL.
    let p = 16;
    let mut mcl_cfg = MclConfig::optimized(2 << 30);
    mcl_cfg.prune.select = 200;
    mcl_cfg.summa.policy = hipmcl::gpu::select::SelectionPolicy::always_gpu();

    let reports = Universe::run(p, MachineModel::summit(), |comm| {
        let grid = ProcGrid::new(comm);
        let mut gpus = MultiGpu::summit_node(grid.world.model());
        let net = dataset.instance(scale);
        let graph = Csc::from_triples(&net.graph);
        let report = hipmcl::core::dist::cluster_distributed(&grid, &mut gpus, &graph, &mcl_cfg);
        (report, net.num_clusters)
    });
    let (report, planted) = &reports[0];

    println!(
        "\nclusters found: {} (planted: {planted}), iterations: {}, converged: {}",
        report.num_clusters, report.iterations, report.converged
    );
    println!(
        "modeled wall time on {p} Summit nodes: {:.3} s",
        report.total_time
    );
    println!("\nstage breakdown (mean over ranks, summed over iterations):");
    for (name, t) in &report.stage_times {
        println!("  {name:<16} {:>10.4} s", t);
    }
    println!("  {:<16} {:>10.4} s", "cpu idle", report.cpu_idle);
    println!("  {:<16} {:>10.4} s", "gpu idle", report.gpu_idle);

    println!("\nper-iteration trace:");
    println!("  iter   flops        nnz(pruned)  cf      chaos");
    for (i, it) in report.trace.iter().enumerate() {
        println!(
            "  {:<6} {:<12} {:<12} {:<7.2} {:.5}",
            i + 1,
            it.flops,
            it.nnz_pruned,
            it.cf,
            it.chaos
        );
    }
}
