//! **Figure 1** — per-stage running time of HipMCL vs the optimized
//! HipMCL (with and without overlap) on an isom100-1-like network at the
//! 100-node Summit model. The paper's stacked-bar chart becomes a table
//! of the same stacks, plus the headline speedup (paper: 12.4×).

use hipmcl_bench::*;
use hipmcl_core::dist::STAGES;
use hipmcl_core::MclConfig;
use hipmcl_workloads::Dataset;

fn main() {
    let nodes = 100; // 10x10 grid, like the paper's isom100-1 run
    let dataset = Dataset::Isom100_1;
    let budget = 4u64 << 30;

    println!(
        "Fig. 1: stage breakdown on {} (scaled 1/{}), {} simulated Summit nodes\n",
        dataset.name(),
        bench_reduction(dataset),
        nodes
    );

    let configs: [(&str, MclConfig); 3] = [
        (
            "HipMCL",
            bench_mcl_config_for(dataset, MclConfig::original_hipmcl(budget)),
        ),
        (
            "Optimized",
            bench_mcl_config_for(dataset, MclConfig::optimized_no_overlap(budget)),
        ),
        (
            "Optimized+overlap",
            bench_mcl_config_for(dataset, MclConfig::optimized(budget)),
        ),
    ];

    let mut rows = Vec::new();
    let mut totals = Vec::new();
    let mut reports = Vec::new();
    for (name, cfg) in &configs {
        eprintln!("running {name} ...");
        let r = run_scattered(nodes, dataset, cfg);
        totals.push(r.total_time);
        let mut row = vec![name.to_string()];
        for s in STAGES {
            row.push(format!("{:.3}", r.stage(s)));
        }
        row.push(format!("{:.3}", r.total_time));
        rows.push(row);
        reports.push(r);
    }

    let headers: Vec<&str> = std::iter::once("configuration")
        .chain(STAGES)
        .chain(std::iter::once("overall"))
        .collect();
    print_table(&headers, &rows);

    let speedup = totals[0] / totals[2];
    println!("\nspeedup (HipMCL -> Optimized+overlap): {:.1}x", speedup);
    println!(
        "iterations: {} / {} / {} (identical clustering: {})",
        reports[0].iterations,
        reports[1].iterations,
        reports[2].iterations,
        reports[0].num_clusters == reports[2].num_clusters
    );

    let csv = write_csv("fig1_breakdown", &headers, &rows);
    println!("csv: {}", csv.display());
    print_paper_note(&[
        "Fig. 1: original HipMCL ~199 min dominated by local SpGEMM + memory",
        "estimation (~90% combined); optimized with overlap 12.4x faster.",
        "Expected shape here: same two stages dominate the first bar; the",
        "optimized bars cut SpGEMM (GPU) and estimation (probabilistic), and",
        "overlap further hides bcast+merge.",
    ]);
}
