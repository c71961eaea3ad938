//! **Table III + §VII-C** — binary merge vs multiway merge: peak memory
//! (largest single-merge element count) per MCL iteration, and total
//! merge runtime. Paper: binary merge is only 3–4 % slower in merge work
//! but needs 15–25 % less peak memory, and (unlike multiway) its runtime
//! hides behind the GPU.

use hipmcl_bench::*;
use hipmcl_core::MclConfig;
use hipmcl_summa::merge::MergeStrategy;
use hipmcl_workloads::Dataset;

fn main() {
    let nodes = 16;

    println!(
        "Table III: peak single-merge elements per MCL iteration ({} nodes)\n",
        nodes
    );

    let headers = ["network", "iter", "mway", "binary", "impr."];
    let mut rows = Vec::new();
    let mut runtime_rows = Vec::new();

    for d in Dataset::medium() {
        eprintln!("running {} ...", d.name());
        let base = bench_mcl_config_for(d, MclConfig::optimized(4 << 30));
        let mut multiway = base;
        multiway.summa.merge = MergeStrategy::Multiway;
        multiway.summa.pipelined = false; // multiway cannot overlap (§IV)
        let binary = base; // optimized preset = binary + pipelined
        let rm = run_scattered(nodes, d, &multiway);
        let rb = run_scattered(nodes, d, &binary);
        let iters = rm.merge_peaks.len().min(rb.merge_peaks.len()).min(10);
        for i in 0..iters {
            let m = rm.merge_peaks[i];
            let b = rb.merge_peaks[i];
            let impr = if m == 0 {
                0.0
            } else {
                100.0 * (m as f64 - b as f64) / m as f64
            };
            rows.push(vec![
                d.name().to_string(),
                (i + 1).to_string(),
                m.to_string(),
                b.to_string(),
                format!("{impr:.0}%"),
            ]);
        }

        // §VII-C: total merge runtime comparison.
        let (tm, tb) = (rm.stage("merge"), rb.stage("merge"));
        runtime_rows.push(vec![
            d.name().to_string(),
            format!("{tm:.4}"),
            format!("{tb:.4}"),
            format!("{:+.0}%", 100.0 * (tb - tm) / tm.max(1e-12)),
        ]);
    }

    print_table(&headers, &rows);
    write_csv("table3_merge_memory", &headers, &rows);

    println!("\n§VII-C: total merge runtime (modeled seconds):");
    let rt_headers = ["network", "multiway", "binary", "binary slower by"];
    print_table(&rt_headers, &runtime_rows);
    write_csv("table3_merge_runtime", &rt_headers, &runtime_rows);

    print_paper_note(&[
        "Table III: binary merge peak memory 15-25% below multiway, all",
        "networks, first 10 iterations (the improvement shrinks in late,",
        "nearly-converged iterations).",
        "§VII-C: binary merge total runtime only 3-4% above multiway — the",
        "lg lg k factor — and that cost is hidden by the overlap anyway.",
    ]);
}
