//! **Figures 7, 8 and Table V** — strong scaling of the optimized HipMCL,
//! three views of one sweep (isom100-1 over 100→400 nodes, metaclust50
//! over 256→729) in which each (network, nodes) point is simulated once:
//!
//! * Fig. 7 (`fig7_<network>.csv`): overall time vs node count against
//!   the ideal-scaling line;
//! * Fig. 8 (`fig8_<network>.csv`): speedup of each stage over the
//!   smallest node count, on the points of the sweep the paper plots;
//! * Table V (`table5_idle_times.csv`): mean CPU and GPU idle time in
//!   the Pipelined Sparse SUMMA per point.
//!
//! `HIPMCL_MAX_RANKS` (default 400) caps the simulated rank count.

use hipmcl_bench::*;
use hipmcl_core::dist::{DistMclReport, STAGES};
use hipmcl_core::MclConfig;
use hipmcl_workloads::Dataset;

/// Fig. 7: overall time, ideal line, speedup and efficiency per point.
fn fig7(d: Dataset, runs: &[(usize, DistMclReport)]) {
    if runs.len() < 2 {
        return println!("(Fig. 7, {}: skipped — raise HIPMCL_MAX_RANKS)\n", d.name());
    }
    println!("Fig. 7 — {} (scaled 1/{}):", d.name(), bench_reduction(d));
    let headers = ["nodes", "time", "ideal", "speedup", "efficiency"];
    let (p0, t0) = (runs[0].0, runs[0].1.total_time);
    let rows: Vec<Vec<String>> = (runs.iter())
        .map(|(p, r)| {
            let t = r.total_time;
            let speedup = t0 / t;
            vec![
                p.to_string(),
                format!("{t:.4}"),
                format!("{:.4}", t0 * p0 as f64 / *p as f64),
                format!("{speedup:.2}"),
                format!("{:.0}%", 100.0 * speedup / (*p as f64 / p0 as f64)),
            ]
        })
        .collect();
    print_table(&headers, &rows);
    write_csv(&format!("fig7_{}", d.name()), &headers, &rows);
    println!();
}

/// Fig. 8: per-stage speedup over the first point, plus the paper's
/// bottleneck callout (estimation vs broadcast at the largest point).
fn fig8(d: Dataset, runs: &[&(usize, DistMclReport)]) {
    if runs.len() < 2 {
        return println!("(Fig. 8, {}: skipped — raise HIPMCL_MAX_RANKS)\n", d.name());
    }
    println!("Fig. 8 — {}:", d.name());
    let (last_nodes, last) = runs[runs.len() - 1];
    let mut headers: Vec<String> = vec!["stage".into()];
    headers.extend(runs.iter().map(|(p, _)| format!("{p} nodes")));
    headers.push("time@max nodes".into());
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut rows = Vec::new();
    for s in STAGES {
        let base = runs[0].1.stage(s);
        if base <= 0.0 {
            continue;
        }
        let mut row = vec![s.to_string()];
        row.extend((runs.iter()).map(|(_, r)| format!("{:.2}x", base / r.stage(s).max(1e-12))));
        row.push(format!("{:.4}s", last.stage(s)));
        rows.push(row);
    }
    print_table(&header_refs, &rows);
    write_csv(&format!("fig8_{}", d.name()), &header_refs, &rows);
    println!(
        "memory estimation / SUMMA broadcast at {last_nodes} nodes: {:.2}x\n",
        last.stage("mem_estimation") / last.stage("summa_bcast").max(1e-12)
    );
}

fn main() {
    println!("Strong scaling of optimized HipMCL (modeled seconds): Fig. 7, Fig. 8, Table V\n");
    // (network, the sweep, the points of it Fig. 8 plots).
    let sweeps: [(Dataset, &[usize], &[usize]); 2] = [
        (
            Dataset::Isom100_1,
            &[100, 144, 196, 289, 400],
            &[100, 196, 400],
        ),
        (
            Dataset::Metaclust50,
            &[256, 361, 529, 729],
            &[256, 361, 529],
        ),
    ];
    let cap = max_ranks(400);

    let idle_headers = ["network", "nodes", "CPU idle", "GPU idle", "CPU/GPU"];
    let mut idle_rows = Vec::new();
    for (d, nodes, fig8_nodes) in sweeps {
        let cfg = bench_mcl_config_for(d, MclConfig::optimized(4 << 30));
        let runs: Vec<(usize, DistMclReport)> = (nodes.iter().filter(|&&n| n <= cap))
            .map(|&p| {
                eprintln!("running {} on {} nodes ...", d.name(), p);
                (p, run_scattered(p, d, &cfg))
            })
            .collect();
        idle_rows.extend(runs.iter().map(|(p, r)| {
            vec![
                d.name().to_string(),
                p.to_string(),
                fmt_time(r.cpu_idle),
                fmt_time(r.gpu_idle),
                format!("{:.1}", r.cpu_idle / r.gpu_idle.max(1e-12)),
            ]
        }));
        fig7(d, &runs);
        let staged: Vec<_> = (runs.iter())
            .filter(|(p, _)| fig8_nodes.contains(p))
            .collect();
        fig8(d, &staged);
    }

    println!("Table V: mean per-rank CPU and GPU idle time in Pipelined SUMMA\n");
    print_table(&idle_headers, &idle_rows);
    let csv = write_csv("table5_idle_times", &idle_headers, &idle_rows);
    println!("\ncsv: {}", csv.display());
    print_paper_note(&[
        "Fig. 7: efficiency 49% for isom100-1 (100->400 nodes) and 57% for",
        "metaclust50 (256->724). Expected shape: sublinear but substantial",
        "scaling; the gap to ideal comes from broadcast latency, the final",
        "merge, and memory estimation.",
        "Fig. 8: local SpGEMM and pruning scale near-linearly; merging,",
        "broadcast and especially memory estimation scale poorly (paper:",
        "estimation = 2.5x broadcast time at 400 nodes on isom100-1, 1.5x",
        "at 729 on metaclust50) — motivating the future GPU/pipelined",
        "estimation the paper's conclusion sketches.",
        "Table V: isom100-1 100 nodes: CPU 178s / GPU 26.5s idle, falling",
        "to 50.8s / 23.3s at 400; metaclust50 256 nodes: 18.1m / 18.8m,",
        "falling to 10.3m / 6.6m at 729. Expected shape: CPU idle above",
        "GPU idle on the denser isom100-1 (compute-bound kernels keep the",
        "host waiting), both decreasing with node count.",
    ]);
}
