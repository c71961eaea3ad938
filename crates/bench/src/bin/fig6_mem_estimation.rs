//! **Figure 6** — probabilistic memory-requirement estimation: relative
//! error (top row) and cumulative runtime vs the exact symbolic scheme
//! (bottom row), per MCL iteration, for r ∈ {3, 5, 7, 10} keys, on the
//! three medium networks. Paper: a handful of keys lands within ~10 % of
//! exact (worse in the early, high-variance iterations), and the
//! probabilistic scheme is much faster while `cf` is large, with exact
//! catching up in the late sparse iterations.

use hipmcl_bench::*;
use hipmcl_comm::{MachineModel, SpgemmKernel};
use hipmcl_core::serial::mcl_iteration;
use hipmcl_core::MclConfig;
use hipmcl_spgemm::estimate::relative_error;
use hipmcl_spgemm::CohenEstimator;
use hipmcl_workloads::Dataset;

fn main() {
    let model = MachineModel::summit();
    let rs = [3usize, 5, 7, 10];

    for d in Dataset::medium() {
        eprintln!("running {} ...", d.name());
        let mut cfg = bench_mcl_config_for(d, MclConfig::optimized(u64::MAX));
        cfg.max_iters = 20;
        let mut a = bench_graph(d, &cfg);

        println!("\nFig. 6 — {} (scaled 1/{}):", d.name(), bench_reduction(d));
        let headers = [
            "iter",
            "exact nnz",
            "err r=3",
            "err r=5",
            "err r=7",
            "err r=10",
            "cf",
        ];
        let mut rows = Vec::new();
        let mut cum_exact = 0.0f64;
        let mut cum_prob = [0.0f64; 4];

        for iter in 1..=cfg.max_iters {
            let flops = hipmcl_spgemm::flops(&a, &a);
            let exact = hipmcl_spgemm::symbolic::output_nnz(&a, &a);
            let cf = flops as f64 / exact.max(1) as f64;
            cum_exact += model.spgemm_time(SpgemmKernel::CpuHash, flops, cf);

            let mut row = vec![iter.to_string(), exact.to_string()];
            for (i, &r) in rs.iter().enumerate() {
                // Average over a few seeds, as the paper averages over the
                // nodes' local estimates.
                let mut err_sum = 0.0;
                const SEEDS: u64 = 4;
                for s in 0..SEEDS {
                    let est = CohenEstimator::new(r, 1000 * s + iter as u64);
                    err_sum += relative_error(est.estimate_total(&a, &a), exact as f64);
                    if s == 0 {
                        cum_prob[i] += model.estimate_time(est.op_count(&a, &a));
                    }
                }
                row.push(format!("{:.1}%", 100.0 * err_sum / SEEDS as f64));
            }
            row.push(format!("{cf:.1}"));
            rows.push(row);

            let (_analysis, chaos) = mcl_iteration(&mut a, &cfg);
            if chaos < cfg.chaos_epsilon {
                break;
            }
        }

        print_table(&headers, &rows);
        write_csv(&format!("fig6_error_{}", d.name()), &headers, &rows);

        println!("\ncumulative runtime (modeled seconds):");
        let rt_headers = ["scheme", "cumulative time"];
        let mut rt_rows = vec![vec!["exact".to_string(), format!("{cum_exact:.4}")]];
        for (i, &r) in rs.iter().enumerate() {
            rt_rows.push(vec![format!("r = {r}"), format!("{:.4}", cum_prob[i])]);
        }
        print_table(&rt_headers, &rt_rows);
        write_csv(&format!("fig6_runtime_{}", d.name()), &rt_headers, &rt_rows);
    }

    print_paper_note(&[
        "Fig. 6 top: relative error within ~10% with a few keys; worst in",
        "early iterations (higher column-degree variance); more keys help.",
        "Fig. 6 bottom: probabilistic is ~5-10x cheaper cumulatively; its",
        "cost is flops-independent (r·(nnzA+nnzB)), so the gap is widest",
        "while cf is large and closes in the sparse late iterations —",
        "hence the paper's hybrid rule (exact when cf is small).",
    ]);
}
