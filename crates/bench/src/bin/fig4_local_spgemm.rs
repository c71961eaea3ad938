//! **Figure 4** — total time spent in local SpGEMM across an MCL run for
//! each kernel: `cpu-hash`, `rmerge2`, `bhsparse`, `nsparse`, and the
//! `hybrid` selection, on the three medium networks (archaea, eukarya,
//! isom100-3). Bars become a table of modeled seconds plus speedup over
//! `cpu-hash` (paper: rmerge2 ≈1.1×, bhsparse ≈2.3–2.6×, nsparse
//! ≈2.7–3.3×, hybrid best overall).

use hipmcl_bench::*;
use hipmcl_comm::{GpuLib, MachineModel, SpgemmKernel};
use hipmcl_core::serial::mcl_iteration;
use hipmcl_core::MclConfig;
use hipmcl_gpu::multi::MultiGpu;
use hipmcl_sparse::Csc;
use hipmcl_workloads::Dataset;

/// The MCL iterates (the `A` of each expansion) of a serial run.
fn mcl_iterates(graph: &Csc<f64>, cfg: &MclConfig) -> Vec<Csc<f64>> {
    let mut a = graph.clone();
    let mut iterates = vec![a.clone()];
    for _ in 0..cfg.max_iters {
        let (_analysis, chaos) = mcl_iteration(&mut a, cfg);
        if chaos < cfg.chaos_epsilon {
            break;
        }
        iterates.push(a.clone());
    }
    iterates
}

/// Modeled node time for one expansion with a fixed kernel.
fn kernel_time(model: &MachineModel, k: SpgemmKernel, flops: u64, cf: f64) -> f64 {
    model.spgemm_time(k, flops, cf)
}

fn main() {
    let model = MachineModel::summit();
    let mut gpus = MultiGpu::summit_node(&model);

    let kernels: Vec<(&str, SpgemmKernel)> = vec![
        ("cpu-hash", SpgemmKernel::CpuHash),
        ("rmerge2", SpgemmKernel::Gpu(GpuLib::Rmerge2)),
        ("bhsparse", SpgemmKernel::Gpu(GpuLib::Bhsparse)),
        ("nsparse", SpgemmKernel::Gpu(GpuLib::Nsparse)),
    ];

    println!("Fig. 4: modeled per-node local SpGEMM time over a full MCL run\n");
    let headers = [
        "network",
        "cpu-hash",
        "rmerge2",
        "bhsparse",
        "nsparse",
        "hybrid",
        "best-speedup",
    ];
    let mut rows = Vec::new();

    for d in Dataset::medium() {
        eprintln!("running {} ...", d.name());
        let cfg = bench_mcl_config_for(d, MclConfig::optimized(u64::MAX));
        let graph = bench_graph(d, &cfg);
        let iterates = mcl_iterates(&graph, &cfg);

        let mut totals = vec![0.0f64; kernels.len()];
        let mut hybrid_total = 0.0f64;
        for a in &iterates {
            // Verify every library label's launch gives cpu-hash's product
            // on this iterate, bit for bit, while measuring the real
            // product's flops/cf for the model.
            let flops = hipmcl_spgemm::flops(a, a);
            let c = hipmcl_spgemm::hash::multiply(a, a);
            for lib in GpuLib::all() {
                let (g, _) = gpus.multiply(0.0, a, a, lib).expect("fits a V100");
                let same = g.colptr == c.colptr && g.rowidx == c.rowidx;
                let bits = |m: &Csc<f64>| m.vals.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert!(same && bits(&g) == bits(&c), "{}: product", lib.name());
            }
            let cf = if c.nnz() == 0 {
                1.0
            } else {
                flops as f64 / c.nnz() as f64
            };
            for (i, (_, k)) in kernels.iter().enumerate() {
                totals[i] += kernel_time(&model, *k, flops, cf);
            }
            // Hybrid: per-instance best of the four (the paper's recipe
            // selects by flops and cf; with exact cf that is the minimum).
            hybrid_total += kernels
                .iter()
                .map(|(_, k)| kernel_time(&model, *k, flops, cf))
                .fold(f64::INFINITY, f64::min);
        }

        let base = totals[0]; // cpu-hash
        let best = totals.iter().copied().fold(hybrid_total, f64::min);
        let mut row = vec![d.name().to_string()];
        for t in &totals {
            row.push(format!("{:.3}", t));
        }
        row.push(format!("{hybrid_total:.3}"));
        row.push(format!("{:.1}x", base / best));
        rows.push(row);
    }

    print_table(&headers, &rows);
    let csv = write_csv("fig4_local_spgemm", &headers, &rows);
    println!("\ncsv: {}", csv.display());
    print_paper_note(&[
        "Fig. 4: vs cpu-hash — rmerge2 up to 1.1x, bhsparse up to 2.6x,",
        "nsparse up to 3.3x; hybrid slightly beats nsparse (3.0-3.3x).",
        "Expected shape: same ordering, nsparse ~3x, hybrid >= nsparse.",
    ]);
}
