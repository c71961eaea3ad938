//! Explore the local SpGEMM kernels and the probabilistic nnz estimator
//! on matrices of varying density — the decision data behind the paper's
//! hybrid kernel selection (Fig. 4, §VI) and Fig. 6.
//!
//! Run with: `cargo run --release --example spgemm_playground`

use hipmcl::comm::{GpuLib, MachineModel, SpgemmKernel};
use hipmcl::gpu::multi::MultiGpu;
use hipmcl::spgemm::estimate::relative_error;
use hipmcl::spgemm::CohenEstimator;
use hipmcl::workloads::er::generate_er_symmetric;
use hipmcl::Csc;
use std::time::Instant;

fn main() {
    let model = MachineModel::summit();
    let n = 3000;

    println!("C = A·A on Erdos-Renyi graphs of growing density (n = {n})\n");
    println!(
        "{:<10} {:>10} {:>8} | {:>10} {:>10} {:>10} {:>10} | est(r=5) err",
        "avg deg", "flops", "cf", "heap ms", "hash ms", "spa ms", "gpus ms"
    );

    for avg_deg in [4usize, 16, 64, 128] {
        let a = Csc::from_triples(&generate_er_symmetric(n, n * avg_deg / 2, 42));
        let flops = hipmcl::spgemm::flops(&a, &a);
        let exact = hipmcl::spgemm::symbolic::output_nnz(&a, &a);
        let cf = flops as f64 / exact.max(1) as f64;

        let time_ms = |f: &dyn Fn() -> Csc<f64>| {
            let t0 = Instant::now();
            let c = f();
            let dt = t0.elapsed().as_secs_f64() * 1e3;
            assert_eq!(c.nnz() as u64, exact);
            dt
        };
        let t_heap = time_ms(&|| hipmcl::spgemm::heap::multiply(&a, &a));
        let t_hash = time_ms(&|| hipmcl::spgemm::hash::multiply(&a, &a));
        let t_spa = time_ms(&|| hipmcl::spgemm::spa::multiply(&a, &a));
        // A device launch forms the hash kernel's product whatever library
        // label it carries; only the modeled rate differs.
        let want = hipmcl::spgemm::hash::multiply(&a, &a);
        let mut gpus = MultiGpu::summit_node(&model);
        for lib in GpuLib::all() {
            let (c, _) = gpus.multiply(0.0, &a, &a, lib).expect("fits a V100");
            assert_eq!(c, want, "{} differs from cpu-hash", lib.name());
        }
        let t_gpu = time_ms(&|| {
            MultiGpu::summit_node(&model)
                .multiply(0.0, &a, &a, GpuLib::Nsparse)
                .expect("fits")
                .0
        });

        let est = CohenEstimator::new(5, 7).estimate_total(&a, &a);
        let err = relative_error(est, exact as f64);

        println!(
            "{:<10} {:>10} {:>8.2} | {:>10.2} {:>10.2} {:>10.2} {:>10.2} | {:>10.1}%",
            avg_deg,
            flops,
            cf,
            t_heap,
            t_hash,
            t_spa,
            t_gpu,
            err * 100.0
        );
    }

    println!("\nmodeled Summit-node rates at cf regimes (flops/s):");
    println!(
        "{:<10} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "cf", "cpu-heap", "cpu-hash", "rmerge2", "bhsparse", "nsparse"
    );
    for cf in [0.5, 2.0, 8.0, 32.0, 128.0] {
        let cpu = |k| model.cpu_spgemm_rate(k, cf);
        let gpu = |l| model.gpu_spgemm_rate(l, cf) * 6.0; // node aggregate
        println!(
            "{:<10} {:>12.2e} {:>12.2e} {:>12.2e} {:>12.2e} {:>12.2e}",
            cf,
            cpu(SpgemmKernel::CpuHeap),
            cpu(SpgemmKernel::CpuHash),
            gpu(GpuLib::Rmerge2),
            gpu(GpuLib::Bhsparse),
            gpu(GpuLib::Nsparse),
        );
    }
    println!(
        "\n(the hybrid selector picks the row-wise winner: heap below cf≈2,\n\
         hash above; nsparse when a GPU is available and cf is large — §VI)"
    );
}
