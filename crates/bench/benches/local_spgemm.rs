//! Criterion microbenchmark: the CPU SpGEMM accumulators (heap / hash /
//! SPA, and the hash kernel forced into hashed addressing, which no
//! benchmark workload leaves direct addressing to reach), the exact
//! estimator's symbolic pass, the post-expansion prune and a multi-GPU
//! launch (one case: every library label runs the hash kernel) across
//! density regimes — the measured counterpart of the §VI selection recipe. Every case is timed at width 1
//! and at the host's width (`hipmcl_bench::scaling_pools`); the printed
//! flops and nnz turn the times into rates.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hipmcl_comm::{GpuLib, MachineModel};
use hipmcl_gpu::multi::MultiGpu;
use hipmcl_sparse::colops::{self, PruneParams};
use hipmcl_sparse::PlusTimes;
use hipmcl_spgemm::hash::Addressing::Hashed;
use hipmcl_spgemm::testutil::random_csc;

fn local_spgemm(c: &mut Criterion) {
    for (width, pool) in hipmcl_bench::scaling_pools() {
        pool.install(|| local_spgemm_at(c, width));
    }
}

fn local_spgemm_at(c: &mut Criterion, width: usize) {
    let mut group = c.benchmark_group(format!("local_spgemm/w{width}"));
    group.sample_size(10);
    // (label, nrows, n, nnz) of `A · B`, `A` nrows × n: sparse -> low cf,
    // dense -> high cf; square cases are `A · A`. The tall case has more
    // rows than the hash accumulator addresses directly
    // (`hash::DIRECT_BUDGET_BYTES`), which keeps its hashed arm measured.
    let shapes = [
        ("sparse_cf~1", 2000usize, 2000usize, 8_000usize),
        ("medium_cf", 1000, 1000, 30_000),
        ("dense_cf", 600, 600, 60_000),
        ("tall_hashed", 100_000, 1000, 30_000),
    ];
    let cases = shapes.map(|(label, nrows, n, nnz)| {
        let a = random_csc(nrows, n, nnz, 42);
        let b = if nrows == n {
            a.clone()
        } else {
            random_csc(n, n, nnz, 43)
        };
        (label, a, b)
    });
    for (label, a, b) in &cases {
        let input = &(a, b);
        group.bench_with_input(BenchmarkId::new("cpu-heap", label), input, |bch, (a, b)| {
            bch.iter(|| hipmcl_spgemm::heap::multiply(a, b))
        });
        group.bench_with_input(BenchmarkId::new("cpu-hash", label), input, |bch, (a, b)| {
            bch.iter(|| hipmcl_spgemm::hash::multiply(a, b))
        });
        group.bench_with_input(BenchmarkId::new("cpu-spa", label), input, |bch, (a, b)| {
            bch.iter(|| hipmcl_spgemm::spa::multiply(a, b))
        });
        let fpc = hipmcl_spgemm::flops_per_column(a, b);
        let hashed = BenchmarkId::new("cpu-hash-hashed", label);
        group.bench_with_input(hashed, input, |bch, (a, b)| {
            bch.iter(|| {
                hipmcl_spgemm::hash::multiply_as(Hashed, PlusTimes::<f64>::new(), a, b, &fpc)
            })
        });
        group.bench_with_input(BenchmarkId::new("symbolic", label), input, |bch, (a, b)| {
            bch.iter(|| hipmcl_spgemm::symbolic::output_counts(a, b))
        });
        let mut product = hipmcl_spgemm::hash::multiply(a, b);
        let (flops, nnz) = (hipmcl_spgemm::flops(a, b), product.nnz());
        println!("local_spgemm/{label}: {flops} flops, nnz(C) {nnz}");
        colops::normalize_columns(&mut product);
        group.bench_with_input(BenchmarkId::new("prune", label), &product, |bch, m| {
            bch.iter(|| colops::prune(m, &PruneParams::default()))
        });
        let mut gpus = MultiGpu::summit_node(&MachineModel::summit());
        group.bench_with_input(
            BenchmarkId::new("multi-gpu", label),
            input,
            |bch, (a, b)| {
                bch.iter(|| {
                    gpus.multiply(0.0, a, b, GpuLib::Nsparse)
                        .expect("fits a V100")
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, local_spgemm);
criterion_main!(benches);
