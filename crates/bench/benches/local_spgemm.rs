//! Criterion microbenchmark: the CPU SpGEMM accumulators (heap / hash /
//! SPA) and the GPU-library kernel analogues across density regimes —
//! the measured counterpart of the §VI selection recipe.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hipmcl_comm::GpuLib;
use hipmcl_spgemm::testutil::random_csc;

fn local_spgemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("local_spgemm");
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
        for lib in GpuLib::all() {
            group.bench_with_input(BenchmarkId::new(lib.name(), label), input, |bch, (a, b)| {
                bch.iter(|| hipmcl_gpu::libs::multiply_csc(a, b, lib))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, local_spgemm);
criterion_main!(benches);
