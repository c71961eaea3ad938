//! Criterion microbenchmark: one k-way merge (`merge_with`) against the
//! Algorithm 2 stack (§IV) on the same SUMMA-like intermediate products,
//! at fan-in 2, 4, 8 and 16. Every label runs the same list-order fold, so
//! the k-way case runs under one. Every case is timed at width 1 and at
//! the host's width (`hipmcl_bench::scaling_pools`); the printed element
//! counts turn the times into rates.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use hipmcl_comm::{MachineModel, MergeKernel};
use hipmcl_sparse::{Csc, PlusTimes};
use hipmcl_spgemm::testutil::random_csc;
use hipmcl_summa::merge::{merge_with, MergeKernelPolicy, StackMerger};

const SHAPE: (usize, usize) = (2000, 2000);

fn slabs(k: usize) -> Vec<Csc<f64>> {
    (0..k)
        .map(|i| random_csc(SHAPE.0, SHAPE.1, 40_000, i as u64))
        .collect()
}

fn merging(c: &mut Criterion) {
    for (width, pool) in hipmcl_bench::scaling_pools() {
        pool.install(|| merging_at(c, width));
    }
}

fn merging_at(c: &mut Criterion, width: usize) {
    let mut group = c.benchmark_group(format!("merge/w{width}"));
    group.sample_size(10);
    for k in [2usize, 4, 8, 16] {
        let mats = slabs(k);
        let elems: usize = mats.iter().map(Csc::nnz).sum();
        println!("merge: {elems} input elements at fan-in {k}");
        group.bench_with_input(BenchmarkId::new("merge_with", k), &mats, |b, mats| {
            b.iter(|| merge_with(PlusTimes::<f64>::new(), MergeKernel::Heap, mats, SHAPE))
        });
        // The merger consumes its inputs; clone them in setup so the
        // measurement covers merging only (comparable to the k-way case).
        group.bench_with_input(BenchmarkId::new("stack", k), &mats, |b, mats| {
            b.iter_batched(
                || mats.to_vec(),
                |mats| {
                    let (model, policy) = (MachineModel::summit(), MergeKernelPolicy::Auto);
                    let mut bm = StackMerger::new(model, policy, SHAPE);
                    for m in mats {
                        bm.push(m);
                    }
                    bm.finish()
                },
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, merging);
criterion_main!(benches);
