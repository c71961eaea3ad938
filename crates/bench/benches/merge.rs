//! Criterion microbenchmark: multiway vs binary merging of SUMMA
//! intermediate products (§IV), plus the five per-merge kernels
//! (heap, pairwise, hash, BRMerge, SpAdd) on one k-way merge. Every case
//! is timed at width 1 and at the host's width
//! (`hipmcl_bench::scaling_pools`); the printed element counts turn the
//! times into rates.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use hipmcl_comm::{MachineModel, MergeKernel};
use hipmcl_sparse::{Csc, PlusTimes};
use hipmcl_spgemm::testutil::random_csc;
use hipmcl_summa::merge::{kway_merge, merge_with, MergeKernelPolicy, StackMerger};

const SHAPE: (usize, usize) = (2000, 2000);

fn slabs(k: usize) -> Vec<Csc<f64>> {
    (0..k)
        .map(|i| random_csc(SHAPE.0, SHAPE.1, 40_000, i as u64))
        .collect()
}

fn at_both_widths(c: &mut Criterion, bench: fn(&mut Criterion, usize)) {
    for (width, pool) in hipmcl_bench::scaling_pools() {
        pool.install(|| bench(c, width));
    }
}

fn merging(c: &mut Criterion) {
    at_both_widths(c, merging_at)
}

fn merging_at(c: &mut Criterion, width: usize) {
    let mut group = c.benchmark_group(format!("merge/w{width}"));
    group.sample_size(10);
    for k in [4usize, 8, 16] {
        let mats = slabs(k);
        let elems: usize = mats.iter().map(Csc::nnz).sum();
        println!("merge: {elems} input elements at fan-in {k}");
        group.bench_with_input(BenchmarkId::new("multiway", k), &mats, |b, mats| {
            b.iter(|| kway_merge(mats, SHAPE))
        });
        // The merger consumes its inputs; clone them in setup so the
        // measurement covers merging only (comparable to multiway).
        // "binary-legacy" is the stack under `Fixed(Pairwise)`, the old
        // `Auto` at fan-in 2; "binary-auto" is today's `Auto`.
        for (name, policy) in [
            (
                "binary-legacy",
                MergeKernelPolicy::Fixed(MergeKernel::Pairwise),
            ),
            ("binary-auto", MergeKernelPolicy::Auto),
        ] {
            group.bench_with_input(BenchmarkId::new(name, k), &mats, |b, mats| {
                b.iter_batched(
                    || mats.to_vec(),
                    |mats| {
                        let mut bm = StackMerger::new(MachineModel::summit(), policy, SHAPE);
                        for m in mats {
                            bm.push(m);
                        }
                        bm.finish()
                    },
                    BatchSize::LargeInput,
                )
            });
        }
    }
    group.finish();
}

fn kernels(c: &mut Criterion) {
    at_both_widths(c, kernels_at)
}

fn kernels_at(c: &mut Criterion, width: usize) {
    let mut group = c.benchmark_group(format!("merge_kernel/w{width}"));
    group.sample_size(10);
    let mats = slabs(8);
    for kernel in MergeKernel::all() {
        group.bench_with_input(BenchmarkId::new(kernel.name(), 8), &mats, |b, mats| {
            b.iter(|| merge_with(PlusTimes::<f64>::new(), kernel, mats, SHAPE))
        });
    }
    group.finish();
}

criterion_group!(benches, merging, kernels);
criterion_main!(benches);
