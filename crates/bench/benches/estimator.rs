//! Criterion microbenchmark: Cohen probabilistic nnz estimation vs exact
//! symbolic SpGEMM (§V) — the wall-clock counterpart of Fig. 6's bottom
//! row — and the exact count of a 2×2 grid rank's output block: its two
//! stage products and their union, counted in one traversal.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hipmcl_sparse::Csc;
use hipmcl_spgemm::testutil::random_csc;
use hipmcl_spgemm::CohenEstimator;
use std::ops::Range;

/// Block `(rows, cols)` of `m` as a matrix of its own.
fn block(m: &Csc<f64>, rows: Range<usize>, cols: Range<usize>) -> Csc<f64> {
    m.column_slice(cols)
        .transposed()
        .column_slice(rows)
        .transposed()
}

fn estimation(c: &mut Criterion) {
    let mut group = c.benchmark_group("estimator");
    group.sample_size(10);
    for (label, n, nnz) in [("low_cf", 3000usize, 12_000usize), ("high_cf", 800, 64_000)] {
        let a = random_csc(n, n, nnz, 9);
        group.bench_with_input(BenchmarkId::new("exact-symbolic", label), &a, |b, a| {
            b.iter(|| hipmcl_spgemm::symbolic::output_nnz(a, a))
        });
        for r in [3usize, 10] {
            group.bench_with_input(
                BenchmarkId::new(format!("cohen-r{r}"), label),
                &a,
                |b, a| {
                    let est = CohenEstimator::new(r, 7);
                    b.iter(|| est.estimate_total(a, a))
                },
            );
        }
        // Rank (0, 0) of `A · A` on a 2×2 grid: `A₀₀·A₀₀ + A₀₁·A₁₀`.
        let (lo, hi) = (0..n / 2, n / 2..n);
        let a00 = block(&a, lo.clone(), lo.clone());
        let terms = [
            (a00.clone(), a00),
            (block(&a, lo.clone(), hi.clone()), block(&a, hi, lo)),
        ];
        group.bench_with_input(BenchmarkId::new("exact-sum-2x2", label), &terms, |b, t| {
            let patterns: Vec<_> = t.iter().map(|(x, y)| (x.pattern(), y.pattern())).collect();
            b.iter(|| hipmcl_spgemm::symbolic::sum_counts(&patterns))
        });
    }
    group.finish();
}

criterion_group!(benches, estimation);
criterion_main!(benches);
