//! Probabilistic `nnz(A·B)` estimation — Cohen's layered-graph min-key
//! sketch (§V of the paper; Cohen, J. Comb. Opt. 1998).
//!
//! The product `C = AB` is viewed as a three-layer graph: first-layer
//! vertices are the rows of `A`, middle-layer vertices the columns of `A`
//! (= rows of `B`), third-layer vertices the columns of `B`. `nnz(C_{*j})`
//! is the number of first-layer vertices reachable from third-layer vertex
//! `j`. Each first-layer vertex draws `r` keys from Exp(λ=1); propagating
//! the *minimum* key across layers makes the final key of `j` the minimum
//! over its reachability set, and for exponential keys
//! `(r − 1) / Σ_{t=1..r} key_{j,t}` is an unbiased estimator of that set's
//! size. Cost: `O(r · (nnz A + nnz B))` — independent of `flops`, which is
//! the whole point when `cf` is large.
//!
//! Both propagation steps are column-parallel; per-vertex key blocks are
//! contiguous so the inner min-loops vectorize.

use hipmcl_sparse::{Csc, Value};
use rand::SeedableRng;
use rand_distr::{Distribution, Exp1};
use rayon::prelude::*;

/// Reusable estimator configured with a key count and an RNG seed.
///
/// `r` controls accuracy: the relative standard error of a single column
/// estimate is `≈ 1/√(r−2)`. The paper finds r ∈ {3,5,7,10} already lands
/// within ~10 % of the exact count on MCL matrices (Fig. 6).
#[derive(Clone, Copy, Debug)]
pub struct CohenEstimator {
    /// Number of independent exponential keys per vertex.
    pub r: usize,
    /// Seed for the key draws (deterministic runs).
    pub seed: u64,
}

impl CohenEstimator {
    /// Creates an estimator with `r` keys.
    pub fn new(r: usize, seed: u64) -> Self {
        assert!(r >= 2, "the estimator needs at least two keys");
        Self { r, seed }
    }

    /// Draws the first-layer key matrix: `r` keys per row of `A`,
    /// stored row-major (`keys[row * r + t]`).
    pub fn draw_keys(&self, nrows: usize) -> Vec<f32> {
        self.draw_keys_for(0..nrows)
    }

    /// [`draw_keys`](Self::draw_keys) for the vertex ids in `ids` only
    /// (`keys[(id - ids.start) * r + t]`). A vertex's keys depend on
    /// `(seed, id)` alone, so ranks holding different row ranges of one
    /// distributed matrix agree on every key without communication.
    pub fn draw_keys_for(&self, ids: std::ops::Range<usize>) -> Vec<f32> {
        let r = self.r;
        ids.into_par_iter()
            .flat_map_iter(|i| {
                let mut rng = rand::rngs::SmallRng::seed_from_u64(
                    self.seed ^ (i as u64).wrapping_mul(0x9E3779B97F4A7C15),
                );
                (0..r).map(move |_| {
                    let e: f64 = Exp1.sample(&mut rng);
                    e as f32
                })
            })
            .collect()
    }

    /// Propagates min-keys one layer: given keys on the rows of `m`
    /// (`r` per row), produces keys on the columns of `m`
    /// (`key_col[j][t] = min over rows i ∈ m_{*j} of key_row[i][t]`).
    /// Columns with no nonzeros get `+∞` keys (empty reachability).
    pub fn propagate<T: Value>(&self, m: &Csc<T>, row_keys: &[f32]) -> Vec<f32> {
        assert_eq!(row_keys.len(), m.nrows() * self.r);
        let r = self.r;
        let mut col_keys = vec![f32::INFINITY; m.ncols() * r];
        col_keys
            .par_chunks_mut(r)
            .enumerate()
            .for_each(|(j, mins)| {
                // One pass per column: each row's `r` keys are contiguous.
                for &i in m.col_rows(j) {
                    let keys = &row_keys[i as usize * r..][..r];
                    for (mn, &k) in mins.iter_mut().zip(keys) {
                        // A select, not a branch: compiles to a vector min.
                        *mn = if k < *mn { k } else { *mn };
                    }
                }
            });
        col_keys
    }

    /// Converts final keys (per column of `B`) into per-column cardinality
    /// estimates `(r − 1) / Σ_t key_t`. Empty columns estimate 0.
    pub fn estimates_from_keys(&self, col_keys: &[f32], ncols: usize) -> Vec<f64> {
        assert_eq!(col_keys.len(), ncols * self.r);
        let r = self.r;
        (0..ncols)
            .into_par_iter()
            .map(|j| {
                let keys = &col_keys[j * r..(j + 1) * r];
                if keys.iter().any(|k| k.is_infinite()) {
                    return 0.0;
                }
                let sum: f64 = keys.iter().map(|&k| k as f64).sum();
                if sum <= 0.0 {
                    0.0
                } else {
                    (r as f64 - 1.0) / sum
                }
            })
            .collect()
    }

    /// Estimates `nnz(A·B)` per output column. The full pipeline:
    /// draw keys on rows of `A` → propagate through `A` → propagate
    /// through `B` → estimate.
    pub fn estimate_columns<T: Value>(&self, a: &Csc<T>, b: &Csc<T>) -> Vec<f64> {
        assert_eq!(a.ncols(), b.nrows(), "inner dimensions must agree");
        let row_keys = self.draw_keys(a.nrows());
        let mid_keys = self.propagate(a, &row_keys);
        let out_keys = self.propagate(b, &mid_keys);
        self.estimates_from_keys(&out_keys, b.ncols())
    }

    /// Estimates total `nnz(A·B)`.
    pub fn estimate_total<T: Value>(&self, a: &Csc<T>, b: &Csc<T>) -> f64 {
        self.estimate_columns(a, b).iter().sum()
    }

    /// Number of scalar operations the estimator performs — the paper's
    /// `O(r · (nnz A + nnz B))` cost used by the machine model.
    pub fn op_count<T: Value>(&self, a: &Csc<T>, b: &Csc<T>) -> u64 {
        self.r as u64 * (a.nnz() as u64 + b.nnz() as u64)
    }
}

/// Convenience: relative error `|est − exact| / exact` (0 when both are 0).
pub fn relative_error(estimate: f64, exact: f64) -> f64 {
    if exact == 0.0 {
        if estimate == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (estimate - exact).abs() / exact
    }
}

/// Draws a seeded uniform in `[0,1)` — test helper for key sanity checks.
#[cfg(test)]
pub(crate) fn uniform01(seed: u64) -> f64 {
    use rand::Rng;
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
    rng.gen::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::random_csc;

    #[test]
    fn keys_are_positive_and_deterministic() {
        let e = CohenEstimator::new(5, 42);
        let k1 = e.draw_keys(100);
        let k2 = e.draw_keys(100);
        assert_eq!(k1, k2, "same seed, same keys");
        assert!(k1.iter().all(|&k| k > 0.0));
        assert_eq!(k1.len(), 500);
        // Exp(1) has mean 1; the sample mean over 500 draws should be close.
        let mean: f64 = k1.iter().map(|&k| k as f64).sum::<f64>() / 500.0;
        assert!((mean - 1.0).abs() < 0.2, "mean {mean} far from 1.0");
    }

    #[test]
    fn draw_keys_deterministic_across_ranges() {
        // Keys for id 5 must be identical whether drawn in 0..10 or 5..6.
        let e = CohenEstimator::new(3, 42);
        let a = e.draw_keys_for(0..10);
        let b = e.draw_keys_for(5..6);
        assert_eq!(&a[15..18], &b[..]);
        assert_eq!(a, e.draw_keys(10));
    }

    #[test]
    fn propagate_takes_columnwise_min() {
        // Column 0 of m touches rows 0 and 2.
        let mut t = hipmcl_sparse::Triples::new(3, 2);
        t.push(0, 0, 1.0);
        t.push(2, 0, 1.0);
        t.push(1, 1, 1.0);
        let m = Csc::from_triples(&t);
        let e = CohenEstimator::new(2, 1);
        let row_keys = vec![0.5, 0.9, 0.8, 0.2, 0.1, 0.7]; // rows 0,1,2
        let col_keys = e.propagate(&m, &row_keys);
        assert_eq!(col_keys, vec![0.1, 0.7, 0.8, 0.2]);
    }

    #[test]
    fn propagate_is_bit_equal_to_key_major_loop() {
        // The loop order before PR 13: key index outer, rows inner. `min`
        // over non-NaN keys is order-independent, so no key may move.
        let m = random_csc(60, 40, 500, 8);
        let e = CohenEstimator::new(5, 3);
        let row_keys = e.draw_keys(60);
        let old_loop = |(j, t): (usize, usize)| {
            let mut mn = f32::INFINITY;
            for &i in m.col_rows(j) {
                let k = row_keys[i as usize * 5 + t];
                if k < mn {
                    mn = k;
                }
            }
            mn.to_bits()
        };
        let want: Vec<u32> = (0..40 * 5).map(|x| old_loop((x / 5, x % 5))).collect();
        let got = e.propagate(&m, &row_keys);
        assert_eq!(got.iter().map(|k| k.to_bits()).collect::<Vec<_>>(), want);
    }

    #[test]
    fn propagate_empty_column_is_infinite() {
        let m = Csc::<f64>::zero(2, 2);
        let e = CohenEstimator::new(3, 1);
        let keys = e.propagate(&m, &[1.0; 6]);
        assert!(keys.iter().all(|k| k.is_infinite()));
        let est = e.estimates_from_keys(&keys, 2);
        assert_eq!(est, vec![0.0, 0.0]);
    }

    #[test]
    fn estimate_is_close_on_random_matrix() {
        // Moderately dense random square: exact nnz(A²) vs estimate.
        let a = random_csc(300, 300, 6000, 5);
        let exact = crate::symbolic::output_nnz(&a, &a) as f64;
        let e = CohenEstimator::new(10, 7);
        let est = e.estimate_total(&a, &a);
        let err = relative_error(est, exact);
        assert!(
            err < 0.15,
            "relative error {err} too large (est {est}, exact {exact})"
        );
    }

    #[test]
    fn more_keys_reduce_error_on_average() {
        let a = random_csc(200, 200, 3000, 9);
        let exact = crate::symbolic::output_nnz(&a, &a) as f64;
        // Average error over several seeds for r=3 vs r=10.
        let avg_err = |r: usize| {
            (0..8)
                .map(|s| relative_error(CohenEstimator::new(r, s).estimate_total(&a, &a), exact))
                .sum::<f64>()
                / 8.0
        };
        assert!(avg_err(10) < avg_err(3), "r=10 should beat r=3 on average");
    }

    #[test]
    fn op_count_formula() {
        let a = random_csc(10, 10, 30, 1);
        let e = CohenEstimator::new(4, 0);
        assert_eq!(e.op_count(&a, &a), 4 * 2 * a.nnz() as u64);
    }

    #[test]
    fn relative_error_conventions() {
        assert_eq!(relative_error(0.0, 0.0), 0.0);
        assert_eq!(relative_error(5.0, 0.0), f64::INFINITY);
        assert!((relative_error(11.0, 10.0) - 0.1).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least two keys")]
    fn r_below_two_rejected() {
        let _ = CohenEstimator::new(1, 0);
    }

    #[test]
    fn uniform01_in_range() {
        let u = uniform01(3);
        assert!((0.0..1.0).contains(&u));
    }
}
