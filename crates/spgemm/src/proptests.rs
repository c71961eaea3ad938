//! Property tests: all SpGEMM kernels agree with each other and with the
//! dense reference, in both addressing modes over random universes;
//! symbolic and probabilistic estimators are consistent.

use crate::hash::Addressing::{Direct, Hashed};
use crate::testutil::dense_reference;
use crate::{hash, heap, spa, symbolic};
use hipmcl_sparse::{Boolean, Csc, Idx, MinPlus, PlusTimes, Semiring, Triples, Value};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Strategy: a pair of multiplicable random matrices with positive values.
fn arb_mult_pair() -> impl Strategy<Value = (Csc<f64>, Csc<f64>)> {
    (1usize..16, 1usize..16, 1usize..16).prop_flat_map(|(m, k, n)| {
        let a = proptest::collection::vec((0..m as Idx, 0..k as Idx, 1u32..100), 0..80);
        let b = proptest::collection::vec((0..k as Idx, 0..n as Idx, 1u32..100), 0..80);
        (a, b).prop_map(move |(ea, eb)| {
            let mut ta = Triples::new(m, k);
            for (r, c, v) in ea {
                ta.push(r, c, v as f64 / 16.0);
            }
            let mut tb = Triples::new(k, n);
            for (r, c, v) in eb {
                tb.push(r, c, v as f64 / 16.0);
            }
            (Csc::from_triples(&ta), Csc::from_triples(&tb))
        })
    })
}

/// Strategy: `A` with up to 9000 rows — past the bitmap's word (64) and
/// summary-word (4096) edges, last row included — times a small `B`, with
/// signed dyadic values so that sums cancel exactly.
fn arb_tall_pair() -> impl Strategy<Value = (Csc<f64>, Csc<f64>)> {
    (1usize..9000, 1usize..8, 1usize..8).prop_flat_map(|(m, k, n)| {
        let a = proptest::collection::vec((0..m as Idx, 0..k as Idx, 1u32..8), 0..60);
        let b = proptest::collection::vec((0..k as Idx, 0..n as Idx, 1u32..8), 0..40);
        (a, b).prop_map(move |(ea, eb)| {
            let mut ta = Triples::new(m, k);
            ta.push(m as Idx - 1, 0, 1.0);
            for (r, c, v) in ea {
                ta.push(r, c, v as f64 / 4.0 - 1.0);
            }
            let mut tb = Triples::new(k, n);
            for (r, c, v) in eb {
                tb.push(r, c, v as f64 / 4.0 - 1.0);
            }
            (Csc::from_triples(&ta), Csc::from_triples(&tb))
        })
    })
}

/// Strategy: 1–3 terms `(A_t, B_t)` of one output shape, inner dimensions
/// of their own, signed values whose products can cancel exactly.
fn arb_sum() -> impl Strategy<Value = Vec<(Csc<f64>, Csc<f64>)>> {
    let csc = |m: usize, n: usize, entries: Vec<(Idx, Idx, i32)>| {
        let mut t = Triples::new(m, n);
        entries
            .into_iter()
            .for_each(|(r, c, v)| t.push(r, c, v as f64 / 4.0));
        Csc::from_triples(&t)
    };
    (1usize..16, 1usize..16).prop_flat_map(move |(m, n)| {
        let term = (1usize..16).prop_flat_map(move |k| {
            let a = proptest::collection::vec((0..m as Idx, 0..k as Idx, -8i32..8), 0..60);
            let b = proptest::collection::vec((0..k as Idx, 0..n as Idx, -8i32..8), 0..60);
            (a, b).prop_map(move |(ea, eb)| (csc(m, k, ea), csc(k, n, eb)))
        });
        proptest::collection::vec(term, 1..=3)
    })
}

/// Strategy: clique-block `A` — each block of columns has one pattern,
/// every other row of its range, so that a column can differ in a middle
/// row alone — with, per block, one column near-shared (a middle row moved
/// by one: same length, first and last row), one empty, or none; and `B`
/// whose columns read a subset of one block, one entry, two blocks' first
/// columns, or nothing. Weights random.
fn arb_clique_blocks() -> impl Strategy<Value = (Csc<f64>, Csc<f64>)> {
    let blocks = proptest::collection::vec((1usize..7, 0u8..4), 1..6);
    let reads = proptest::collection::vec((0usize..10, 0u32..64), 0..24);
    let weights = proptest::collection::vec(1u32..64, 97);
    (blocks, reads, weights).prop_map(|(blocks, reads, weights)| {
        let w = |i: usize, j: usize| weights[(i * 31 + j * 7) % 97] as f64 / 10.0;
        let n: usize = blocks.iter().map(|b| b.0).sum();
        let (mut ta, mut starts) = (Triples::new(2 * n, n), vec![]);
        for &(size, perturb) in &blocks {
            let s = starts.last().map_or(0, |&(s, z): &(usize, usize)| s + z);
            starts.push((s, size));
            for k in s..s + size {
                for i in s..s + size {
                    let r = match (perturb, k - s, i - s) {
                        (1, 0, 1) if size > 2 => 2 * i - 1,
                        (2, 0, _) => continue,
                        _ => 2 * i,
                    };
                    ta.push(r as Idx, k as Idx, w(r, k));
                }
            }
        }
        let mut tb = Triples::new(n, reads.len());
        for (j, &(pick, mask)) in reads.iter().enumerate() {
            let (s, size) = starts[pick % starts.len()];
            let ks: Vec<usize> = match pick {
                0..=5 => (0..size)
                    .filter(|i| mask >> i & 1 == 1)
                    .map(|i| s + i)
                    .collect(),
                6 => vec![mask as usize % n],
                7 => vec![s, starts[mask as usize % starts.len()].0],
                _ => vec![],
            };
            for k in ks {
                tb.push(k as Idx, j as Idx, w(k, j) - 2.0);
            }
        }
        (Csc::from_triples(&ta), Csc::from_triples(&tb))
    })
}

/// Every hash path — the rule's and both forced modes — against the heap,
/// bit for bit.
fn hash_paths_match_the_heap<S: Semiring>(
    s: S,
    a: &Csc<S::Elem>,
    b: &Csc<S::Elem>,
) -> Result<(), TestCaseError> {
    let bits = |c: Csc<S::Elem>| {
        let vals: Vec<u64> = c.vals.iter().map(|v| v.to_f64().to_bits()).collect();
        (c.colptr, c.rowidx, vals)
    };
    let want = bits(heap::multiply_in(s, a, b));
    let fpc = crate::analysis::flops_per_column(a, b);
    prop_assert_eq!(bits(hash::multiply_in(s, a, b)), want.clone());
    for mode in [Direct, Hashed] {
        prop_assert_eq!(
            bits(hash::multiply_as(mode, s, a, b, &fpc)),
            want.clone(),
            "{:?}",
            mode
        );
    }
    Ok(())
}

/// The terms `(A_t, B_t)` of a sum of products.
type Terms<T> = [(Csc<T>, Csc<T>)];

/// [`symbolic::sum_counts`] against what the exact estimator built before
/// it: each term multiplied in `s`, its pattern valued 1.0, the patterns
/// summed.
fn sum_counts_match<S: Semiring>(s: S, terms: &Terms<S::Elem>) -> Result<(), TestCaseError> {
    let patterns: Vec<_> = terms
        .iter()
        .map(|(a, b)| (a.pattern(), b.pattern()))
        .collect();
    let got = symbolic::sum_counts(&patterns);
    let products: Vec<Csc<f64>> = (terms.iter())
        .map(|(a, b)| hash::multiply_in(s, a, b).map_values(|_| 1.0))
        .collect();
    let want: Vec<u64> = products.iter().map(|p| p.nnz() as u64).collect();
    prop_assert_eq!(&got.terms, &want);
    let sum = (products[1..].iter()).fold(products[0].clone(), |sum, p| sum.add_elementwise(p));
    prop_assert_eq!(got.union, sum.nnz() as u64);
    Ok(())
}

proptest! {
    #[test]
    fn addressing_modes_agree_over_random_universes((a, b) in arb_tall_pair()) {
        let fpc = crate::analysis::flops_per_column(&a, &b);
        let pt = hipmcl_sparse::PlusTimes::<f64>::new();
        let want = heap::multiply(&a, &b);
        want.assert_valid();
        let counts: Vec<usize> = (0..want.ncols()).map(|j| want.col_nnz(j)).collect();
        prop_assert_eq!(symbolic::output_counts(&a, &b), counts);
        for mode in [Direct, Hashed] {
            let got = hash::multiply_as(mode, pt, &a, &b, &fpc);
            // Bit-equal, explicit zeros of cancelled sums included.
            prop_assert_eq!(&got.colptr, &want.colptr);
            prop_assert_eq!(&got.rowidx, &want.rowidx);
            let bits = |c: &Csc<f64>| c.vals.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&got), bits(&want), "{:?}", mode);
        }
    }

    #[test]
    fn shared_pattern_columns_match_the_heap_in_three_semirings((a, b) in arb_clique_blocks()) {
        hash_paths_match_the_heap(PlusTimes::<f64>::new(), &a, &b)?;
        hash_paths_match_the_heap(MinPlus, &a, &b)?;
        let (ba, bb) = (a.map_values(|v| v > 0.5), b.map_values(|v| v > 0.0));
        hash_paths_match_the_heap(Boolean, &ba, &bb)?;
    }

    #[test]
    fn kernels_match_dense_reference((a, b) in arb_mult_pair()) {
        let want = dense_reference(&a, &b);
        for (name, got) in [
            ("heap", heap::multiply(&a, &b)),
            ("hash", hash::multiply(&a, &b)),
            ("spa", spa::multiply(&a, &b)),
        ] {
            got.assert_valid();
            prop_assert!(got.max_abs_diff(&want) < 1e-9, "{} kernel mismatch", name);
        }
    }

    #[test]
    fn kernels_agree_exactly((a, b) in arb_mult_pair()) {
        // Same pattern, and the same fold order per entry: equal values.
        let c1 = heap::multiply(&a, &b);
        prop_assert_eq!(&c1, &hash::multiply(&a, &b));
        prop_assert_eq!(&c1, &spa::multiply(&a, &b));
    }

    #[test]
    fn sum_counts_are_the_terms_and_their_merged_sum(terms in arb_sum()) {
        sum_counts_match(PlusTimes::<f64>::new(), &terms)?;
        sum_counts_match(MinPlus, &terms)?;
        let boolean: Vec<_> = (terms.iter())
            .map(|(a, b)| (a.map_values(|v| v > 0.0), b.map_values(|v| v > 0.0)))
            .collect();
        sum_counts_match(Boolean, &boolean)?;
    }

    #[test]
    fn output_counts_are_exact((a, b) in arb_mult_pair()) {
        let c = hash::multiply(&a, &b);
        let counts = symbolic::output_counts(&a, &b);
        prop_assert_eq!(counts.len(), c.ncols());
        for (j, &cnt) in counts.iter().enumerate() {
            prop_assert_eq!(cnt, c.col_nnz(j));
        }
    }

    #[test]
    fn flops_bounds_output((a, b) in arb_mult_pair()) {
        let f = crate::analysis::flops(&a, &b);
        let nnz = symbolic::output_nnz(&a, &b);
        prop_assert!(nnz <= f, "output nnz can never exceed flops");
    }

    #[test]
    fn estimator_is_finite_and_nonnegative((a, b) in arb_mult_pair()) {
        let e = crate::estimate::CohenEstimator::new(5, 99);
        let ests = e.estimate_columns(&a, &b);
        prop_assert_eq!(ests.len(), b.ncols());
        for (j, &est) in ests.iter().enumerate() {
            prop_assert!(est.is_finite() && est >= 0.0, "col {} estimate {}", j, est);
        }
        // Columns with provably empty output estimate exactly zero.
        let counts = symbolic::output_counts(&a, &b);
        for j in 0..b.ncols() {
            if counts[j] == 0 {
                prop_assert_eq!(ests[j], 0.0);
            }
        }
    }

    #[test]
    fn multiply_auto_correct((a, b) in arb_mult_pair()) {
        let (c, analysis, _) = crate::hybrid::multiply_auto(&a, &b);
        prop_assert!(c.max_abs_diff(&dense_reference(&a, &b)) < 1e-9);
        prop_assert_eq!(analysis.nnz_out, c.nnz() as u64);
    }
}
