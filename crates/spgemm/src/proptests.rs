//! Property tests: all SpGEMM kernels agree with each other and with the
//! dense reference, in both addressing modes over random universes; the
//! dispatched build of the hot loops agrees with the portable one;
//! symbolic and probabilistic estimators are consistent.

use crate::hash::Addressing::{Direct, Hashed};
use crate::hash::{Build, HashScratch, LANES};
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
        let (a, starts) = clique_blocks(&blocks, w);
        let mut tb = Triples::new(a.ncols(), reads.len());
        for (j, &(pick, mask)) in reads.iter().enumerate() {
            for k in clique_read(&starts, a.ncols(), pick, mask) {
                tb.push(k as Idx, j as Idx, w(k, j) - 2.0);
            }
        }
        (a, Csc::from_triples(&tb))
    })
}

/// `A` of [`arb_clique_blocks`] from its blocks' `(size, perturb)`, and
/// each block's `(first column, size)`.
fn clique_blocks(
    blocks: &[(usize, u8)],
    w: impl Fn(usize, usize) -> f64,
) -> (Csc<f64>, Vec<(usize, usize)>) {
    let n: usize = blocks.iter().map(|b| b.0).sum();
    let (mut ta, mut starts) = (Triples::new(2 * n, n), vec![]);
    for &(size, perturb) in blocks {
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
    (Csc::from_triples(&ta), starts)
}

/// The `k` a column of `B` reads in [`arb_clique_blocks`]: a subset of one
/// block (`pick` 0–5, by `mask`), one entry (6), two blocks' first columns
/// (7), or nothing.
fn clique_read(starts: &[(usize, usize)], n: usize, pick: usize, mask: u32) -> Vec<usize> {
    let (s, size) = starts[pick % starts.len()];
    match pick {
        0..=5 => (0..size)
            .filter(|i| mask >> i & 1 == 1)
            .map(|i| s + i)
            .collect(),
        6 => vec![mask as usize % n],
        7 => vec![s, starts[mask as usize % starts.len()].0],
        _ => vec![],
    }
}

/// Strategy: `B` whose columns come in pattern groups of 1–9 copies of a
/// [`clique_read`] — or of the previous pattern with its last `k` moved
/// (same first row and length, one row different) — spread over 64–160
/// columns among empty and single-entry columns, so that groups straddle
/// the column blocks of the kernel's workers; `A` of [`clique_blocks`].
/// Every column's values are its own.
fn arb_grouped() -> impl Strategy<Value = (Csc<f64>, Csc<f64>)> {
    let blocks = proptest::collection::vec((1usize..7, 0u8..4), 1..6);
    let groups = proptest::collection::vec((0usize..11, 0u32..64, 1usize..10), 1..12);
    let fill = (64usize..160, proptest::collection::vec(1u32..64, 97));
    (blocks, groups, fill).prop_map(|(blocks, groups, (ncols, weights))| {
        let w = |i: usize, j: usize| weights[(i * 31 + j * 7) % 97] as f64 / 10.0;
        let (a, starts) = clique_blocks(&blocks, w);
        let n = a.ncols();
        let mut cols: Vec<Vec<usize>> = vec![];
        let mut last = vec![0];
        for &(pick, mask, copies) in &groups {
            let ks = match pick {
                10 => {
                    let mut ks: Vec<usize> = last;
                    let free = (1..n).find(|k| *k > ks[0] && !ks.contains(k));
                    if let (true, Some(k)) = (ks.len() > 1, free) {
                        *ks.last_mut().expect("two") = k;
                        ks.sort_unstable();
                    }
                    ks
                }
                _ => clique_read(&starts, n, pick, mask),
            };
            cols.extend(std::iter::repeat_n(ks.clone(), copies));
            last = if ks.is_empty() { vec![0] } else { ks };
        }
        // Empty and single-entry columns up to `ncols`, then a shuffle.
        let pad = ncols.saturating_sub(cols.len());
        cols.extend((0..pad).map(|i| if i % 3 == 0 { vec![] } else { vec![i % n] }));
        let mut order: Vec<usize> = (0..cols.len()).collect();
        order.sort_by_key(|&i| (weights[i * 13 % 97], i));
        let mut tb = Triples::new(n, cols.len());
        for (j, &i) in order.iter().enumerate() {
            for &k in &cols[i] {
                tb.push(k as Idx, j as Idx, w(k, j) - 2.0);
            }
        }
        (a, Csc::from_triples(&tb))
    })
}

/// Every hash path — the rule's and both forced modes, each as the
/// grouping floor has it and with the columns grouped whatever the flops
/// — against the heap, bit for bit.
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
    for mode in [None, Some(Direct), Some(Hashed)] {
        prop_assert_eq!(
            bits(hash::multiply_grouped(mode, s, a, b, &fpc)),
            want.clone(),
            "grouped, {:?}",
            mode
        );
    }
    Ok(())
}

/// `|K|` of [`arb_lanes`]: one position, and both sides of one and two of
/// the tile's 64-position passes.
const KS: [usize; 5] = [1, 63, 64, 65, 129];

/// The operands of a tile and of a lane accumulator, read at positions
/// `0..|K|` by 1–[`LANES`] columns of `B`.
#[derive(Debug)]
struct Lanes {
    /// `A` whose columns all have one pattern of `8m + r` rows, `r` in
    /// 1..=7: full 8-row blocks, then a 4-row block and single rows or
    /// single rows alone.
    tile: Csc<f64>,
    /// `A` of the same shape whose columns have patterns of their own.
    lanes: Csc<f64>,
    /// Per column of `B`, its `|K|` values.
    bvs: Vec<Vec<f64>>,
}

/// Strategy: [`Lanes`] with nonzero values (a zero would leave `A`'s
/// pattern) that round when summed, so a changed fold order or a fused
/// `mul`-`add` shows in the low bits.
fn arb_lanes() -> impl Strategy<Value = Lanes> {
    let shape = (0usize..4, 1usize..8, 0usize..KS.len(), 1usize..=LANES);
    let weights = proptest::collection::vec(1u32..1000, 97);
    (shape, weights).prop_map(|((m, r, k, lanes), weights)| {
        let (nr, nk) = (8 * m + r, KS[k]);
        let nrows = 2 * nr + 3;
        let w = |i: usize, j: usize| weights[(i * 31 + j * 7) % 97] as f64 / 7.0 - 40.3;
        let (mut tile, mut own) = (Triples::new(nrows, nk), Triples::new(nrows, nk));
        for k in 0..nk {
            for i in 0..nr {
                tile.push((2 * i + 1) as Idx, k as Idx, w(i, k));
            }
            let rows = (0..nrows).filter(|&i| weights[(i * 11 + k * 5) % 97] % 3 != 0);
            for i in rows {
                own.push(i as Idx, k as Idx, w(i, k + 1));
            }
        }
        let bvs = (0..lanes)
            .map(|l| (0..nk).map(|i| w(i + 3, l * 17) / 3.0).collect())
            .collect();
        Lanes {
            tile: Csc::from_triples(&tile),
            lanes: Csc::from_triples(&own),
            bvs,
        }
    })
}

/// A non-commutative semiring (`mul` keeps its left operand, `add` the
/// larger): a kernel that swapped `a ⊗ b` to `b ⊗ a` would read `B`'s
/// values back.
#[derive(Clone, Copy, Debug, Default)]
struct MaxLeft;

impl Semiring for MaxLeft {
    type Elem = u64;
    const ZERO: u64 = 0;
    const ONE: u64 = 1;
    fn add(a: u64, b: u64) -> u64 {
        a.max(b)
    }
    fn mul(a: u64, b: u64) -> u64 {
        if a == 0 || b == 0 {
            0
        } else {
            a
        }
    }
}

/// The tile and the lane accumulator on the host's build and on the
/// portable one, both in either addressing mode, against a plain fold of
/// each entry in ascending position of `K`, bit for bit; `A` and `B`'s
/// values taken through `va` and `vb`.
fn dispatched_matches_portable<S: Semiring>(
    f: &Lanes,
    va: impl Fn(f64) -> S::Elem,
    vb: impl Fn(f64) -> S::Elem,
) -> Result<(), TestCaseError> {
    let bvs: Vec<Vec<S::Elem>> = (f.bvs.iter())
        .map(|b| b.iter().map(|&v| vb(v)).collect())
        .collect();
    let (tile, lanes) = (f.tile.map_values(&va), f.lanes.map_values(&va));
    match bvs.len() {
        1 => lanes_match::<S, 1>(&tile, &lanes, &bvs),
        2 => lanes_match::<S, 2>(&tile, &lanes, &bvs),
        3 => lanes_match::<S, 3>(&tile, &lanes, &bvs),
        _ => lanes_match::<S, LANES>(&tile, &lanes, &bvs),
    }
}

/// [`dispatched_matches_portable`] for `L` lanes.
fn lanes_match<S: Semiring, const L: usize>(
    tile: &Csc<S::Elem>,
    lanes: &Csc<S::Elem>,
    bvs: &[Vec<S::Elem>],
) -> Result<(), TestCaseError> {
    let bits = |v: &[S::Elem]| v.iter().map(|v| v.to_f64().to_bits()).collect::<Vec<_>>();
    let bvs: [&[S::Elem]; L] = std::array::from_fn(|l| &bvs[l][..]);
    let ks: Vec<Idx> = (0..tile.ncols() as Idx).collect();
    // Each output row's fold over `a`, in ascending position, lane by lane.
    let fold = |a: &Csc<S::Elem>| {
        let mut sums = std::collections::BTreeMap::<Idx, [S::Elem; L]>::new();
        for (i, &k) in ks.iter().enumerate() {
            let (rows, vals) = (a.col_rows(k as usize), a.col_vals(k as usize));
            for (&r, &av) in rows.iter().zip(vals) {
                let product = bvs.map(|bv| S::mul(av, bv[i]));
                sums.entry(r)
                    .and_modify(|s| *s = std::array::from_fn(|l| S::add(s[l], product[l])))
                    .or_insert(product);
            }
        }
        let rows: Vec<Idx> = sums.keys().copied().collect();
        let vals: Vec<S::Elem> = (0..L)
            .flat_map(|l| sums.values().map(move |s| s[l]))
            .collect();
        (rows, bits(&vals))
    };
    let (want_rows, want) = fold(tile);
    for build in [Build::PORTABLE, Build::host()] {
        let mut vals = vec![];
        hash::tile::<S, L>(build, tile, &ks, bvs, want_rows.len(), &mut vals);
        prop_assert_eq!(bits(&vals), want.clone(), "tile, {:?}", build);
    }
    let (want_rows, want) = fold(lanes);
    let nrows = lanes.nrows();
    for mode in [Direct, Hashed] {
        for build in [Build::PORTABLE, Build::host()] {
            let mut table = HashScratch::default();
            table.open_lanes(mode, L, nrows, nrows);
            hash::accumulate_lanes::<S, L>(build, &mut table, lanes, &ks, bvs);
            let (mut rows, mut vals) = (
                vec![0; table.len()],
                vec![S::Elem::default(); L * table.len()],
            );
            table.drain_sorted_into(0, &mut rows, &mut vals);
            prop_assert_eq!(&rows, &want_rows, "lanes, {:?}, {:?}", mode, build);
            prop_assert_eq!(bits(&vals), want.clone(), "lanes, {:?}, {:?}", mode, build);
        }
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
    fn grouped_columns_match_the_heap_in_three_semirings((a, b) in arb_grouped()) {
        hash_paths_match_the_heap(PlusTimes::<f64>::new(), &a, &b)?;
        hash_paths_match_the_heap(MinPlus, &a, &b)?;
        let (ba, bb) = (a.map_values(|v| v > 0.5), b.map_values(|v| v > 0.0));
        hash_paths_match_the_heap(Boolean, &ba, &bb)?;
    }

    #[test]
    fn dispatched_tile_and_lanes_match_the_portable_body_in_three_semirings(f in arb_lanes()) {
        dispatched_matches_portable::<PlusTimes<f64>>(&f, |v| v, |v| v)?;
        dispatched_matches_portable::<MinPlus>(&f, |v| v, |v| v)?;
        dispatched_matches_portable::<Boolean>(&f, |v| v > -20.0, |v| v > -10.0)?;
        let left = |v: f64| 1 + v.to_bits() % 64;
        dispatched_matches_portable::<MaxLeft>(&f, left, |v| 1000 + v.to_bits() % 64)?;
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
