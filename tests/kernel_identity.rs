//! Every CPU SpGEMM kernel and every GPU library label produce the same
//! matrix, bit for bit: same `colptr`, same `rowidx`, `to_bits()`-equal
//! values. The only thing that fixes a value is the order its products are
//! folded in — ascending position within `B_{*j}` on every kernel — so
//! addressing modes, table sizes, pass counts, heap mechanics and the
//! label a device launch carries must never show here, on exact sums and
//! on rounding ones alike.

use hipmcl::comm::{GpuLib, MachineModel};
use hipmcl::gpu::multi::MultiGpu;
use hipmcl::sparse::{Boolean, Csc, Idx, MaxMin, MinPlus, PlusTimes, Semiring, Triples, Value};
use hipmcl::spgemm::hash::Addressing::{self, Direct, Hashed};
use hipmcl::spgemm::{flops_per_column, hash, heap, hybrid, spa, symbolic};

/// `m × n` operand with about `fill`/256 of the entries present, values
/// `val(x)` of a per-entry pseudo-random `x` (splitmix64).
fn operand<T: Value>(m: usize, n: usize, fill: u64, seed: u64, val: impl Fn(u64) -> T) -> Csc<T> {
    let mut t = Triples::new(m, n);
    for (i, j) in (0..m).flat_map(|i| (0..n).map(move |j| (i, j))) {
        let mut x = (seed << 40 | (i as u64) << 20 | j as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        if (x >> 56) < fill {
            t.push(i as Idx, j as Idx, val(x ^ (x >> 31)));
        }
    }
    Csc::from_nodup_triples(&t)
}

/// Small signed multiples of 1/16: every sum is exact, many are zero.
fn dyadic(x: u64) -> f64 {
    [-2.0, -1.0, -0.5, 0.5, 1.0, 2.0][(x % 6) as usize] / 16.0
}

type Bits = (Vec<usize>, Vec<Idx>, Vec<u64>);

fn bits<T: Value>(c: &Csc<T>) -> Bits {
    c.assert_valid();
    let vals = c.vals.iter().map(|v| v.to_f64().to_bits()).collect();
    (c.colptr.clone(), c.rowidx.clone(), vals)
}

/// `A ⊗ B` as a launch labeled `lib` on two devices returns it.
fn on_devices<S: Semiring>(s: S, a: &Csc<S::Elem>, b: &Csc<S::Elem>, lib: GpuLib) -> Csc<S::Elem> {
    let mut gpus = MultiGpu::new(MachineModel::summit(), 2, 1 << 30);
    gpus.multiply_in(s, 0.0, a, b, lib)
        .expect("devices of 1 GiB")
        .0
}

/// Asserts the four CPU entry points, the hash kernel forced into each
/// addressing mode — and, with `gpu`, a device launch under each of the
/// three GPU library labels — return the same bits; returns them.
fn assert_identical<S: Semiring>(s: S, a: &Csc<S::Elem>, b: &Csc<S::Elem>, gpu: bool) -> Bits {
    let want = bits(&hash::multiply_in(s, a, b));
    let fpc = flops_per_column(a, b);
    let counts: Vec<usize> = want.0.windows(2).map(|w| w[1] - w[0]).collect();
    assert_eq!(symbolic::output_counts(a, b), counts);
    let mut others = vec![
        ("heap", heap::multiply_in(s, a, b)),
        ("spa", spa::multiply_in(s, a, b)),
        ("auto", hybrid::multiply_auto_in(s, a, b).0),
        ("direct", hash::multiply_as(Direct, s, a, b, &fpc)),
        ("hashed", hash::multiply_as(Hashed, s, a, b, &fpc)),
    ];
    if gpu {
        others.extend(GpuLib::all().map(|lib| (lib.name(), on_devices(s, a, b, lib))));
    }
    for (name, got) in others {
        assert_eq!(bits(&got), want, "{name} differs from hash");
    }
    want
}

#[test]
fn plus_times_with_exact_cancellation() {
    let a = operand(48, 40, 90, 1, dyadic);
    let b = operand(40, 56, 70, 2, dyadic);
    let (_, _, vals) = assert_identical(PlusTimes::<f64>::new(), &a, &b, true);
    // Cancelled entries stay, as explicit zeros, in every kernel.
    assert!(vals.contains(&0.0f64.to_bits()));
}

#[test]
fn power_of_two_counts_and_flops_beyond_nrows() {
    // A is 8 × 40 and full, so every non-empty output column has exactly
    // 8 = 2^3 rows, and flops_j = 8 · nnz(B_{*j}) exceeds nrows, which is
    // then what sizes the symbolic table.
    let a = operand(8, 40, 256, 3, dyadic);
    let b = operand(40, 24, 60, 4, dyadic);
    let counts = symbolic::output_counts(&a, &b);
    assert!(counts.iter().all(|&c| c == 8 || c == 0) && counts.contains(&8));
    assert!(flops_per_column(&a, &b).iter().any(|&f| f > 8));
    let (colptr, ..) = assert_identical(PlusTimes::<f64>::new(), &a, &b, true);
    assert_eq!(
        colptr.windows(2).map(|w| w[1] - w[0]).collect::<Vec<_>>(),
        counts
    );
}

#[test]
fn power_of_two_counts_through_the_table() {
    // The fixture above has one pattern in every column of `A`, so each of
    // its columns is formed without a table. Here column `k` lacks row
    // `k mod 8`, so every column of `B` reads at least two patterns: the
    // table takes each column, and holds exactly 8 rows in most.
    let full = operand(8, 40, 256, 3, dyadic);
    let mut t = Triples::new(8, 40);
    for k in 0..40 {
        let rows = full.col_rows(k).iter().zip(full.col_vals(k));
        for (&i, &v) in rows.filter(|&(&i, _)| i as usize != k % 8) {
            t.push(i, k as Idx, v);
        }
    }
    let a = Csc::from_nodup_triples(&t);
    let b = operand(40, 24, 60, 4, dyadic);
    let pt = PlusTimes::<f64>::new();
    let shared = (0..24).filter(|&j| hash::shared_column(pt, &a, &b, j, &mut vec![]).is_some());
    assert_eq!(shared.count(), 0);
    let counts = symbolic::output_counts(&a, &b);
    assert!(counts.iter().filter(|&&c| c == 8).count() > 12);
    assert!(flops_per_column(&a, &b).iter().any(|&f| f > 8));
    assert_identical(pt, &a, &b, true);
}

#[test]
fn a_wrong_count_panics_instead_of_padding_or_cutting_the_column() {
    // The one count left is the length of the slices a column is drained
    // into: the accumulated column of 8 rows goes into exactly 8 slots.
    let a = operand(8, 40, 256, 3, dyadic);
    let pt = PlusTimes::<f64>::new();
    for mode in [Direct, Hashed] {
        for slots in [7, 8, 9] {
            let drained = std::panic::catch_unwind(|| {
                let mut table = hash::HashScratch::default();
                table.open_as(mode, 8, 8);
                table.extend(pt, a.col_rows(0).iter().copied().zip([1.0; 8]));
                let (mut rows, mut vals) = (vec![0; slots], vec![0.0; slots]);
                table.drain_sorted_into(0, &mut rows, &mut vals);
                rows
            });
            match slots {
                8 => assert_eq!(drained.unwrap(), [0, 1, 2, 3, 4, 5, 6, 7]),
                _ => assert!(drained.is_err(), "{mode:?}, {slots} slots"),
            }
        }
    }
}

#[test]
fn bitmap_word_edges_and_the_last_row() {
    // nrows(A) around one word of the occupancy bitmap and one word of its
    // summary, with output in row `universe − 1`.
    let b = operand(40, 24, 70, 9, dyadic);
    for universe in [63, 64, 65, 4095, 4096, 4097] {
        let a = operand(universe, 40, 60, 8, dyadic);
        let (_, rows, _) = assert_identical(PlusTimes::<f64>::new(), &a, &b, true);
        assert!(rows.contains(&(universe as Idx - 1)), "universe {universe}");
    }
}

#[test]
fn both_sides_of_the_direct_budget_through_the_rule() {
    // The same hypersparse `B` against a short and a tall `A`: the rule
    // (`hash::multiply_in`, `multiply_auto_in`, the nsparse analogue) sends
    // the first product direct and the second hashed, and each agrees with
    // both forced modes and the heap.
    let b = operand(40, 24, 70, 9, dyadic);
    let budget = hash::DIRECT_BUDGET_BYTES / std::mem::size_of::<f64>();
    for (nrows, fill, mode) in [(budget / 16, 64, Direct), (budget + 9, 1, Hashed)] {
        let a = operand(nrows, 40, fill, 10, dyadic);
        let (colptr, ..) = assert_identical(PlusTimes::<f64>::new(), &a, &b, true);
        let mean = colptr[24].div_ceil(24);
        assert_eq!(Addressing::of::<f64>(mean, nrows), mode, "nrows = {nrows}");
    }
}

#[test]
fn min_plus_max_min_boolean_and_empty_operands() {
    let a = operand(40, 40, 50, 5, |x| (x % 64) as f64 / 8.0);
    assert_identical(MinPlus, &a, &a, true);
    assert_identical(MaxMin, &a, &a, true);
    let r = operand(40, 40, 30, 6, |_| true);
    assert_identical(Boolean, &r, &r, true);
    let (_, rows, _) = assert_identical(PlusTimes::<f64>::new(), &a, &Csc::zero(40, 9), true);
    assert!(rows.is_empty());
    assert_identical(PlusTimes::<f64>::new(), &Csc::zero(12, 40), &a, true);
}

/// `(max, left)` over `u64`: `⊗` returns its left operand unless either is
/// the zero. It does not commute, so a kernel that evaluates
/// `mul(b_kj, a_ik)` shows.
#[derive(Clone, Copy, Debug, Default)]
struct MaxLeft;

impl Semiring for MaxLeft {
    type Elem = u64;
    const ZERO: u64 = 0;
    /// Required by the trait and read by no kernel (a left projection has
    /// no two-sided identity).
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

#[test]
fn the_left_operand_of_mul_comes_from_a() {
    // Disjoint value ranges — `A` holds 1..=64, `B` 1000..=1063 — so which
    // operand a product kept is readable off the output.
    let a = operand(40, 32, 90, 11, |x| 1 + x % 64);
    let b = operand(32, 48, 70, 12, |x| 1000 + x % 64);
    let (_, rows, vals) = assert_identical(MaxLeft, &a, &b, true);
    assert!(!rows.is_empty() && vals.iter().all(|&v| f64::from_bits(v) <= 64.0));
    // Five more columns reading the pattern of `B`'s fullest column, each
    // with values of its own: a group the kernel forms four at a time.
    let full = (0..b.ncols()).max_by_key(|&j| b.col_nnz(j)).unwrap();
    let mut t = Triples::new(b.nrows(), b.ncols() + 5);
    for j in 0..b.ncols() {
        for (&k, &v) in b.col_rows(j).iter().zip(b.col_vals(j)) {
            t.push(k, j as Idx, v);
        }
    }
    for c in 0..5 {
        for (i, &k) in b.col_rows(full).iter().enumerate() {
            t.push(
                k,
                (b.ncols() + c) as Idx,
                1000 + (7 * c + 3 * i) as u64 % 64,
            );
        }
    }
    let grouped = Csc::from_triples_in(MaxLeft, &t);
    assert!(b.col_nnz(full) >= 2, "a pattern the kernel groups");
    let flops: u64 = flops_per_column(&a, &grouped).iter().sum();
    let floor = hash::GROUP_FLOPS_PER_COLUMN * grouped.ncols() as u64;
    assert!(flops >= floor, "{flops} flops: a product the kernel groups");
    let (colptr, _, vals) = assert_identical(MaxLeft, &a, &grouped, true);
    let n = colptr[b.ncols() + 1] - colptr[b.ncols()];
    assert!(n > 0 && (1..5).all(|c| colptr[b.ncols() + c + 1] - colptr[b.ncols() + c] == n));
    assert!(vals.iter().all(|&v| f64::from_bits(v) <= 64.0));
}

#[test]
fn rounding_sums_match_the_fixture_of_pr_12() {
    // Values whose sums round, so the fold order shows in the low bits
    // (cf ≈ 2.6). The digest was computed at commit 2125b04 (PR 12), where
    // the four CPU entry points already agreed. The GPU analogues fold in
    // other orders (unstable sort, merge tree — rmerge2 differs on this
    // input) and are held only to the exact cases above.
    let a = operand(96, 96, 40, 7, |x| 1.0 / (1 + x % 97) as f64 - 0.3);
    let (colptr, rows, vals) = assert_identical(PlusTimes::<f64>::new(), &a, &a, false);
    let words = (colptr.iter().map(|&p| p as u64))
        .chain(rows.iter().map(|&r| r as u64))
        .chain(vals.iter().copied());
    let digest = words.fold(0xCBF2_9CE4_8422_2325u64, |h, w| {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01B3)
    });
    assert_eq!((rows.len(), digest), (8251, 13_248_103_670_861_671_210));
}

/// The sorted k-way merge against the accumulator table, and nothing else:
/// for operands only those two kernels can take (4 G rows) or that are too
/// large to put through all eleven.
fn assert_heap_is_hash(a: &Csc<f64>, b: &Csc<f64>) -> Bits {
    let want = bits(&hash::multiply(a, b));
    assert_eq!(bits(&heap::multiply(a, b)), want, "heap differs from hash");
    want
}

#[test]
fn heap_is_hash_in_the_regime_the_baseline_benchmark_runs() {
    // Archaea ÷ 2000 at select 300: about 100 lists per column and 130
    // products per output entry from the third iterate on, where the
    // `operand` fixtures stop at 56 columns.
    let mut cfg = hipmcl::MclConfig::original_hipmcl(4 << 30);
    cfg.prune.select = 300;
    let graph = Csc::from_triples(&hipmcl::Dataset::Archaea.instance(2000).graph);
    let mut a = hipmcl::core::serial::prepare_matrix(&graph, &cfg);
    let mut regime = (0, 0.0f64);
    for _ in 0..4 {
        let (colptr, ..) = assert_heap_is_hash(&a, &a);
        let flops = hipmcl::spgemm::flops(&a, &a) as f64;
        regime = (a.nnz() / a.ncols(), flops / colptr[a.ncols()] as f64);
        hipmcl::core::serial::mcl_iteration(&mut a, &cfg);
    }
    assert!(regime.0 >= 90 && regime.1 >= 100.0, "(k, cf) = {regime:?}");
}

#[test]
fn fan_in_edges_lists_exhausted_at_birth_and_the_last_row_there_is() {
    // `A`: 2^32 − 1 rows, 70 columns; every fifth column empty, the others
    // hold rows {0, 1 + k % 7, 100 + k}, and column 64 the last row as well.
    // Built from sorted triples: nothing here may allocate by `nrows`.
    let nrows = u32::MAX as usize;
    let mut ta = Triples::new(nrows, 70);
    for k in (0..70u32).filter(|k| k % 5 != 0) {
        ta.push(0, k, dyadic(k as u64));
        ta.push(1 + k % 7, k, 1.0);
        ta.push(100 + k, k, dyadic(k as u64 + 1));
        if k == 64 {
            ta.push(u32::MAX - 1, k, 0.5);
        }
    }
    let a = Csc::from_sorted_dedup_triples(&ta);
    // `B`: column `j` selects the first `fan_in[j]` columns of `A` — around
    // every power of two up to 64 — and the last three select only empty
    // columns, only column 64, and column 64 after an empty one.
    let fan_in = [
        0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65,
    ];
    let mut tb = Triples::new(70, fan_in.len() + 3);
    for (j, &k) in fan_in.iter().enumerate() {
        (0..k).for_each(|i| tb.push(i, j as Idx, dyadic((i + k) as u64)));
    }
    let j = fan_in.len() as Idx;
    [(0, j), (5, j), (64, j + 1), (60, j + 2), (64, j + 2)]
        .into_iter()
        .for_each(|(i, j)| tb.push(i, j, 1.0));
    let b = Csc::from_triples(&tb);
    let (colptr, rows, _) = assert_heap_is_hash(&a, &b);
    let counts: Vec<usize> = colptr.windows(2).map(|w| w[1] - w[0]).collect();
    assert_eq!(counts[..4], [0, 0, 3, 5]);
    assert_eq!(counts[fan_in.len()..], [0, 4, 4]);
    assert_eq!(rows.last(), Some(&(u32::MAX - 1)));
}

#[test]
fn inexact_sums_fold_in_ascending_position_of_b() {
    // Every product lands in one of three rows, so each output entry is a
    // sum of up to 24 terms that absorb or cancel depending on the order.
    let terms = [1e16, 1.0 / 3.0, -1e16, 1.0, 3e-17, 1e-1, -1.0 / 3.0, 2e16];
    let mut ta = Triples::new(3, 24);
    let mut tb = Triples::new(24, 5);
    for k in 0..24 {
        for i in (0..3).filter(|i| (k + i) % 4 != 0) {
            ta.push(i as Idx, k as Idx, terms[(k + 3 * i) % 8]);
        }
        for j in (0..5).filter(|j| (k * (j + 2)) % 3 != 1) {
            tb.push(k as Idx, j as Idx, terms[(5 * k + j) % 8] / 1e16);
        }
    }
    let (a, b) = (Csc::from_triples(&ta), Csc::from_triples(&tb));
    let (colptr, rows, vals) = assert_identical(PlusTimes::<f64>::new(), &a, &b, false);
    let mut reversed_differs = false;
    for j in 0..5 {
        for at in colptr[j]..colptr[j + 1] {
            let products = || {
                (b.col_rows(j).iter().zip(b.col_vals(j)))
                    .filter_map(|(&k, &bv)| Some(a.get(rows[at] as usize, k as usize)? * bv))
            };
            let forward = products().reduce(|acc, p| acc + p).unwrap();
            assert_eq!(vals[at], forward.to_bits(), "entry ({}, {j})", rows[at]);
            let backward = products().rev().reduce(|acc, p| acc + p).unwrap();
            reversed_differs |= backward.to_bits() != forward.to_bits();
        }
    }
    assert!(reversed_differs, "the fixture does not show the fold order");
}

#[test]
fn generic_values_round_alike_under_every_gpu_label() {
    use hipmcl::spgemm::testutil::random_csc;
    let pt = PlusTimes::<f64>::new();
    for seed in 0..10 {
        let a = random_csc(60, 60, 900, seed);
        let want = bits(&hash::multiply_in(pt, &a, &a));
        let fpc = flops_per_column(&a, &a);
        let mut exact = vec![
            ("heap", heap::multiply_in(pt, &a, &a)),
            ("spa", spa::multiply_in(pt, &a, &a)),
            ("auto", hybrid::multiply_auto_in(pt, &a, &a).0),
            ("direct", hash::multiply_as(Direct, pt, &a, &a, &fpc)),
            ("hashed", hash::multiply_as(Hashed, pt, &a, &a, &fpc)),
        ];
        exact.extend(GpuLib::all().map(|lib| (lib.name(), on_devices(pt, &a, &a, lib))));
        for (name, got) in exact {
            assert_eq!(bits(&got), want, "seed {seed}: {name} differs from hash");
        }
    }
}
