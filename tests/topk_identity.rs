//! Distributed cutoff + top-k pruning keeps exactly the entries the serial
//! `colops::prune` keeps — same rows, `to_bits()`-equal values, same
//! `PruneStats` summed over ranks — on every grid, and does it in one
//! collective per slab (three with recovery on).

use hipmcl::prelude::*;
use hipmcl::sparse::colops::{self, PruneParams, PruneStats};
use hipmcl::sparse::Idx;
use hipmcl::summa::merge::sink_slab;
use hipmcl::summa::topk::{prune_local_slab, PruneSink};
use proptest::prelude::*;

/// `n × n` matrix with about `fill`/256 of the entries present, values
/// `val(x)` of a per-entry pseudo-random `x` (splitmix64).
fn seeded(n: usize, fill: u64, seed: u64, val: impl Fn(u64) -> f64) -> Triples<f64> {
    let mut t = Triples::new(n, n);
    for (i, j) in (0..n).flat_map(|i| (0..n).map(move |j| (i, j))) {
        let mut x = (seed << 40 | (i as u64) << 20 | j as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        if (x >> 56) < fill {
            t.push(i as Idx, j as Idx, val(x ^ (x >> 31)));
        }
    }
    t
}

/// Values in `(0, 1]`, all distinct in practice: no ties anywhere.
fn distinct(x: u64) -> f64 {
    ((x >> 11) + 1) as f64 / (1u64 << 53) as f64
}

/// Six values: most columns put their selection threshold on a duplicate.
fn tied(x: u64) -> f64 {
    [0.05, 0.1, 0.2, 0.4, 0.4, 0.8][(x % 6) as usize]
}

fn params(cutoff: f64, select: usize, recover_num: usize, recover_pct: f64) -> PruneParams {
    PruneParams {
        cutoff,
        select,
        recover_num,
        recover_pct,
    }
}

/// What one grid made of `t`: every rank's pruned block and stats, the
/// pruned matrix gathered on rank 0, and the collectives one call issued.
struct GridRun {
    blocks: Vec<(Csc<f64>, PruneStats)>,
    global: Csc<f64>,
    rounds: usize,
}

fn prune_on_grid(p: usize, t: &Triples<f64>, params: PruneParams) -> GridRun {
    let per_rank = Universe::run(p, MachineModel::summit(), |comm| {
        let grid = ProcGrid::new(comm);
        let c = DistMatrix::from_global(&grid, t);
        let sent0 = grid.world.stats().msgs_sent;
        let (local, stats) = prune_local_slab(&grid.col_comm, &c.local, &params);
        let sent = grid.world.stats().msgs_sent - sent0;
        let pruned = DistMatrix { local, ..c };
        let global = pruned.gather_to_root(&grid);
        (pruned.local, stats, sent, global)
    });
    let side = (p as f64).sqrt().round() as usize;
    let sent: usize = per_rank.iter().map(|r| r.2).sum();
    GridRun {
        // A gather-then-broadcast collective over `side` ranks is
        // `2(side − 1)` messages, and each of the `side` process columns
        // runs its own.
        rounds: sent.checked_div(2 * side * (side - 1)).unwrap_or(0),
        global: per_rank[0].3.clone().expect("rank 0 gathers"),
        blocks: per_rank.into_iter().map(|r| (r.0, r.1)).collect(),
    }
}

fn summed(blocks: &[(Csc<f64>, PruneStats)]) -> PruneStats {
    let mut s = PruneStats::default();
    for (_, b) in blocks {
        s.pruned_by_cutoff += b.pruned_by_cutoff;
        s.pruned_by_select += b.pruned_by_select;
        s.recovered += b.recovered;
    }
    s
}

fn bits(m: &Csc<f64>) -> (Vec<usize>, Vec<Idx>, Vec<u64>) {
    m.assert_valid();
    let vals = m.vals.iter().map(|v| v.to_bits()).collect();
    (m.colptr.clone(), m.rowidx.clone(), vals)
}

/// Entry for entry and stat for stat against the serial prune, on the
/// 1×1, 2×2 and 3×3 grids.
fn assert_matches_serial(what: &str, t: &Triples<f64>, params: PruneParams) {
    let (want, want_stats) = colops::prune(&Csc::from_triples(t), &params);
    for p in [1usize, 4, 9] {
        let got = prune_on_grid(p, t, params);
        assert_eq!(bits(&got.global), bits(&want), "{what}: entries at p={p}");
        assert_eq!(summed(&got.blocks), want_stats, "{what}: stats at p={p}");
    }
}

#[test]
fn cutoff_and_selection_match_serial_entry_for_entry() {
    let dense = seeded(30, 150, 1, distinct);
    assert_matches_serial("cutoff only", &dense, params(0.4, 1000, 0, 0.0));
    assert_matches_serial("selection", &dense, params(0.05, 4, 0, 0.0));
    assert_matches_serial("select = 1", &dense, params(0.05, 1, 0, 0.0));
    assert_matches_serial("select ≥ column length", &dense, params(0.0, 30, 0, 0.0));
    assert_matches_serial(
        "tied selection",
        &seeded(30, 150, 2, tied),
        params(0.1, 3, 0, 0.0),
    );
    // Every column falls below the cutoff and keeps exactly its maximum.
    assert_matches_serial("all below cutoff", &dense, params(100.0, 5, 0, 0.0));
    // About a third of the columns hold no 0.8 and fall below the cutoff
    // whole, with their maximum duplicated across ranks: the last copy
    // stays.
    let thin = seeded(120, 12, 8, tied);
    assert_matches_serial("duplicated maximum", &thin, params(0.5, 7, 0, 0.0));
    // About half the columns (and many local blocks) are empty.
    let mut sparse = Triples::new(24, 24);
    for (i, j, v) in seeded(24, 120, 3, distinct).iter() {
        if j % 2 == 0 {
            sparse.push(i, j, v);
        }
    }
    assert_matches_serial("empty columns", &sparse, params(0.3, 3, 0, 0.0));
    // `side > ncols`: on the 3×3 grid one process column owns no column.
    let tiny = seeded(2, 256, 4, distinct);
    assert_matches_serial("empty local panels", &tiny, params(0.3, 1, 0, 0.0));
}

#[test]
fn recovery_matches_serial() {
    // Distinct values leave the recovery order fully specified, so even
    // the restored entries agree row for row.
    let dense = seeded(30, 150, 5, distinct);
    assert_matches_serial("recovery after cutoff", &dense, params(0.6, 50, 4, 0.8));
    assert_matches_serial("recovery after selection", &dense, params(0.01, 3, 6, 0.9));
    assert_matches_serial("recovery of lone maxima", &dense, params(100.0, 5, 3, 0.9));
    // Ties among the restored values return in row order on every grid.
    let tied_recovery = [
        (seeded(30, 150, 6, tied), params(0.3, 3, 6, 0.9)),
        (seeded(36, 200, 9, tied), params(0.3, 3, 8, 0.9)),
        (seeded(120, 140, 11, tied), params(0.3, 7, 12, 0.27)),
    ];
    for (t, params) in &tied_recovery {
        assert_matches_serial("recovery ties", t, *params);
    }
}

/// FNV-1a over every rank's pruned block and stats, in rank order.
fn digest(blocks: &[(Csc<f64>, PruneStats)]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut word = |w: u64| {
        for b in w.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (m, s) in blocks {
        let (colptr, rowidx, vals) = bits(m);
        colptr.iter().for_each(|&x| word(x as u64));
        rowidx.iter().for_each(|&x| word(x as u64));
        vals.iter().for_each(|&x| word(x));
        for x in [s.pruned_by_cutoff, s.pruned_by_select, s.recovered] {
            word(x as u64);
        }
    }
    h
}

/// Digests captured from the sort-based `prune_local_slab` this function
/// replaced (commit edef299), so the rewrite is pinned bit for bit —
/// entries, tie grants and stats on every rank — without keeping the old
/// body around. The lone-maxima digests were re-captured when a column
/// below the cutoff everywhere started keeping the last copy of its
/// maximum, as the serial prune does.
#[test]
fn pruned_slabs_and_stats_are_bit_identical_to_the_sorting_implementation() {
    let big = seeded(120, 140, 7, tied);
    // About a third of `thin`'s columns hold no 0.8 and fall below the
    // cutoff whole, with their maximum duplicated across ranks.
    let thin = seeded(120, 12, 8, tied);
    let small = seeded(36, 200, 9, tied);
    // Distinct values: recovery order fully specified at any column length.
    let wide = seeded(120, 140, 11, distinct);
    let cases = [
        (
            "selection p=4",
            4,
            &big,
            params(0.1, 7, 0, 0.0),
            0x6319_e621_9840_d99fu64,
        ),
        (
            "selection p=9",
            9,
            &big,
            params(0.1, 7, 0, 0.0),
            0xc3b0_1751_7171_620a,
        ),
        (
            "lone maxima p=4",
            4,
            &thin,
            params(0.5, 7, 0, 0.0),
            0xd7ad_1efb_7079_d676,
        ),
        (
            "lone maxima p=9",
            9,
            &thin,
            params(0.5, 7, 0, 0.0),
            0xe588_8bc1_46cc_9ace,
        ),
        (
            "recovery p=4",
            4,
            &small,
            params(0.3, 3, 8, 0.9),
            0x64d6_811d_e829_e948,
        ),
        (
            "recovery p=9",
            9,
            &small,
            params(0.3, 3, 8, 0.9),
            0x1911_62c3_4a6e_0464,
        ),
        (
            "wide recovery p=4",
            4,
            &wide,
            params(0.3, 7, 12, 0.27),
            0x3ba2_86b9_fd29_8f55,
        ),
        (
            "wide recovery p=9",
            9,
            &wide,
            params(0.3, 7, 12, 0.27),
            0x6b36_5ef1_3efe_bd5c,
        ),
    ];
    for (what, p, t, params, want) in cases {
        let got = digest(&prune_on_grid(p, t, params).blocks);
        assert_eq!(got, want, "{what}: digest {got:#018x}");
    }
}

#[test]
fn one_collective_per_slab_and_three_with_recovery() {
    let t = seeded(30, 150, 10, tied);
    for p in [4usize, 9] {
        let plain = prune_on_grid(p, &t, params(0.1, 3, 0, 0.0));
        assert_eq!(plain.rounds, 1, "p={p}");
        let recovering = prune_on_grid(p, &t, params(0.3, 3, 6, 0.9));
        assert!(recovering.blocks.iter().any(|(_, s)| s.recovered > 0));
        assert!(
            recovering.rounds <= 3,
            "p={p}: {} rounds",
            recovering.rounds
        );
    }
}

/// Parameters no prune can honour are refused with their reason before a
/// column is packed — not by an index out of range inside the selection.
#[test]
#[should_panic(expected = "invalid PruneParams: prune select = 0 out of range")]
fn a_zero_select_is_refused_before_packing() {
    prune_on_grid(1, &seeded(8, 150, 12, distinct), params(0.1, 0, 0, 0.0));
}

/// The same for a slab a merge sinks into the prune's candidates.
#[test]
#[should_panic(expected = "invalid PruneParams: prune select = 0 out of range")]
fn a_prune_sink_refuses_a_zero_select_before_packing() {
    let m = Csc::from_triples(&seeded(8, 150, 12, distinct));
    sink_slab(&m, &PruneSink(params(0.1, 0, 0, 0.0)));
}

proptest! {
    // Each case spins up two universes; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Top-k selection with threshold-straddling duplicate values keeps
    /// the serial prune's *identical* (row, value) entries and stats on
    /// every grid — not merely equal counts or value multisets. Values are
    /// drawn from a four-element set, so with a small `select` the
    /// selection threshold lands on a duplicated value in most columns and
    /// the tie grants decide who survives. The cutoff sends some columns
    /// below it whole, and recovery, when on, restores tied values as well.
    #[test]
    fn threshold_straddling_ties_keep_identical_entries_across_grids(
        entries in proptest::collection::vec((0..12usize, 0..12usize, 0..4u8), 30..90),
        select in 1..4usize,
        cutoff in 0.1..0.9f64,
        recover_num in 2..7usize,
    ) {
        let mut t = Triples::new(12, 12);
        for &(i, j, v) in &entries {
            // {0.2, 0.4, 0.6, 0.8}: heavy duplicates.
            t.push(i as Idx, j as Idx, 0.2 + 0.2 * v as f64);
        }
        t.sum_duplicates();
        assert_matches_serial("selection", &t, params(cutoff, select, 0, 0.0));
        assert_matches_serial("recovery", &t, params(cutoff, select, recover_num, 0.9));
    }
}
