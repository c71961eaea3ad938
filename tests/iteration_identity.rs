//! The serial MCL iteration prunes and inflates each expanded column as the
//! SpGEMM hands it over, and nothing it returns may show it: one
//! `mcl_iteration` equals `multiply_auto` → `colops::prune` →
//! `colops::inflate` in turn — same `colptr`, `rowidx`, value bits, chaos
//! bits and `MultAnalysis` — at pool widths 1 and 2, on a fixture of the
//! columns pruning treats specially and on real MCL iterates.

use hipmcl::core::serial::{mcl_iteration, prepare_matrix};
use hipmcl::prelude::*;
use hipmcl::sparse::colops::{self, PruneParams, PruneStats};
use hipmcl::sparse::Idx;
use hipmcl::spgemm::hybrid::multiply_auto;
use hipmcl::workloads::rmat::{generate_rmat, RmatParams};
use rayon::ThreadPoolBuilder;

type Bits = (Vec<usize>, Vec<Idx>, Vec<u64>);

fn bits(c: &Csc<f64>) -> Bits {
    c.assert_valid();
    let vals = c.vals.iter().map(|v| v.to_bits()).collect();
    (c.colptr.clone(), c.rowidx.clone(), vals)
}

/// One iteration of `a` fused and unfused under a pool of `width`: asserts
/// they agree and returns the iterate and what the prune did.
fn fused_is_unfused(a: &Csc<f64>, cfg: &MclConfig, width: usize) -> (Csc<f64>, PruneStats) {
    let pool = ThreadPoolBuilder::new().num_threads(width).build().unwrap();
    pool.install(|| {
        let mut fused = a.clone();
        let (analysis, chaos) = mcl_iteration(&mut fused, cfg);
        let (product, want_analysis, _) = multiply_auto(a, a);
        let (mut want, stats) = colops::prune(&product, &cfg.prune);
        colops::inflate(&mut want, cfg.inflation);
        assert_eq!(bits(&fused), bits(&want), "width {width}");
        assert_eq!(chaos.to_bits(), colops::chaos(&want).to_bits());
        assert_eq!(analysis, want_analysis);
        (fused, stats)
    })
}

/// Walks `iters` iterates of `graph` at widths 1 and 2 in lockstep and
/// returns what every prune did, summed.
fn walk(graph: &Csc<f64>, cfg: &MclConfig, iters: usize) -> PruneStats {
    let mut a = prepare_matrix(graph, cfg);
    let mut total = PruneStats::default();
    for _ in 0..iters {
        let (next, stats) = fused_is_unfused(&a, cfg, 1);
        assert_eq!(bits(&fused_is_unfused(&a, cfg, 2).0), bits(&next));
        total += stats;
        a = next;
    }
    total
}

/// Cutoff, selection and recovery each did something, and recovery only
/// when it is on.
fn every_stage_ran(stats: PruneStats, recovery: bool) {
    assert!(stats.pruned_by_cutoff > 0, "{stats:?}");
    assert!(stats.pruned_by_select > 0, "{stats:?}");
    assert_eq!(stats.recovered > 0, recovery, "{stats:?}");
}

/// The preset at `select`, with recovery off or MCL's `-R 1400 -pct 0.9`.
fn config(select: usize, recovery: bool) -> MclConfig {
    let mut cfg = MclConfig::optimized(4 << 30);
    cfg.prune.select = select;
    if recovery {
        cfg.prune = PruneParams {
            select,
            ..PruneParams::default()
        };
    }
    cfg
}

#[test]
fn archaea_iterates() {
    // At select 300, the benchmark's, no column loses a tenth of its mass.
    let graph = Csc::from_triples(&Dataset::Archaea.instance(2000).graph);
    for (select, recovery) in [(300, false), (50, false), (50, true)] {
        let cfg = config(select, recovery);
        every_stage_ran(walk(&graph, &cfg, 8), recovery);
    }
}

#[test]
fn rmat_iterates() {
    let graph = Csc::from_triples(&generate_rmat(&RmatParams::graph500(10, 16, 3)));
    for recovery in [false, true] {
        every_stage_ran(walk(&graph, &config(100, recovery), 6), recovery);
    }
}

/// `A = [[0, Q], [0, D]]` squares to `[[0, Q·D], [0, D²]]`: output column
/// `M + j` is `d_j · (q_j, d_j)`, with `q_j` in rows `0..M` and `d_j` on
/// the diagonal, and every column without a `d_j` is empty.
const M: usize = 64;

fn fixture(cols: &[(f64, &[(Idx, f64)])]) -> Csc<f64> {
    let n = 2 * M + cols.len() + 3;
    let mut t = Triples::new(n, n);
    for (j, &(d, q)) in cols.iter().enumerate() {
        let j = (M + j) as Idx;
        for &(row, v) in q {
            t.push(row, j, v);
        }
        t.push(j, j, d);
    }
    Csc::from_triples(&t)
}

#[test]
fn the_columns_pruning_treats_specially() {
    let below: Vec<(Idx, f64)> = (10..40).map(|r| (r, 0.015)).collect();
    let cols: [(f64, &[(Idx, f64)]); 5] = [
        // Every entry below the cutoff (2^-16 on the diagonal, the rest
        // under 7.9e-4), the maximum twice: `max_by` keeps row 2.
        (1.0 / 256.0, &[(0, 0.1), (1, 0.2), (2, 0.2), (3, 0.05)]),
        // Four 0.3s straddle the fourth-largest entry: two of them stay.
        (
            1.0,
            &[(0, 0.5), (1, 0.3), (2, 0.3), (3, 0.3), (4, 0.3), (5, 0.2)],
        ),
        // One entry above the cutoff and 88 % of the mass below it.
        (1.0 / 16.0, &below),
        // Three entries and exactly `select` = 4.
        (1.0, &[(0, 0.4), (1, 0.3)]),
        (1.0, &[(5, 0.4), (6, 0.3), (7, 0.2)]),
    ];
    let a = fixture(&cols);
    let mut cfg = MclConfig::testing(4);
    cfg.prune.cutoff = 1e-3;
    let column = |c: &Csc<f64>, j: usize| c.col_rows(M + j).to_vec();
    for (recover_num, recover_pct) in [(0, 0.0), (6, 0.9)] {
        (cfg.prune.recover_num, cfg.prune.recover_pct) = (recover_num, recover_pct);
        let (out, stats) = fused_is_unfused(&a, &cfg, 1);
        assert_eq!(bits(&fused_is_unfused(&a, &cfg, 2).0), bits(&out));
        every_stage_ran(stats, recover_num > 0);
        let empty = (0..out.ncols()).filter(|&j| out.col_nnz(j) == 0).count();
        assert_eq!(
            empty,
            out.ncols() - cols.len(),
            "only the fixture's columns fill"
        );
        let diag = |j: usize| (M + j) as Idx;
        if recover_num == 0 {
            assert_eq!(column(&out, 0), [2]);
            assert_eq!(column(&out, 1), [0, 1, 2, diag(1)]);
            assert_eq!(column(&out, 2), [diag(2)]);
        } else {
            // The next two largest reach 90 % of the mass; the tied 0.3s
            // fill up to `recover_num`; 0.015 / 16 is recovered 5 times.
            assert_eq!(column(&out, 0), [0, 1, 2]);
            assert_eq!(out.col_nnz(M + 1), 6);
            assert_eq!(out.col_nnz(M + 2), 6);
        }
        assert_eq!(column(&out, 3), [0, 1, diag(3)]);
        assert_eq!(column(&out, 4), [5, 6, 7, diag(4)]);
    }
}
