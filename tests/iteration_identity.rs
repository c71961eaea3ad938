//! The serial MCL iteration prunes and inflates each expanded column as the
//! SpGEMM hands it over, and nothing it returns may show it: one
//! `mcl_iteration` equals `multiply_auto` → `colops::prune` →
//! `colops::inflate` in turn — same `colptr`, `rowidx`, value bits, chaos
//! bits and `MultAnalysis` — at pool widths 1 and 2, on a fixture of the
//! columns pruning treats specially and on real MCL iterates.
//!
//! Likewise the distributed iteration, whose closing merges pack each column
//! into the candidates the prune reads: every iteration of
//! `cluster_distributed_with` equals `summa_spgemm_with` +
//! `prune_local_slab` on the same operand, on grids of 1, 4 and 9 ranks and
//! every merge arm. The phase's last stage product streams into the merge
//! that takes it, column by column: one expansion of each arm — merge
//! strategy, pipelining, merge kernel, executor, kernel policy, and devices
//! that hold every launch or too few, whose launches run out of memory and
//! stream again from the host fallback — equals the slab-holding
//! path and the serial prune of the gathered unpruned product, and the
//! digest of what all of them pruned is the one captured before the last
//! product streamed. Both tests dispatch through `Universe::run_dist`, so
//! `HIPMCL_TRANSPORT=tcp` runs them over TCP loopback; `HIPMCL_MAX_RANKS=k`
//! skips the grids above `k` ranks.

use hipmcl::comm::collectives::allreduce_sum_vec;
use hipmcl::comm::MergeKernel;
use hipmcl::core::dist::{cluster_distributed_with, dist_inflate_and_chaos_cols};
use hipmcl::core::serial::{mcl_iteration, prepare_matrix};
use hipmcl::gpu::select::SelectionPolicy;
use hipmcl::prelude::*;
use hipmcl::sparse::colops::{self, PruneParams, PruneStats};
use hipmcl::sparse::{Idx, PlusTimes};
use hipmcl::spgemm::hybrid::multiply_auto;
use hipmcl::summa::merge::{MergeKernelPolicy, MergeStrategy};
use hipmcl::summa::spgemm::{summa_spgemm_with, summa_spgemm_with_in, PhasePlan};
use hipmcl::summa::topk::{prune_local_slab, prune_packed, PruneSink};
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

/// Every iteration of `cluster_distributed_with` on this rank, `a` on
/// `grid`, against `summa_spgemm_with` + `prune_local_slab` on the same
/// operand: the MCL loop's product (the observer's `out.c`) and the sunk
/// expansion's product and stats equal the unsunk ones bit for bit, and
/// gathered, summed over the ranks, what `colops::prune` makes of the
/// gathered unpruned product. Returns what this rank pruned, summed.
fn sunk_is_unsunk(grid: &ProcGrid, a: DistMatrix, cfg: &MclConfig) -> PruneStats {
    let (model, col) = (grid.world.model(), &grid.col_comm);
    let (mut gpus, mut spare) = (MultiGpu::summit_node(model), MultiGpu::summit_node(model));
    let mut operand = a.clone();
    let mut total = PruneStats::default();
    cluster_distributed_with(grid, &mut gpus, a, cfg, |iter, out| {
        let (mut want_stats, mut got_stats) = (PruneStats::default(), PruneStats::default());
        let mut slabs = Vec::new();
        let want = summa_spgemm_with(
            grid,
            &mut spare,
            &operand,
            &operand,
            &cfg.summa,
            |_, slab| {
                let (pruned, stats) = prune_local_slab(col, &slab, &cfg.prune);
                want_stats += stats;
                slabs.push(slab);
                pruned
            },
        );
        let (s, sink) = (PlusTimes::<f64>::new(), &PruneSink(cfg.prune));
        let b = &operand;
        let got = summa_spgemm_with_in(s, grid, &mut spare, b, b, &cfg.summa, sink, |_, packed| {
            let (pruned, stats) = prune_packed(col, &packed, &cfg.prune);
            got_stats += stats;
            pruned
        });
        let want_bits = bits(&want.c.local);
        assert_eq!(
            bits(&out.c.local),
            want_bits,
            "iteration {iter}: the MCL loop's product"
        );
        assert_eq!(
            bits(&got.c.local),
            want_bits,
            "iteration {iter}: the sunk product"
        );
        assert_eq!(got_stats, want_stats, "iteration {iter}: what was pruned");

        let unpruned = DistMatrix {
            local: Csc::hcat(&slabs),
            ..want.c
        };
        let stats = [
            want_stats.pruned_by_cutoff,
            want_stats.pruned_by_select,
            want_stats.recovered,
        ];
        let stats = allreduce_sum_vec(&grid.world, stats.map(|x| x as f64).to_vec());
        let serial = unpruned
            .gather_to_root(grid)
            .map(|m| colops::prune(&m, &cfg.prune));
        if let (Some((serial, serial_stats)), Some(got)) = (serial, out.c.gather_to_root(grid)) {
            assert_eq!(
                bits(&got),
                bits(&serial),
                "iteration {iter}: the serial prune"
            );
            let serial_stats = [
                serial_stats.pruned_by_cutoff,
                serial_stats.pruned_by_select,
                serial_stats.recovered,
            ];
            assert_eq!(
                stats,
                serial_stats.map(|x| x as f64),
                "iteration {iter}: its stats"
            );
        }
        total += want_stats;
        operand = out.c.clone();
        dist_inflate_and_chaos_cols(grid, &mut operand.local, cfg.inflation);
    });
    total
}

/// The grids, as rank counts, up to `HIPMCL_MAX_RANKS`.
fn grids() -> impl Iterator<Item = usize> {
    let max = std::env::var("HIPMCL_MAX_RANKS")
        .ok()
        .and_then(|s| s.parse().ok());
    [1, 4, 9]
        .into_iter()
        .filter(move |&p| p <= max.unwrap_or(usize::MAX))
}

/// Every merge arm: both strategies under the cost rule and every fixed
/// kernel, binary merging pipelined.
fn merge_arms() -> Vec<(MergeStrategy, MergeKernelPolicy)> {
    let policies = MergeKernel::all().map(MergeKernelPolicy::Fixed);
    let policies = [MergeKernelPolicy::Auto].into_iter().chain(policies);
    let strategies =
        policies.flat_map(|k| [(MergeStrategy::Binary, k), (MergeStrategy::Multiway, k)]);
    strategies.collect()
}

/// The columns the sink treats specially, as columns `M + j` of the
/// fixture's square (rows `0..M` and `M + j`; on the 3×3 grid rows from 45
/// on belong to the second block, on the 2×2 grid from 68 on). Every other
/// column is empty.
fn special_columns() -> Csc<f64> {
    let spread: Vec<(Idx, f64)> = (10..40).chain(50..58).map(|r| (r, 0.015)).collect();
    let cols: [(f64, &[(Idx, f64)]); 4] = [
        // Below the cutoff of 1e-3 everywhere, the maximum in rows 0 and
        // 50: the global last copy stays.
        (1.0 / 256.0, &[(0, 0.2), (1, 0.1), (50, 0.2), (60, 0.05)]),
        // The first block's four largest are 0.5 and three of four 0.3s; a
        // fifth 0.3 sits in the second block.
        (
            1.0,
            &[
                (0, 0.5),
                (1, 0.3),
                (2, 0.3),
                (3, 0.3),
                (4, 0.3),
                (50, 0.3),
                (51, 0.2),
            ],
        ),
        // Exactly `select` = 4 entries pass the cutoff.
        (1.0, &[(5, 0.4), (6, 0.3), (55, 0.2)]),
        // One entry above the cutoff and most of the mass below it, in
        // both blocks: what recovery restores is below the cutoff.
        (1.0 / 16.0, &spread),
    ];
    fixture(&cols)
}

#[test]
fn the_distributed_iteration_prunes_what_its_merges_pack() {
    let rmat = Csc::from_triples(&generate_rmat(&RmatParams::graph500(7, 16, 3)));
    let special = special_columns();
    let mut base = MclConfig::testing(4);
    base.prune.cutoff = 1e-3;
    let cases = [(prepare_matrix(&rmat, &base), 3), (special, 2)];
    for p in grids() {
        let per_rank = Universe::run_dist(p, MachineModel::summit(), |comm| {
            let grid = ProcGrid::new(comm);
            // What each case pruned by cutoff, by selection and restored.
            let mut stats = vec![0usize; 3 * cases.len()];
            for ((m, iters), stats) in cases.iter().zip(stats.chunks_mut(3)) {
                let a = DistMatrix::from_global(&grid, &m.to_triples());
                for (arm, (merge, merge_kernel)) in merge_arms().into_iter().enumerate() {
                    for recover_num in [0, 2 + arm % 5] {
                        let mut cfg = base;
                        cfg.max_iters = *iters;
                        cfg.prune.recover_num = recover_num;
                        cfg.prune.recover_pct = if recover_num > 0 { 0.9 } else { 0.0 };
                        cfg.summa.phases = PhasePlan::Fixed(2);
                        cfg.summa.merge = merge;
                        cfg.summa.merge_kernel = merge_kernel;
                        cfg.summa.pipelined = merge == MergeStrategy::Binary;
                        let s = sunk_is_unsunk(&grid, a.clone(), &cfg);
                        stats[0] += s.pruned_by_cutoff;
                        stats[1] += s.pruned_by_select;
                        stats[2] += s.recovered;
                    }
                }
            }
            stats
        });
        // Cutoff, selection and recovery each did something in each case.
        for (i, sum) in
            (0..3 * cases.len()).map(|i| (i, per_rank.iter().map(|s| s[i]).sum::<usize>()))
        {
            assert!(sum > 0, "p={p}: case {}, stat {}", i / 3, i % 3);
        }
    }
}

/// One expansion of `a` on `grid` under `cfg`, on two devices of
/// `device_mem` bytes a rank, pruned as the MCL loop prunes it (the sink
/// packs each merged column, the last stage product streams into its
/// merge): equal, bit for bit and stats included, to
/// `summa_spgemm_with` + `prune_local_slab` and, gathered and summed over
/// the ranks, to what `colops::prune` makes of the gathered unpruned
/// product. Returns this rank's pruned block and stats.
fn streamed_is_whole(
    grid: &ProcGrid,
    a: &DistMatrix,
    cfg: &MclConfig,
    device_mem: usize,
) -> (Bits, PruneStats) {
    let (col, params) = (&grid.col_comm, &cfg.prune);
    let gpus = || MultiGpu::new(grid.world.model().clone(), 2, device_mem);
    let (mut want_stats, mut got_stats) = (PruneStats::default(), PruneStats::default());
    let mut slabs = Vec::new();
    let want = summa_spgemm_with(grid, &mut gpus(), a, a, &cfg.summa, |_, slab| {
        let (pruned, stats) = prune_local_slab(col, &slab, params);
        want_stats += stats;
        slabs.push(slab);
        pruned
    });
    let (s, sink) = (PlusTimes::<f64>::new(), &PruneSink(*params));
    let got = summa_spgemm_with_in(s, grid, &mut gpus(), a, a, &cfg.summa, sink, |_, packed| {
        let (pruned, stats) = prune_packed(col, &packed, params);
        got_stats += stats;
        pruned
    });
    assert_eq!(bits(&got.c.local), bits(&want.c.local), "the pruned block");
    assert_eq!(got_stats, want_stats, "what was pruned");

    let unpruned = DistMatrix {
        local: Csc::hcat(&slabs),
        ..want.c
    };
    let counts = [
        got_stats.pruned_by_cutoff,
        got_stats.pruned_by_select,
        got_stats.recovered,
    ];
    let counts = allreduce_sum_vec(&grid.world, counts.map(|x| x as f64).to_vec());
    let serial = (unpruned.gather_to_root(grid)).map(|m| colops::prune(&m, params));
    if let (Some((serial, stats)), Some(got)) = (serial, got.c.gather_to_root(grid)) {
        assert_eq!(bits(&got), bits(&serial), "the serial prune");
        let stats = [
            stats.pruned_by_cutoff,
            stats.pruned_by_select,
            stats.recovered,
        ];
        assert_eq!(counts, stats.map(|x| x as f64), "its stats");
    }
    (bits(&got.c.local), got_stats)
}

/// FNV-1a over 64-bit words.
fn fnv(h: u64, words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(h, |h, w| {
        w.to_le_bytes().iter().fold(h, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
    })
}

/// What each launch runs on, and on what devices: GPU kernels on devices
/// that hold every launch and on devices too small for some (those fall
/// back to the host, which emits every column again); and CPU kernels
/// only, inline: the baseline's heap kernel, and hash or heap by `cf`.
/// Each arm of [`merge_arms`] runs two of them, in turn. Every setup folds
/// each sum as the hash kernel does, whatever its kernel label, so which
/// two an arm gets does not show in the digest: every rotation hashes the
/// same bits.
fn launch_setups() -> [(SelectionPolicy, usize); 4] {
    let (gpu, big, small) = (SelectionPolicy::always_gpu(), 1 << 30, 24 << 10);
    [
        (gpu, big),
        (gpu, small),
        (SelectionPolicy::original_heap(), big),
        (SelectionPolicy::cpu_only(), big),
    ]
}

#[test]
fn the_distributed_iteration_streams_its_last_stage_product() {
    let rmat = Csc::from_triples(&generate_rmat(&RmatParams::graph500(7, 16, 3)));
    let mut base = MclConfig::testing(4);
    base.prune.cutoff = 1e-3;
    let cases = [prepare_matrix(&rmat, &base), special_columns()];
    // One digest per grid of every arm's pruned blocks and stats, rank by
    // rank, captured before the last stage product streamed; p = 9 again
    // when the rotation went from six setups to four, and when every GPU
    // label came to fold like the hash kernel (some p = 9 launches had run
    // the bhsparse and rmerge2 analogues, which round some sums otherwise).
    let want = [
        (1, 0xfa63402df03b10fau64),
        (4, 0x14e2bd8722fa97f4),
        (9, 0xcae5d1c1feb28b5b),
    ];
    let mut got = Vec::new();
    for p in grids() {
        let per_rank = Universe::run_dist(p, MachineModel::summit(), |comm| {
            let grid = ProcGrid::new(comm);
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for m in &cases {
                let a = DistMatrix::from_global(&grid, &m.to_triples());
                for (arm, (merge, merge_kernel)) in merge_arms().into_iter().enumerate() {
                    for pipelined in [true, false] {
                        let turn = 2 * arm + usize::from(pipelined);
                        let setups = launch_setups();
                        for (policy, device_mem) in [0, 2].map(|i| setups[(turn + i) % 4]) {
                            let mut cfg = base;
                            let recover_num = if pipelined { 2 + arm % 5 } else { 0 };
                            cfg.prune.recover_num = recover_num;
                            cfg.prune.recover_pct = if recover_num > 0 { 0.9 } else { 0.0 };
                            cfg.summa.phases = PhasePlan::Fixed(2);
                            cfg.summa.merge = merge;
                            cfg.summa.merge_kernel = merge_kernel;
                            cfg.summa.pipelined = pipelined;
                            cfg.summa.policy = policy;
                            let ((colptr, rows, vals), stats) =
                                streamed_is_whole(&grid, &a, &cfg, device_mem);
                            let stats = [
                                stats.pruned_by_cutoff,
                                stats.pruned_by_select,
                                stats.recovered,
                            ];
                            let words = (colptr.into_iter().map(|x| x as u64))
                                .chain(rows.into_iter().map(u64::from))
                                .chain(vals)
                                .chain(stats.map(|x| x as u64));
                            h = fnv(h, words);
                        }
                    }
                }
            }
            h
        });
        got.push((p, fnv(0xcbf2_9ce4_8422_2325, per_rank)));
    }
    let table: String = (got.iter())
        .map(|(p, d)| format!("        ({p}, {d:#018x}),\n"))
        .collect();
    let expected = want.iter().filter(|(p, _)| got.iter().any(|(q, _)| q == p));
    assert!(
        expected.copied().eq(got.iter().copied()),
        "pruned digests moved; computed now:\n{table}"
    );
}
