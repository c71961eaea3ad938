//! No result depends on how many threads a rank computes with: every
//! kernel that runs column-parallel, the generators, and both MCL drivers
//! return the same bits under pools of width 1, 2, 3 and 5 — and so does
//! every modeled clock, which never reads the host. (Odd widths leave
//! ragged last blocks.)

use hipmcl::comm::{GpuLib, MergeKernel};
use hipmcl::prelude::*;
use hipmcl::sparse::colops::{self, PruneParams};
use hipmcl::sparse::{Idx, PlusTimes};
use hipmcl::spgemm::hash::Addressing::{Direct, Hashed};
use hipmcl::spgemm::testutil::random_csc;
use hipmcl::spgemm::{flops_per_column, hash, heap, hybrid, symbolic, CohenEstimator};
use hipmcl::summa::merge::{merge_with, MergeKernelPolicy, StackMerger};
use hipmcl::workloads::er::generate_er;
use hipmcl::workloads::protein::generate_protein_net;
use hipmcl::workloads::rmat::{generate_rmat, RmatParams};
use rayon::ThreadPoolBuilder;
use std::fmt::Debug;

/// Runs `run` under an explicit pool of width 1, then of widths 2, 3 and
/// 5, asserts the results equal and returns the first.
fn same_at_every_width<T: PartialEq + Debug + Send>(run: impl Fn() -> T + Send + Sync) -> T {
    let at = |width| {
        let pool = ThreadPoolBuilder::new().num_threads(width).build().unwrap();
        pool.install(|| {
            assert_eq!(rayon::current_num_threads(), width);
            run()
        })
    };
    let want = at(1);
    for width in [2, 3, 5] {
        assert_eq!(at(width), want, "width {width}");
    }
    want
}

type Bits = (Vec<usize>, Vec<Idx>, Vec<u64>);

fn bits(c: &Csc<f64>) -> Bits {
    c.assert_valid();
    let vals = c.vals.iter().map(|v| v.to_bits()).collect();
    (c.colptr.clone(), c.rowidx.clone(), vals)
}

/// The operand of `tests/kernel_identity.rs`: about `fill`/256 of the
/// entries present, values that make sums round.
fn rounding_operand(n: usize, fill: u64, seed: u64) -> Csc<f64> {
    let mut t = Triples::new(n, n);
    for (i, j) in (0..n).flat_map(|i| (0..n).map(move |j| (i, j))) {
        let mut x = (seed << 40 | (i as u64) << 20 | j as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        if (x >> 56) < fill {
            let x = x ^ (x >> 31);
            t.push(i as Idx, j as Idx, 1.0 / (1 + x % 97) as f64 - 0.3);
        }
    }
    Csc::from_nodup_triples(&t)
}

#[test]
fn local_spgemm_kernels() {
    let s = PlusTimes::<f64>::new();
    // 96 columns is the digest fixture; 333 leaves a ragged last block.
    for n in [96, 333] {
        let a = rounding_operand(n, 40, 7);
        let (counts, products) = same_at_every_width(|| {
            let fpc = flops_per_column(&a, &a);
            let counts = symbolic::output_counts(&a, &a);
            let cpu = [
                hash::multiply_as(Direct, s, &a, &a, &fpc),
                hash::multiply_as(Hashed, s, &a, &a, &fpc),
                heap::multiply_in(s, &a, &a),
                hybrid::multiply_auto_in(s, &a, &a).0,
            ];
            let gpu = GpuLib::all().map(|lib| {
                let mut gpus = MultiGpu::new(MachineModel::summit(), 2, 1 << 30);
                gpus.multiply_in(s, 0.0, &a, &a, lib).unwrap().0
            });
            let products: Vec<Bits> = cpu.iter().chain(&gpu).map(bits).collect();
            (counts, products)
        });
        assert!(products[1..].iter().all(|p| *p == products[0]));
        assert_eq!(
            products[0]
                .0
                .windows(2)
                .map(|w| w[1] - w[0])
                .collect::<Vec<_>>(),
            counts
        );
        if n == 96 {
            // The digest `tests/kernel_identity.rs` pins, at every width.
            let (colptr, rows, vals) = &products[0];
            let words = (colptr.iter().map(|&p| p as u64))
                .chain(rows.iter().map(|&r| r as u64))
                .chain(vals.iter().copied());
            let digest = words.fold(0xCBF2_9CE4_8422_2325u64, |h, w| {
                (h ^ w).wrapping_mul(0x0000_0100_0000_01B3)
            });
            assert_eq!((rows.len(), digest), (8251, 13_248_103_670_861_671_210));
        }
    }
}

/// A multi-GPU launch forms its product once, over all of `B`'s columns:
/// 20 ragged columns over 3 devices (7, 7, 6), the first three and the
/// last two empty. The product, the launch's modeled instants and what
/// each device was charged are the same at every width.
#[test]
fn multi_gpu_launch() {
    let s = PlusTimes::<f64>::new();
    let a = random_csc(16, 16, 90, 26);
    let inner = random_csc(16, 15, 70, 27);
    let b = Csc::hcat(&[Csc::zero(16, 3), inner, Csc::zero(16, 2)]);
    let launches = same_at_every_width(|| {
        GpuLib::all().map(|lib| {
            let mut gpus = MultiGpu::new(MachineModel::summit(), 3, 1 << 30);
            let (c, r) = gpus.multiply_in(s, 0.0, &a, &b, lib).unwrap();
            let clocks = [r.inputs_transferred_at, r.output_ready_at, r.cf].map(f64::to_bits);
            let charged: Vec<usize> = gpus.devices.iter().map(|d| d.peak_mem()).collect();
            (bits(&c), clocks, r.flops, charged)
        })
    });
    for (lib, launch) in GpuLib::all().into_iter().zip(&launches) {
        assert_eq!(
            launch.0,
            bits(&hash::multiply_in(s, &a, &b)),
            "{}",
            lib.name()
        );
    }
}

#[test]
fn merge_kernels_and_the_stack_merger() {
    let s = PlusTimes::<f64>::new();
    let (n, shape) = (203, (203, 203));
    let mats: Vec<Csc<f64>> = (0..20).map(|i| random_csc(n, n, n * 6, 40 + i)).collect();
    same_at_every_width(|| {
        // Every label merges alike (`tests/merge_identity.rs`): one call
        // per fan-in.
        let mut out: Vec<Bits> = [2, 5, 20]
            .map(|ways| bits(&merge_with(s, MergeKernel::Heap, &mats[..ways], shape)))
            .into_iter()
            .collect();
        let mut stack = StackMerger::new(MachineModel::summit(), MergeKernelPolicy::Auto, shape);
        mats[..5].iter().for_each(|m| stack.push(m.clone()));
        out.push(bits(&stack.finish()));
        out
    });
}

#[test]
fn column_operations_and_the_cohen_estimator() {
    let a = random_csc(517, 517, 517 * 40, 11);
    let mut stochastic = a.clone();
    colops::normalize_columns(&mut stochastic);
    let params = PruneParams {
        cutoff: 0.01,
        select: 12,
        recover_num: 20,
        recover_pct: 0.8,
    };
    let (_, stats, ..) = same_at_every_width(|| {
        let mut m = stochastic.clone();
        colops::normalize_columns(&mut m);
        let (pruned, stats) = colops::prune(&m, &params);
        let mut inflated = pruned.clone();
        colops::inflate(&mut inflated, 2.0);
        let estimate = CohenEstimator::new(7, 3).estimate_columns(&a, &a);
        (
            bits(&pruned),
            stats,
            bits(&inflated),
            colops::chaos(&inflated).to_bits(),
            colops::col_sums(&inflated)
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            estimate.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        )
    });
    // Every stage of the prune did something on this operand.
    assert!(stats.pruned_by_cutoff > 0 && stats.pruned_by_select > 0 && stats.recovered > 0);
}

fn protein_net(n: usize, seed: u64) -> Csc<f64> {
    let net = generate_protein_net(&ProteinNetConfig {
        n,
        avg_degree: 14.0,
        min_cluster: 10,
        max_cluster: 30,
        noise_frac: 0.04,
        seed,
        ..Default::default()
    });
    Csc::from_triples(&net.graph)
}

#[test]
fn graph_generators() {
    same_at_every_width(|| {
        (
            generate_rmat(&RmatParams::graph500(9, 8, 5)),
            generate_er(700, 5000, 6),
            protein_net(900, 7),
        )
    });
}

#[test]
fn serial_mcl() {
    let graph = protein_net(400, 3);
    let run = same_at_every_width(|| {
        let r = cluster_serial(&graph, &MclConfig::testing(20));
        let chaos: Vec<u64> = r.trace.iter().map(|t| t.chaos.to_bits()).collect();
        (r.labels, r.iterations, r.converged, chaos)
    });
    assert!(run.2);
}

/// Labels, iteration count and every modeled clock of a 2×2 run, from
/// rank 0. Each rank body installs its own pool of the width under test
/// (the innermost `install` wins over the universe's).
#[test]
fn distributed_mcl_and_its_modeled_clocks() {
    let graph = protein_net(240, 5);
    same_at_every_width(|| {
        let width = rayon::current_num_threads();
        let mut reports = Universe::run(4, MachineModel::summit(), |comm| {
            let pool = ThreadPoolBuilder::new().num_threads(width).build().unwrap();
            let grid = ProcGrid::new(comm);
            let mut gpus = MultiGpu::summit_node(grid.world.model());
            let r = pool.install(|| {
                assert_eq!(rayon::current_num_threads(), width);
                cluster_distributed(&grid, &mut gpus, &graph, &MclConfig::optimized(1 << 20))
            });
            let clock = |t: f64| t.to_bits();
            let stages: Vec<(String, u64)> = (r
                .stage_times
                .into_iter()
                .map(|(stage, t)| (stage, clock(t))))
            .collect();
            let chaos: Vec<u64> = r.trace.iter().map(|t| clock(t.chaos)).collect();
            let idle = (clock(r.cpu_idle), clock(r.gpu_idle));
            (
                r.labels,
                r.iterations,
                clock(r.total_time),
                stages,
                idle,
                chaos,
            )
        });
        assert!(reports[0].2 != 0, "modeled time was charged");
        reports.swap_remove(0)
    });
}

#[test]
fn a_rank_computes_with_its_share_of_the_cores() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    for ranks in [1, 4] {
        let widths = Universe::run(ranks, MachineModel::summit(), |_| {
            rayon::current_num_threads()
        });
        assert_eq!(widths, vec![(cores / ranks).max(1); ranks], "{ranks} ranks");
    }
}

/// A clustered operand: a protein net after one serial MCL iteration, its
/// ids permuted (as the benchmark permutes its workloads') so that the
/// columns of one cluster, which read one pattern of `B`, lie in many of
/// the kernel's column blocks. The hash kernel forms such a group's
/// columns together and hands them between workers at width ≥ 2: every
/// CPU kernel, every device label and the next serial iteration give the
/// bits of width 1.
#[test]
fn grouped_columns_handed_between_workers() {
    let net = protein_net(600, 9);
    let n = net.ncols();
    let p = |v: Idx| (v as usize * 7919 + 13) % n;
    let mut t = Triples::new(n, n);
    for j in 0..n {
        for (&i, &v) in net.col_rows(j).iter().zip(net.col_vals(j)) {
            t.push(p(i) as Idx, p(j as Idx) as Idx, v);
        }
    }
    let cfg = MclConfig::testing(40);
    let mut a = hipmcl::core::serial::prepare_matrix(&Csc::from_triples(&t), &cfg);
    hipmcl::core::serial::mcl_iteration(&mut a, &cfg);
    // Patterns of two rows or more that columns in two of the 64 blocks
    // share.
    let block =
        |j: usize| (0..64).find(|&b| hipmcl::sparse::util::even_chunk(n, 64, b).contains(&j));
    let mut cols: Vec<usize> = (0..n).filter(|&j| a.col_nnz(j) >= 2).collect();
    cols.sort_by_key(|&j| (a.col_rows(j), j));
    let spanning = cols
        .chunk_by(|&x, &y| a.col_rows(x) == a.col_rows(y))
        .filter(|g| g.iter().any(|&j| block(j) != block(g[0])))
        .count();
    assert!(spanning >= 10, "{spanning} groups span blocks");
    let flops: u64 = flops_per_column(&a, &a).iter().sum();
    let floor = hash::GROUP_FLOPS_PER_COLUMN * n as u64;
    assert!(flops >= floor, "{flops} flops: a product the kernel groups");
    let s = PlusTimes::<f64>::new();
    same_at_every_width(|| {
        let fpc = flops_per_column(&a, &a);
        let cpu = [
            hash::multiply_as(Direct, s, &a, &a, &fpc),
            hash::multiply_as(Hashed, s, &a, &a, &fpc),
            heap::multiply_in(s, &a, &a),
            hybrid::multiply_auto_in(s, &a, &a).0,
        ];
        let gpu = GpuLib::all().map(|lib| {
            let mut gpus = MultiGpu::new(MachineModel::summit(), 2, 1 << 30);
            gpus.multiply_in(s, 0.0, &a, &a, lib).unwrap().0
        });
        let mut products: Vec<Bits> = cpu.iter().chain(&gpu).map(bits).collect();
        assert!(products[1..].iter().all(|p| *p == products[0]));
        let mut next = a.clone();
        let (analysis, chaos) = hipmcl::core::serial::mcl_iteration(&mut next, &cfg);
        let next = (bits(&next), analysis.nnz_out, chaos.to_bits());
        (products.swap_remove(0), next)
    });
}
