//! Integration tests for the semiring-generic SUMMA: the same distributed
//! pipeline that powers MCL's plus-times expansion must compute all-pairs
//! shortest paths (min-plus) and transitive closure (boolean) by repeated
//! squaring, matching serial references *exactly* — min-plus and boolean
//! have no roundoff (APSP weights are small integers in `f64`), so the
//! comparisons are `assert_eq!`, not tolerance checks.
//!
//! `HIPMCL_BENCH_SCALE=k` shrinks the instances by `k` (CI uses 4).
//!
//! These tests dispatch through [`Universe::run_dist`], so the transport
//! and time model come from the environment: `HIPMCL_TRANSPORT=process-shm`
//! (with the `process-shm` feature built) runs every rank as an OS
//! process over shared-memory rings, and the assertions below — all
//! exact — then double as cross-transport bit-identity checks.
//! `HIPMCL_MAX_RANKS=k` skips rank counts above `k` (CI's shm matrix arm
//! caps at 4).

use hipmcl::comm::{MachineModel, ProcGrid, Universe};
use hipmcl::gpu::multi::MultiGpu;
use hipmcl::gpu::select::SelectionPolicy;
use hipmcl::sparse::{Boolean, Csc, MinPlus, Semiring, Value};
use hipmcl::summa::spgemm::{summa_spgemm_in, SummaConfig};
use hipmcl::summa::DistMatrix;
use hipmcl::workloads::apsp::{bellman_ford_apsp, generate_apsp_digraph};
use hipmcl::workloads::reach::{bfs_closure, generate_reach_digraph};

fn scale() -> usize {
    std::env::var("HIPMCL_BENCH_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
        .max(1)
}

fn max_ranks() -> usize {
    std::env::var("HIPMCL_MAX_RANKS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(usize::MAX)
        .max(1)
}

/// Distributed repeated squaring under `s`: `⌈lg n⌉` rounds of
/// `D ← D ⊗ D` through the full SUMMA pipeline, gathered to root.
/// Returns the closure plus the last round's modeled comm times
/// (chosen-mode sum, all-broadcast sum) for the comm-policy assertions.
fn distributed_closure<S: Semiring>(
    s: S,
    p: usize,
    cfg: SummaConfig,
    global: hipmcl::sparse::Triples<S::Elem>,
) -> (Csc<S::Elem>, f64, f64)
where
    S::Elem: Value,
{
    let n = global.nrows();
    // 2^k-hop horizon after k squarings: ⌈lg n⌉ rounds reach every path.
    let rounds = n.next_power_of_two().trailing_zeros().max(1);
    let results = Universe::run_dist(p, MachineModel::summit(), move |comm| {
        let grid = ProcGrid::new(comm);
        let mut gpus = MultiGpu::summit_node(grid.world.model());
        let mut d = DistMatrix::from_global_in(s, &grid, &global);
        let mut modeled = (0.0, 0.0);
        for _ in 0..rounds {
            let out = summa_spgemm_in(s, &grid, &mut gpus, &d, &d, &cfg);
            assert!(
                !out.comm_choices.is_empty(),
                "per-stage comm choices must be recorded"
            );
            modeled = (out.modeled_comm_time(), out.modeled_comm_time_broadcast());
            d = out.c;
        }
        (d.gather_to_root_in(s, &grid), modeled)
    });
    let (gathered, modeled) = results.into_iter().next().unwrap();
    (gathered.unwrap(), modeled.0, modeled.1)
}

#[test]
fn min_plus_apsp_matches_bellman_ford_exactly() {
    let n = (96 / scale()).max(24);
    let g = generate_apsp_digraph(n, 4 * n, 31);
    let want = bellman_ford_apsp(&g);
    for p in [1usize, 4].into_iter().filter(|&p| p <= max_ranks()) {
        let cfg = SummaConfig {
            policy: SelectionPolicy::cpu_only(),
            ..SummaConfig::optimized(1 << 30)
        };
        let (got, hybrid, bcast) = distributed_closure(MinPlus, p, cfg, g.clone());
        assert_eq!(got, want, "p={p}: APSP must be bit-identical");
        assert!(hybrid <= bcast, "p={p}: hybrid comm {hybrid} vs {bcast}");
    }
}

#[test]
fn min_plus_apsp_survives_phased_execution() {
    use hipmcl::summa::spgemm::PhasePlan;
    let n = (80 / scale()).max(20);
    let g = generate_apsp_digraph(n, 4 * n, 32);
    let want = bellman_ford_apsp(&g);
    if max_ranks() < 4 {
        return; // the fixed 4-rank grid exceeds HIPMCL_MAX_RANKS
    }
    let cfg = SummaConfig {
        phases: PhasePlan::Fixed(3),
        policy: SelectionPolicy::cpu_only(),
        ..SummaConfig::optimized(1 << 30)
    };
    let (got, _, _) = distributed_closure(MinPlus, 4, cfg, g);
    assert_eq!(got, want, "phased min-plus SUMMA must be bit-identical");
}

#[test]
fn boolean_reachability_matches_bfs_closure_exactly() {
    let n = (120 / scale()).max(24);
    let g = generate_reach_digraph(n, 3 * n, 33);
    let want = bfs_closure(&g);
    for p in [1usize, 9].into_iter().filter(|&p| p <= max_ranks()) {
        let cfg = SummaConfig::optimized(1 << 30);
        let (got, hybrid, bcast) = distributed_closure(Boolean, p, cfg, g.clone());
        assert_eq!(got, want, "p={p}: closure must be bit-identical");
        assert!(hybrid <= bcast, "p={p}: hybrid comm {hybrid} vs {bcast}");
    }
}

#[test]
fn boolean_reachability_on_gpu_kernels_matches_cpu_kernels() {
    if max_ranks() < 4 {
        return; // the fixed 4-rank grid exceeds HIPMCL_MAX_RANKS
    }
    let n = (64 / scale()).max(20);
    let g = generate_reach_digraph(n, 3 * n, 34);
    let want = bfs_closure(&g);
    let gpu_cfg = SummaConfig::optimized(1 << 30);
    let cpu_cfg = SummaConfig {
        policy: SelectionPolicy::cpu_only(),
        ..gpu_cfg
    };
    let (gpu, _, _) = distributed_closure(Boolean, 4, gpu_cfg, g.clone());
    let (cpu, _, _) = distributed_closure(Boolean, 4, cpu_cfg, g);
    assert_eq!(gpu, want);
    assert_eq!(cpu, want);
}
