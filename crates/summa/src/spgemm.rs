//! Distributed `C = A · B`: Sparse SUMMA and Pipelined Sparse SUMMA (§III).
//!
//! The plain algorithm (original HipMCL) is bulk synchronous: in stage `k`
//! of `√P`, `A_{ik}` is broadcast along grid rows and `B_{kj}` along grid
//! columns, each rank multiplies locally on the CPU, and all intermediate
//! products are merged at the end with one multiway merge.
//!
//! The pipelined variant makes the local multiplications asynchronous and
//! exploits two overlaps (Fig. 2):
//!
//! 1. **Broadcast/compute** — the host regains control as soon as stage
//!    `k`'s inputs are handed to the executor, so the stage `k+1`
//!    broadcasts proceed while stage `k` multiplies.
//! 2. **Merge/compute** — the stage `k−1` intermediate product is merged
//!    on the CPU (binary merge, §IV) while stage `k` computes; only the
//!    first broadcast and the final merge cannot be hidden.
//!
//! This module holds the configuration and entry points; the stage loop
//! itself lives in [`crate::pipeline`] and submits every kernel — GPU
//! *and* CPU — to the rank's [`Executor`] (see [`crate::executor`]).
//! Execution is real (the returned distributed product is validated
//! against single-process kernels); the stage timers, CPU idle and device
//! idle times come from the virtual clocks and executor timelines.

use crate::distmat::{DistMatrix, Operand};
use crate::estimate::{estimate_memory, plan_phases, EstimatorKind, MemoryEstimate};
use crate::executor::Executor;
use crate::merge::{
    ColumnSink, MergeKernelPolicy, MergeSpan, MergeStats, MergeStrategy, Packed, Whole,
};
use crate::pipeline::{self, PipelineOutcome};
use hipmcl_comm::clock::StageTimers;
use hipmcl_comm::{CommMode, MergeKernel, ProcGrid, SpgemmKernel};
use hipmcl_gpu::multi::MultiGpu;
use hipmcl_gpu::select::SelectionPolicy;
use hipmcl_sparse::{Csc, PlusTimes, Semiring, Value};

/// How the number of SUMMA phases is chosen.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PhasePlan {
    /// Fixed phase count.
    Fixed(usize),
    /// Run a memory estimator and derive the phase count from a per-rank
    /// byte budget (§V).
    Auto {
        /// Which estimator to run.
        estimator: EstimatorKind,
        /// Unpruned-output bytes each rank may hold at once.
        per_rank_budget: u64,
    },
}

/// How each SUMMA stage's operand panels are communicated (§III-B).
///
/// The classical collective is a binomial-tree broadcast: `⌈lg √P⌉`
/// rounds, each moving the whole panel. For small panels the `⌈lg √P⌉·α`
/// latency term dominates and the root sending `√P − 1` flat
/// point-to-point copies (one `α`, serialized bandwidth) is cheaper; the
/// crossover sits at `b* = α·(⌈lg p⌉ − 1) / (β·(p − 1 − ⌈lg p⌉))` —
/// `α/β` at `p = 4` — wherever [`flat_bcast_time`] undercuts
/// [`tree_bcast_time`].
///
/// [`flat_bcast_time`]: hipmcl_comm::MachineModel::flat_bcast_time
/// [`tree_bcast_time`]: hipmcl_comm::MachineModel::tree_bcast_time
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CommPolicy {
    /// Always the binomial-tree broadcast — original HipMCL's collective.
    /// Bit-exact on the virtual clock with the pre-refactor pipeline.
    Broadcast,
    /// Price tree-broadcast vs flat point-to-point per stage panel and
    /// take the cheaper. An 8-byte panel-size header is tree-broadcast
    /// first so every rank evaluates the model on the same byte count and
    /// agrees on the mode without extra negotiation.
    #[default]
    Hybrid,
}

impl CommPolicy {
    /// Short lowercase name for logs and benchmark tables.
    pub fn name(self) -> &'static str {
        match self {
            CommPolicy::Broadcast => "broadcast",
            CommPolicy::Hybrid => "hybrid",
        }
    }
}

/// The communication record of one stage operand panel: what was moved,
/// which mode the policy chose, and what the model priced both modes at.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CommChoice {
    /// SUMMA phase the stage belongs to.
    pub phase: usize,
    /// Stage index within the phase (`0..√P`).
    pub stage: usize,
    /// `'A'` for the row-panel broadcast, `'B'` for the column panel.
    pub operand: char,
    /// Wire bytes of the panel (DCSC representation).
    pub bytes: usize,
    /// The mode actually used ([`CommMode::Broadcast`] = tree,
    /// [`CommMode::Gather`] = flat point-to-point).
    pub mode: CommMode,
    /// Modeled tree-broadcast time for this panel.
    pub t_tree: f64,
    /// Modeled flat point-to-point time for this panel.
    pub t_flat: f64,
}

impl CommChoice {
    /// Modeled time of the mode that was chosen.
    pub fn chosen_time(&self) -> f64 {
        match self.mode {
            CommMode::Broadcast => self.t_tree,
            CommMode::Gather => self.t_flat,
        }
    }
}

/// Configuration of one distributed multiplication.
#[derive(Clone, Copy, Debug)]
pub struct SummaConfig {
    /// Phase selection.
    pub phases: PhasePlan,
    /// CPU/GPU kernel selection thresholds.
    pub policy: SelectionPolicy,
    /// Merging scheme for the stage intermediates.
    pub merge: MergeStrategy,
    /// How each individual merge operation's kernel label, the rate its
    /// lane task is timed at, is chosen (the model-cost `Auto` rule, or a
    /// fixed label for ablations).
    pub merge_kernel: MergeKernelPolicy,
    /// Overlap local multiplications with broadcasts and merging (§III).
    /// Without it the host waits for every kernel's output (bulk
    /// synchronous, like original HipMCL even when kernels run on GPU).
    pub pipelined: bool,
    /// How stage operand panels are communicated (tree broadcast always,
    /// or the per-stage modeled broadcast/gather choice). Never changes
    /// numeric results, only the virtual comm schedule.
    pub comm: CommPolicy,
    /// Seed for the per-stage Cohen probes driving kernel selection.
    pub seed: u64,
}

impl SummaConfig {
    /// Original HipMCL: CPU heap kernels, multiway merge, exact symbolic
    /// estimation, no pipelining.
    pub fn original_hipmcl(per_rank_budget: u64) -> Self {
        Self {
            phases: PhasePlan::Auto {
                estimator: EstimatorKind::ExactSymbolic,
                per_rank_budget,
            },
            policy: SelectionPolicy::original_heap(),
            merge: MergeStrategy::Multiway,
            merge_kernel: MergeKernelPolicy::Fixed(MergeKernel::Heap),
            pipelined: false,
            comm: CommPolicy::Broadcast,
            seed: 0,
        }
    }

    /// The paper's optimized HipMCL *without* overlap (Fig. 1 middle bar):
    /// GPU kernels and the probabilistic estimator, but bulk synchronous
    /// with multiway merging.
    pub fn optimized_no_overlap(per_rank_budget: u64) -> Self {
        Self {
            phases: PhasePlan::Auto {
                estimator: EstimatorKind::Hybrid {
                    r: 5,
                    cf_threshold: 2.0,
                },
                per_rank_budget,
            },
            policy: SelectionPolicy::always_gpu(),
            merge: MergeStrategy::Multiway,
            merge_kernel: MergeKernelPolicy::Fixed(MergeKernel::Heap),
            pipelined: false,
            comm: CommPolicy::Hybrid,
            seed: 0,
        }
    }

    /// The fully optimized HipMCL (Fig. 1 right bar): Pipelined Sparse
    /// SUMMA with binary merge.
    pub fn optimized(per_rank_budget: u64) -> Self {
        Self {
            phases: PhasePlan::Auto {
                estimator: EstimatorKind::Hybrid {
                    r: 5,
                    cf_threshold: 2.0,
                },
                per_rank_budget,
            },
            policy: SelectionPolicy::always_gpu(),
            merge: MergeStrategy::Binary,
            merge_kernel: MergeKernelPolicy::Auto,
            pipelined: true,
            comm: CommPolicy::Hybrid,
            seed: 0,
        }
    }
}

/// Result of a distributed multiplication on one rank.
///
/// Generic over the element type; `SummaOutput` with no parameter is the
/// plus-times `f64` output the MCL driver consumes.
pub struct SummaOutput<T: Value = f64> {
    /// This rank's block of `C` (post any per-phase hook).
    pub c: DistMatrix<T>,
    /// Virtual-time stage breakdown (`local_spgemm`, `summa_bcast`,
    /// `merge`, `mem_estimation`, `other`).
    pub timers: StageTimers,
    /// Merge statistics (peak elements feed Table III).
    pub merge_stats: MergeStats,
    /// Every merge operation's timeline span — start/end on its merge
    /// lane, kernel label, fan-in, elements — in submission order. The
    /// merge-side counterpart of [`kernels_used`](Self::kernels_used).
    pub merge_spans: Vec<MergeSpan>,
    /// Host idle time spent waiting on launch events (Table V, CPU).
    pub cpu_idle: f64,
    /// Device idle time off the executor's device streams (Table V, GPU
    /// column; zero on a node without accelerators).
    pub gpu_idle: f64,
    /// Idle accumulated on the executor's merge lanes, disjoint from
    /// [`gpu_idle`](Self::gpu_idle).
    pub merge_lane_idle: f64,
    /// The memory estimate, when `PhasePlan::Auto` ran.
    pub estimate: Option<MemoryEstimate>,
    /// Number of phases executed.
    pub phases: usize,
    /// Kernels chosen per (phase, stage), for instrumentation; always
    /// `phases × √P` entries (zero-flops stages record the selector's
    /// degenerate choice).
    pub kernels_used: Vec<SpgemmKernel>,
    /// Per-stage communication record: two entries per executed stage
    /// (operand `A` then `B`), with the panel bytes, chosen mode and the
    /// model's price for both modes. Under [`CommPolicy::Broadcast`]
    /// every entry's mode is `Broadcast`.
    pub comm_choices: Vec<CommChoice>,
    /// Wall-clock counterpart of [`timers`](Self::timers): real host
    /// seconds per stage, sampled only under `TimeModel::Measured`
    /// (all durations are `0.0` under `Modeled`, which never reads the
    /// host clock).
    pub timers_measured: StageTimers,
}

impl<T: Value> SummaOutput<T> {
    /// Modeled communication time of the stage panels as actually moved —
    /// the sum of each [`CommChoice`]'s chosen-mode price.
    pub fn modeled_comm_time(&self) -> f64 {
        self.comm_choices.iter().map(|c| c.chosen_time()).sum()
    }

    /// Modeled communication time had every panel used the tree
    /// broadcast — the [`CommPolicy::Broadcast`] baseline over the same
    /// panels. `modeled_comm_time() <= modeled_comm_time_broadcast()`
    /// whenever the per-panel choice is the model's argmin.
    pub fn modeled_comm_time_broadcast(&self) -> f64 {
        self.comm_choices.iter().map(|c| c.t_tree).sum()
    }
}

/// Distributed `C = A·B` with the identity per-phase hook.
pub fn summa_spgemm(
    grid: &ProcGrid,
    gpus: &mut MultiGpu,
    a: &DistMatrix,
    b: &DistMatrix,
    cfg: &SummaConfig,
) -> SummaOutput {
    summa_spgemm_with(grid, gpus, a, b, cfg, |_, c| c)
}

/// Distributed `C = A ⊕.⊗ B` over an arbitrary semiring, identity hook.
///
/// The semiring-generic twin of [`summa_spgemm`]: the same Pipelined
/// Sparse SUMMA machinery (phase planning, executor scheduling, merge
/// engine, per-stage comm selection) instantiated at `S` — min-plus for
/// shortest paths, boolean for reachability, plus-times for MCL.
pub fn summa_spgemm_in<S: Semiring>(
    s: S,
    grid: &ProcGrid,
    gpus: &mut MultiGpu,
    a: &DistMatrix<S::Elem>,
    b: &DistMatrix<S::Elem>,
    cfg: &SummaConfig,
) -> SummaOutput<S::Elem> {
    summa_spgemm_with_in(s, grid, gpus, a, b, cfg, &Whole, |_, c| c.cols)
}

/// Distributed `C = A·B` with a per-phase output hook.
///
/// `on_slab(phase, slab)` receives each phase's merged output slab whole
/// and returns what should be kept — the identity-sink case of
/// [`summa_spgemm_with_in`], whose sink `core::dist` uses to prune
/// without ever holding the slab (the fused expansion+pruning of §II). The
/// hook's virtual cost must be charged by the caller.
pub fn summa_spgemm_with<F>(
    grid: &ProcGrid,
    gpus: &mut MultiGpu,
    a: &DistMatrix,
    b: &DistMatrix,
    cfg: &SummaConfig,
    mut on_slab: F,
) -> SummaOutput
where
    F: FnMut(usize, Csc<f64>) -> Csc<f64>,
{
    let s = PlusTimes::<f64>::new();
    summa_spgemm_with_in(s, grid, gpus, a, b, cfg, &Whole, |ph, c| {
        on_slab(ph, c.cols)
    })
}

/// Distributed `C = A ⊕.⊗ B` over an arbitrary semiring — the generic
/// engine behind every other entry point. Each phase's closing merge
/// passes every column it finishes through `sink`, and
/// `on_slab(phase, packed)` receives what the sink packed and returns what
/// the phase keeps. Under [`Whole`] that is the merged slab itself; under
/// `core::dist`'s prune sink it is each column's top-`select` candidates
/// and tally, so the unpruned slab never exists (§II). The hook's virtual
/// cost must be charged by the caller (`core::dist` charges the pruning
/// stage). An operand shared as an `Arc` is broadcast without a copy of its
/// block ([`Operand`]); the MCL driver hands its iterate over so.
#[allow(clippy::too_many_arguments)]
pub fn summa_spgemm_with_in<S, O, K, F>(
    s: S,
    grid: &ProcGrid,
    gpus: &mut MultiGpu,
    a: &O,
    b: &O,
    cfg: &SummaConfig,
    sink: &K,
    on_slab: F,
) -> SummaOutput<S::Elem>
where
    S: Semiring,
    O: Operand<Elem = S::Elem>,
    K: ColumnSink<S::Elem>,
    F: FnMut(usize, Packed<S::Elem, K::Tally>) -> Csc<S::Elem>,
{
    assert_eq!(
        a.matrix().ncols_global,
        b.matrix().nrows_global,
        "global inner dims must agree"
    );
    let comm = &grid.world;
    let mut timers = StageTimers::new();
    let mut est_measured = 0.0f64;

    // Phase planning (§V): estimate the unpruned output, then take the
    // fewest phases whose slab fits each rank's budget.
    let (phases, estimate) = match cfg.phases {
        PhasePlan::Fixed(h) => (h.max(1), None),
        PhasePlan::Auto {
            estimator,
            per_rank_budget,
        } => {
            let t0 = comm.now();
            let w0 = comm.measured_now();
            let est = estimate_memory(grid, a, b, estimator, cfg.seed);
            timers.add("mem_estimation", comm.now() - t0);
            est_measured = comm.measured_now() - w0;
            (plan_phases(&est, grid.size(), per_rank_budget), Some(est))
        }
    };

    // Kernel selection needs a cf estimate per local multiply. Under
    // `Auto`, reuse the memory estimate's global cf (the paper's recipe:
    // the selection metrics come from the iteration's memory
    // estimation); only Fixed-phase runs pay for a per-stage Cohen probe.
    let cf_hint: Option<f64> = estimate.as_ref().map(|e| {
        if e.nnz_estimate > 0.0 {
            e.flops as f64 / e.nnz_estimate
        } else {
            1.0
        }
    });

    // A fresh executor starts with every timeline empty — the gap between
    // the previous expansion's last kernel and this one's first is not
    // pipeline idle (Table V measures idleness *within* the Pipelined
    // Sparse SUMMA) — so what its timelines hold afterwards is this run's.
    let mut exec = Executor::new(gpus, comm.model());
    let outcome = pipeline::run(
        s,
        grid,
        &mut exec,
        a,
        b,
        cfg,
        phases,
        cf_hint,
        &mut timers,
        sink,
        on_slab,
    );
    let gpu_idle = exec.device_idle();
    let merge_lane_idle = exec.merge_lane_idle();

    let PipelineOutcome {
        mut slabs,
        merge_stats,
        merge_spans,
        cpu_idle,
        kernels_used,
        comm_choices,
        mut timers_measured,
    } = outcome;
    timers_measured.add("mem_estimation", est_measured);
    let local = if slabs.len() == 1 {
        slabs.pop().unwrap()
    } else {
        Csc::hcat(&slabs)
    };

    SummaOutput {
        c: DistMatrix {
            local,
            nrows_global: a.matrix().nrows_global,
            ncols_global: b.matrix().ncols_global,
        },
        timers,
        merge_stats,
        merge_spans,
        cpu_idle,
        gpu_idle,
        merge_lane_idle,
        estimate,
        phases,
        kernels_used,
        comm_choices,
        timers_measured,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipmcl_comm::{MachineModel, Universe};
    use hipmcl_sparse::{Idx, Triples};
    use rand::{Rng, SeedableRng};

    fn random_global(n: usize, nnz: usize, seed: u64) -> Triples<f64> {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let mut t = Triples::new(n, n);
        for _ in 0..nnz {
            t.push(
                rng.gen_range(0..n) as Idx,
                rng.gen_range(0..n) as Idx,
                rng.gen_range(0.5..1.5),
            );
        }
        t.sum_duplicates();
        t
    }

    fn serial_product(n: usize, nnz: usize, seed: u64) -> Csc<f64> {
        let g = Csc::from_triples(&random_global(n, nnz, seed));
        hipmcl_spgemm::hash::multiply(&g, &g)
    }

    fn run_config(n: usize, nnz: usize, seed: u64, p: usize, cfg: SummaConfig) -> Csc<f64> {
        let results = Universe::run(p, MachineModel::summit(), move |comm| {
            let grid = ProcGrid::new(comm);
            let g = random_global(n, nnz, seed);
            let a = DistMatrix::from_global(&grid, &g);
            let mut gpus = MultiGpu::summit_node(grid.world.model());
            let out = summa_spgemm(&grid, &mut gpus, &a, &a, &cfg);
            out.c.gather_to_root(&grid)
        });
        results.into_iter().next().unwrap().unwrap()
    }

    fn base_cfg() -> SummaConfig {
        SummaConfig {
            phases: PhasePlan::Fixed(1),
            policy: SelectionPolicy::cpu_only(),
            merge: MergeStrategy::Multiway,
            merge_kernel: MergeKernelPolicy::Auto,
            pipelined: false,
            comm: CommPolicy::Hybrid,
            seed: 7,
        }
    }

    #[test]
    fn plain_summa_matches_serial_product() {
        let want = serial_product(22, 140, 1);
        for p in [1usize, 4, 9] {
            let got = run_config(22, 140, 1, p, base_cfg());
            assert!(got.max_abs_diff(&want) < 1e-9, "p={p}");
            assert_eq!(got.nnz(), want.nnz(), "p={p}");
        }
    }

    #[test]
    fn phased_execution_matches() {
        let want = serial_product(25, 170, 2);
        for phases in [1usize, 2, 3, 5] {
            let cfg = SummaConfig {
                phases: PhasePlan::Fixed(phases),
                ..base_cfg()
            };
            let got = run_config(25, 170, 2, 4, cfg);
            assert!(got.max_abs_diff(&want) < 1e-9, "phases={phases}");
        }
    }

    #[test]
    fn binary_merge_matches_multiway() {
        let want = serial_product(24, 160, 3);
        let cfg = SummaConfig {
            merge: MergeStrategy::Binary,
            ..base_cfg()
        };
        let got = run_config(24, 160, 3, 9, cfg);
        assert!(got.max_abs_diff(&want) < 1e-9);
    }

    #[test]
    fn gpu_pipelined_matches() {
        let want = serial_product(26, 200, 4);
        let cfg = SummaConfig {
            policy: SelectionPolicy::always_gpu(),
            merge: MergeStrategy::Binary,
            pipelined: true,
            ..base_cfg()
        };
        let got = run_config(26, 200, 4, 4, cfg);
        assert!(got.max_abs_diff(&want) < 1e-9);
    }

    #[test]
    fn pipelined_timeline_covers_device_quiescence_and_kernel_time() {
        // On every rank of a 2×2 grid under the pipelined GPU config,
        // measured from the SUMMA section's start: the host leaves no
        // earlier than its devices go quiet (it waits on every launch's
        // output), and the devices go quiet no earlier than the kernel
        // time charged to `local_spgemm` (launches queue on the streams).
        let cfg = SummaConfig {
            policy: SelectionPolicy::always_gpu(),
            merge: MergeStrategy::Binary,
            pipelined: true,
            ..base_cfg()
        };
        let timelines = Universe::run(4, MachineModel::summit_bench(), move |comm| {
            let grid = ProcGrid::new(comm);
            let a = DistMatrix::from_global(&grid, &random_global(400, 40_000, 1));
            let mut gpus = MultiGpu::summit_node(grid.world.model());
            let t0 = grid.world.now();
            let out = summa_spgemm(&grid, &mut gpus, &a, &a, &cfg);
            let host = grid.world.now() - t0;
            let quiescent_at = gpus.devices.iter().map(|d| d.quiescent_at());
            let quiescent = quiescent_at.fold(t0, f64::max) - t0;
            (host, quiescent, out.timers.get("local_spgemm"))
        });
        for (rank, (host, quiescent, kernels)) in timelines.into_iter().enumerate() {
            assert!(kernels > 0.0, "rank {rank}: no kernel ran");
            assert!(
                host >= quiescent && quiescent >= kernels,
                "rank {rank}: host wall {host} >= device quiescence {quiescent} \
                 >= kernel time {kernels} must hold"
            );
        }
    }

    #[test]
    fn gpu_unpipelined_matches() {
        let want = serial_product(26, 200, 5);
        let cfg = SummaConfig {
            policy: SelectionPolicy::always_gpu(),
            ..base_cfg()
        };
        let got = run_config(26, 200, 5, 9, cfg);
        assert!(got.max_abs_diff(&want) < 1e-9);
    }

    #[test]
    fn cpu_kernels_with_binary_merge_match() {
        let want = serial_product(27, 210, 10);
        for pipelined in [false, true] {
            let cfg = SummaConfig {
                merge: MergeStrategy::Binary,
                pipelined,
                ..base_cfg()
            };
            let got = run_config(27, 210, 10, 4, cfg);
            assert!(got.max_abs_diff(&want) < 1e-9, "pipelined={pipelined}");
        }
    }

    #[test]
    fn auto_phases_run_estimator() {
        let results = Universe::run(4, MachineModel::summit(), |comm| {
            let grid = ProcGrid::new(comm);
            let g = random_global(30, 400, 6);
            let a = DistMatrix::from_global(&grid, &g);
            let mut gpus = MultiGpu::summit_node(grid.world.model());
            let cfg = SummaConfig {
                phases: PhasePlan::Auto {
                    estimator: EstimatorKind::Probabilistic { r: 5 },
                    per_rank_budget: 500, // small budget forces phases
                },
                policy: SelectionPolicy::cpu_only(),
                merge: MergeStrategy::Multiway,
                seed: 1,
                ..base_cfg()
            };
            let out = summa_spgemm(&grid, &mut gpus, &a, &a, &cfg);
            (
                out.phases,
                out.estimate.is_some(),
                out.timers.get("mem_estimation") > 0.0,
            )
        });
        for (phases, has_est, timed) in results {
            assert!(phases > 1, "small budget must force multiple phases");
            assert!(has_est);
            assert!(timed);
        }
    }

    #[test]
    fn on_slab_hook_sees_every_phase() {
        let results = Universe::run(4, MachineModel::summit(), |comm| {
            let grid = ProcGrid::new(comm);
            let g = random_global(20, 150, 7);
            let a = DistMatrix::from_global(&grid, &g);
            let mut gpus = MultiGpu::summit_node(grid.world.model());
            let cfg = SummaConfig {
                phases: PhasePlan::Fixed(3),
                ..base_cfg()
            };
            let mut seen = Vec::new();
            let out = summa_spgemm_with(&grid, &mut gpus, &a, &a, &cfg, |ph, slab| {
                seen.push(ph);
                slab
            });
            (seen, out.phases)
        });
        for (seen, phases) in results {
            assert_eq!(phases, 3);
            assert_eq!(seen, vec![0, 1, 2]);
        }
    }

    /// Max over ranks of the final virtual clock for one configuration.
    fn elapsed(n: usize, nnz: usize, seed: u64, cfg: SummaConfig) -> f64 {
        let results = Universe::run(4, MachineModel::summit(), move |comm| {
            let grid = ProcGrid::new(comm);
            let g = random_global(n, nnz, seed);
            let a = DistMatrix::from_global(&grid, &g);
            let mut gpus = MultiGpu::summit_node(grid.world.model());
            let _ = summa_spgemm(&grid, &mut gpus, &a, &a, &cfg);
            grid.world.now()
        });
        results.into_iter().fold(0.0f64, f64::max)
    }

    #[test]
    fn pipelined_overlap_beats_bulk_synchronous() {
        // Dense enough that kernels dominate; overall time with overlap
        // must be below the no-overlap run (Table II's effect).
        let run = |pipelined: bool| {
            let cfg = SummaConfig {
                phases: PhasePlan::Fixed(2),
                policy: SelectionPolicy::always_gpu(),
                merge: MergeStrategy::Binary,
                pipelined,
                seed: 2,
                ..base_cfg()
            };
            elapsed(120, 7000, 8, cfg)
        };
        let with = run(true);
        let without = run(false);
        assert!(
            with < without,
            "pipelined {with} must beat bulk-sync {without}"
        );
    }

    #[test]
    fn kernels_used_counts_every_stage() {
        // Sparse enough that some stage blocks are empty (zero flops):
        // the fast path must still record an entry, keeping the count at
        // phases × √P on every rank.
        for (nnz, phases) in [(30usize, 2usize), (200, 3)] {
            let results = Universe::run(9, MachineModel::summit(), move |comm| {
                let grid = ProcGrid::new(comm);
                let g = random_global(21, nnz, 12);
                let a = DistMatrix::from_global(&grid, &g);
                let mut gpus = MultiGpu::summit_node(grid.world.model());
                let cfg = SummaConfig {
                    phases: PhasePlan::Fixed(phases),
                    ..base_cfg()
                };
                let out = summa_spgemm(&grid, &mut gpus, &a, &a, &cfg);
                (out.kernels_used.len(), out.phases, grid.side)
            });
            for (kernels, ph, side) in results {
                assert_eq!(kernels, ph * side, "nnz={nnz} phases={ph}");
            }
        }
    }

    #[test]
    fn idle_times_are_nonnegative_across_configs() {
        // Property-style sweep over kernel sides, overlap modes and seeds:
        // Table V's idle quantities must never go negative.
        for policy in [SelectionPolicy::always_gpu(), SelectionPolicy::cpu_only()] {
            for pipelined in [false, true] {
                for seed in [1u64, 9, 23] {
                    let results = Universe::run(4, MachineModel::summit(), move |comm| {
                        let grid = ProcGrid::new(comm);
                        let g = random_global(30, 350, seed);
                        let a = DistMatrix::from_global(&grid, &g);
                        let mut gpus = MultiGpu::summit_node(grid.world.model());
                        let cfg = SummaConfig {
                            policy,
                            merge: MergeStrategy::Binary,
                            pipelined,
                            ..base_cfg()
                        };
                        let out = summa_spgemm(&grid, &mut gpus, &a, &a, &cfg);
                        (out.cpu_idle, out.gpu_idle)
                    });
                    let case = format!("{policy:?} pipelined={pipelined} seed={seed}");
                    for (cpu, gpu) in results {
                        assert!(cpu >= 0.0, "{case}");
                        assert!(gpu >= 0.0, "{case}");
                    }
                }
            }
        }
    }

    #[test]
    fn merge_kernel_policy_never_changes_the_product() {
        let want = serial_product(26, 220, 15);
        let policies = [
            MergeKernelPolicy::Auto,
            MergeKernelPolicy::Fixed(MergeKernel::Heap),
            MergeKernelPolicy::Fixed(MergeKernel::Pairwise),
            MergeKernelPolicy::Fixed(MergeKernel::Hash),
        ];
        for merge_kernel in policies {
            for merge in [MergeStrategy::Multiway, MergeStrategy::Binary] {
                let cfg = SummaConfig {
                    merge,
                    merge_kernel,
                    pipelined: true,
                    ..base_cfg()
                };
                let got = run_config(26, 220, 15, 9, cfg);
                assert!(got.max_abs_diff(&want) < 1e-9, "{merge_kernel:?} {merge:?}");
                assert_eq!(got.nnz(), want.nnz(), "{merge_kernel:?} {merge:?}");
            }
        }
    }

    /// A global matrix whose mass is concentrated in a few dense columns:
    /// the per-stage slabs (and hence the Algorithm 2 merge stack) are
    /// heavily skewed, so one merge lane backlogs while the other starves.
    fn skewed_global(n: usize, seed: u64) -> Triples<f64> {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let mut t = Triples::new(n, n);
        for j in 0..n {
            // Columns 0..4 are nearly dense; the rest carry two entries.
            let entries = if j < 4 { n - 2 } else { 2 };
            for _ in 0..entries {
                t.push(
                    rng.gen_range(0..n) as Idx,
                    j as Idx,
                    rng.gen_range(0.5..1.5),
                );
            }
        }
        t.sum_duplicates();
        t
    }

    #[test]
    fn merges_placed_on_both_lanes_build_the_product() {
        // 3×3 grid, two modeled sockets, four phases drained one phase
        // late: a phase's closing merge is still on its lane when the
        // next phase's first merge is placed, so that one lands on the
        // other lane.
        let want = serial_product(36, 700, 21);
        let results = Universe::run(9, MachineModel::summit(), |comm| {
            let grid = ProcGrid::new(comm);
            let a = DistMatrix::from_global(&grid, &random_global(36, 700, 21));
            let mut gpus = MultiGpu::summit_node(grid.world.model());
            let cfg = SummaConfig {
                phases: PhasePlan::Fixed(4),
                policy: SelectionPolicy::always_gpu(),
                merge: MergeStrategy::Binary,
                pipelined: true,
                ..base_cfg()
            };
            let out = summa_spgemm(&grid, &mut gpus, &a, &a, &cfg);
            let lanes: Vec<usize> = out.merge_spans.iter().map(|s| s.lane).collect();
            (out.c.gather_to_root(&grid), lanes)
        });
        for (_, lanes) in &results {
            assert_eq!(lanes.len(), 8, "two merges a phase at fan-in 3");
            assert!(lanes.contains(&0) && lanes.contains(&1), "{lanes:?}");
        }
        let got = results.into_iter().next().unwrap().0.unwrap();
        assert!(got.max_abs_diff(&want) < 1e-9);
        assert_eq!(got.nnz(), want.nnz());
    }

    #[test]
    fn merge_spans_reconcile_with_lane_timelines() {
        // The acceptance property: no merge charges time outside the
        // unified timelines, on both a balanced and a lane-starved skewed
        // workload. Per rank, the spans' durations must sum to the
        // recorded merge time, the span count must equal merge_ops, the
        // peak must be the largest span, and the gaps on each lane
        // reconstructed from the spans must equal the executor's reported
        // merge-lane idle (Timeline semantics: a leading gap — and a lane
        // with zero tasks — counts as zero, so starved lanes add no
        // phantom idle and moved merges none double).
        for skewed in [false, true] {
            let results = Universe::run(4, MachineModel::summit(), move |comm| {
                let grid = ProcGrid::new(comm);
                let g = if skewed {
                    skewed_global(40, 16)
                } else {
                    random_global(40, 600, 16)
                };
                let a = DistMatrix::from_global(&grid, &g);
                let mut gpus = MultiGpu::summit_node(grid.world.model());
                let cfg = SummaConfig {
                    phases: PhasePlan::Fixed(2),
                    policy: SelectionPolicy::always_gpu(),
                    merge: MergeStrategy::Binary,
                    pipelined: true,
                    ..base_cfg()
                };
                let out = summa_spgemm(&grid, &mut gpus, &a, &a, &cfg);
                (
                    out.merge_spans,
                    out.merge_stats,
                    out.merge_lane_idle,
                    grid.world.model().sockets,
                )
            });
            for (spans, stats, lane_idle, sockets) in results {
                assert!(!spans.is_empty());
                assert_eq!(spans.len(), stats.merge_ops);
                let dur_sum: f64 = spans.iter().map(|s| s.duration()).sum();
                assert!(
                    (dur_sum - stats.merge_time).abs() < 1e-9,
                    "span durations {dur_sum} vs merge_time {}",
                    stats.merge_time
                );
                let peak = spans.iter().map(|s| s.elems).max().unwrap();
                assert_eq!(peak as usize, stats.peak_merge_elems);
                for s in &spans {
                    assert_eq!(
                        s.stolen,
                        s.lane != s.origin,
                        "stolen flag must match lane vs origin"
                    );
                }
                // Rebuild each lane's idle from its spans alone.
                let mut rebuilt = 0.0;
                for lane in 0..sockets {
                    let mut on_lane: Vec<_> = spans.iter().filter(|s| s.lane == lane).collect();
                    on_lane.sort_by(|x, y| x.start.partial_cmp(&y.start).unwrap());
                    for pair in on_lane.windows(2) {
                        rebuilt += (pair[1].start - pair[0].end).max(0.0);
                    }
                }
                assert!(
                    (rebuilt - lane_idle).abs() < 1e-9,
                    "skewed={skewed}: lane gaps {rebuilt} vs reported idle {lane_idle}"
                );
            }
        }
    }

    #[test]
    fn auto_phase_count_is_the_memory_floor() {
        const BUDGET: u64 = 500;
        let results = Universe::run(4, MachineModel::summit(), |comm| {
            let grid = ProcGrid::new(comm);
            let g = random_global(30, 400, 6);
            let a = DistMatrix::from_global(&grid, &g);
            let mut gpus = MultiGpu::summit_node(grid.world.model());
            let cfg = SummaConfig {
                phases: PhasePlan::Auto {
                    estimator: EstimatorKind::Probabilistic { r: 5 },
                    per_rank_budget: BUDGET,
                },
                merge: MergeStrategy::Binary,
                pipelined: true,
                seed: 1,
                ..base_cfg()
            };
            let out = summa_spgemm(&grid, &mut gpus, &a, &a, &cfg);
            (out.phases, out.estimate.unwrap())
        });
        for (phases, est) in results {
            assert!(phases >= 2, "budget must force a multi-phase run");
            assert_eq!(phases, plan_phases(&est, 4, BUDGET));
        }
    }

    #[test]
    fn comm_policy_never_changes_the_product() {
        let want = serial_product(26, 220, 19);
        for comm in [CommPolicy::Broadcast, CommPolicy::Hybrid] {
            for p in [4usize, 9] {
                let cfg = SummaConfig {
                    merge: MergeStrategy::Binary,
                    pipelined: true,
                    comm,
                    ..base_cfg()
                };
                let got = run_config(26, 220, 19, p, cfg);
                assert!(got.max_abs_diff(&want) < 1e-9, "{comm:?} p={p}");
                assert_eq!(got.nnz(), want.nnz(), "{comm:?} p={p}");
            }
        }
    }

    #[test]
    fn comm_choices_record_every_stage_panel() {
        for comm in [CommPolicy::Broadcast, CommPolicy::Hybrid] {
            let results = Universe::run(4, MachineModel::summit(), move |comm_| {
                let grid = ProcGrid::new(comm_);
                let g = random_global(28, 300, 20);
                let a = DistMatrix::from_global(&grid, &g);
                let mut gpus = MultiGpu::summit_node(grid.world.model());
                let cfg = SummaConfig {
                    phases: PhasePlan::Fixed(2),
                    comm,
                    ..base_cfg()
                };
                let out = summa_spgemm(&grid, &mut gpus, &a, &a, &cfg);
                (out.comm_choices, out.phases, grid.side)
            });
            for (choices, phases, side) in results {
                // Two operand panels per executed stage.
                assert_eq!(choices.len(), 2 * phases * side, "{comm:?}");
                for c in &choices {
                    assert!(c.phase < phases && c.stage < side);
                    assert!(c.operand == 'A' || c.operand == 'B');
                    assert!(c.t_tree > 0.0 && c.t_flat > 0.0);
                    if comm == CommPolicy::Broadcast {
                        assert_eq!(c.mode, CommMode::Broadcast, "{c:?}");
                    } else {
                        // Hybrid takes the model's argmin for each panel.
                        let want = if c.t_flat <= c.t_tree {
                            CommMode::Gather
                        } else {
                            CommMode::Broadcast
                        };
                        assert_eq!(c.mode, want, "{c:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn hybrid_modeled_comm_never_exceeds_broadcast() {
        // The per-panel argmin makes the chosen-mode sum a lower bound on
        // the all-broadcast sum over the same panels. On a 4×4 grid the
        // row/col communicators have 4 ranks, where the flat/tree
        // crossover sits at b* = α/β ≈ 69 kB on Summit; this workload's
        // panels are far below it, so Hybrid picks flat sends and
        // strictly wins. (On a 2×2 grid both modes cost the same — one
        // round, one copy — so 16 ranks are needed to see a difference.)
        let results = Universe::run(16, MachineModel::summit(), |comm| {
            let grid = ProcGrid::new(comm);
            let g = random_global(40, 400, 21);
            let a = DistMatrix::from_global(&grid, &g);
            let mut gpus = MultiGpu::summit_node(grid.world.model());
            let cfg = SummaConfig {
                phases: PhasePlan::Fixed(2),
                ..base_cfg()
            };
            let out = summa_spgemm(&grid, &mut gpus, &a, &a, &cfg);
            (
                out.modeled_comm_time(),
                out.modeled_comm_time_broadcast(),
                out.comm_choices.iter().any(|c| c.mode == CommMode::Gather),
            )
        });
        for (hybrid, bcast, any_gather) in results {
            assert!(hybrid <= bcast, "hybrid {hybrid} vs broadcast {bcast}");
            assert!(any_gather, "small panels must cross to flat sends");
            assert!(hybrid < bcast, "sub-crossover panels must strictly win");
        }
    }

    #[test]
    fn min_plus_summa_matches_serial_reference() {
        use hipmcl_sparse::MinPlus;
        let g = random_global(22, 160, 22);
        let gc = Csc::from_triples_in(MinPlus, &g);
        let want = hipmcl_spgemm::hash::multiply_in(MinPlus, &gc, &gc);
        let results = Universe::run(4, MachineModel::summit(), |comm| {
            let grid = ProcGrid::new(comm);
            let g = random_global(22, 160, 22);
            let a = DistMatrix::from_global_in(MinPlus, &grid, &g);
            let mut gpus = MultiGpu::summit_node(grid.world.model());
            let cfg = SummaConfig {
                merge: MergeStrategy::Binary,
                pipelined: true,
                ..base_cfg()
            };
            let out = summa_spgemm_in(MinPlus, &grid, &mut gpus, &a, &a, &cfg);
            out.c.gather_to_root_in(MinPlus, &grid)
        });
        let got = results.into_iter().next().unwrap().unwrap();
        assert_eq!(got, want, "min-plus SUMMA must be bit-identical");
    }

    fn random_bool_global(n: usize, nnz: usize, seed: u64) -> Triples<bool> {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let mut t = Triples::new(n, n);
        for _ in 0..nnz {
            t.push(rng.gen_range(0..n) as Idx, rng.gen_range(0..n) as Idx, true);
        }
        t.sum_duplicates_in(hipmcl_sparse::Boolean);
        t
    }

    #[test]
    fn boolean_summa_matches_serial_reference() {
        use hipmcl_sparse::Boolean;
        let g = random_bool_global(24, 180, 23);
        let gc = Csc::from_triples_in(Boolean, &g);
        let want = hipmcl_spgemm::hash::multiply_in(Boolean, &gc, &gc);
        let results = Universe::run(9, MachineModel::summit(), |comm| {
            let grid = ProcGrid::new(comm);
            let g = random_bool_global(24, 180, 23);
            let a = DistMatrix::from_global_in(Boolean, &grid, &g);
            let mut gpus = MultiGpu::summit_node(grid.world.model());
            let out = summa_spgemm_in(Boolean, &grid, &mut gpus, &a, &a, &base_cfg());
            out.c.gather_to_root_in(Boolean, &grid)
        });
        let got = results.into_iter().next().unwrap().unwrap();
        assert_eq!(got, want, "boolean SUMMA must be bit-identical");
    }

    #[test]
    fn timers_cover_expected_stages() {
        let results = Universe::run(4, MachineModel::summit(), |comm| {
            let grid = ProcGrid::new(comm);
            let g = random_global(30, 300, 9);
            let a = DistMatrix::from_global(&grid, &g);
            let mut gpus = MultiGpu::summit_node(grid.world.model());
            let out = summa_spgemm(&grid, &mut gpus, &a, &a, &base_cfg());
            (
                out.timers.get("local_spgemm") > 0.0,
                out.timers.get("summa_bcast") > 0.0,
                out.timers.get("merge") >= 0.0,
                out.kernels_used.len(),
            )
        });
        for (sp, bc, mg, kernels) in results {
            assert!(sp && bc && mg);
            assert!(kernels >= 1);
        }
    }
}
