//! The kernel-execution layer: every local SpGEMM is an asynchronous
//! launch, every merge a task on a host-side lane.
//!
//! The Pipelined Sparse SUMMA scheduler (`pipeline`) never cares *where* a
//! local multiplication runs — it submits the selected kernel to the
//! rank's [`Executor`] and overlaps against the returned [`KernelLaunch`]
//! events. There is one executor type; an [`ExecutorKind`] fixes the three
//! facts in which the configurations differ:
//!
//! | kind | GPU-selected multiply | CPU-side multiply | the lanes hold |
//! |---|---|---|---|
//! | [`Gpus`](ExecutorKind::Gpus) — the paper's setup (§III-A) | all of `B` on the devices | inline on the host, as original HipMCL runs it | merges only |
//! | [`CpuPool`](ExecutorKind::CpuPool) — nodes without accelerators | none (selection stays CPU-only) | a whole-node job on the worker lanes | merges *and* multiplies |
//! | [`Hybrid`](ExecutorKind::Hybrid) — §III-A's column split taken one device further | the [`SplitPolicy`]'s leading share; the trailing slab is a worker job | a whole-node job on the worker lanes | merges *and* multiplies |
//!
//! A *CPU-side* multiply is one whose selected kernel is a CPU kernel, or
//! a GPU launch the devices could not hold (out of memory), which
//! degrades to the host hash kernel instead of killing the rank. The
//! lanes are one [`Timeline`] per socket of the machine model. A merge
//! ([`MergeTask`]) occupies one lane at the per-socket rate and pays the
//! model's cross-socket penalty for inputs produced on another socket; a
//! queued multiply occupies every lane (the kernels are row-parallel
//! across all cores), so on a worker pool merges contend with SpGEMM for
//! the same cores. Handing a job to the lanes is free for the host — that
//! is what makes a CPU-only configuration pipelinable. A merge's cost
//! shows up only as a [`MergeSpan`] on a lane; there is no private merge
//! clock anywhere. The lanes are modeled sockets: they decide when a
//! merge runs on the virtual clock and what it costs, never how the host
//! computes it (column-parallel on the rank's one thread pool).
//!
//! All timestamps are virtual seconds on the owning rank's clock; the
//! executor only reads the clock value the scheduler passes in and never
//! advances it — waiting (and therefore idle accounting) is the
//! scheduler's job.

use crate::merge::MergeSpan;
use hipmcl_comm::{Event, GpuLib, MachineModel, MergeKernel, SpgemmKernel, TimeModel, Timeline};
use hipmcl_gpu::multi::MultiGpu;
use hipmcl_sparse::{Csc, Semiring, Value};
use hipmcl_spgemm::emit::{counted, counters, Counted, Emit};
use hipmcl_spgemm::hybrid::realized_cf;
use hipmcl_spgemm::CpuAlgo;

/// How [`ExecutorKind::Hybrid`] chooses the GPU share of each column split.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SplitPolicy {
    /// The same fraction of `B`'s columns goes to the devices in every
    /// stage (must lie in `[0, 1]` — see [`SplitPolicy::validate`]).
    Fixed(f64),
    /// Each stage's fraction comes from
    /// [`MachineModel::hybrid_gpu_fraction`], evaluated at the stage's
    /// exact `flops` and its estimated compression factor.
    ModelDerived,
    /// Model-derived initial fraction, then a damped online feedback
    /// update per stage from the realized CPU/GPU finish-time imbalance
    /// (see [`SplitController`]).
    Adaptive,
}

/// Error returned by [`SplitPolicy::validate`] for a [`SplitPolicy::Fixed`]
/// fraction outside `[0, 1]` (or not finite).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct InvalidSplit {
    /// The offending fraction.
    pub fraction: f64,
}

impl std::fmt::Display for InvalidSplit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "hybrid gpu fraction must be a finite value in [0, 1], got {}",
            self.fraction
        )
    }
}

impl std::error::Error for InvalidSplit {}

impl SplitPolicy {
    /// Checks that a [`SplitPolicy::Fixed`] fraction is a valid share.
    /// Out-of-range values are a configuration error (surfaced by
    /// `MclConfig`/[`SummaConfig`](crate::spgemm::SummaConfig) validation),
    /// never silently clamped.
    pub fn validate(self) -> Result<(), InvalidSplit> {
        match self {
            SplitPolicy::Fixed(f) if !f.is_finite() || !(0.0..=1.0).contains(&f) => {
                Err(InvalidSplit { fraction: f })
            }
            _ => Ok(()),
        }
    }
}

/// Which configuration of the [`Executor`] a SUMMA run submits its local
/// multiplications to (see the module docs for what each one fixes).
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub enum ExecutorKind {
    /// GPU kernels async on the devices, CPU kernels inline on the host
    /// (the paper's setup).
    #[default]
    Gpus,
    /// Every kernel is an async launch on the per-rank CPU worker pool.
    CpuPool,
    /// Column-split each multiplication across the GPUs and the pool.
    Hybrid {
        /// How the per-stage GPU share is chosen.
        split: SplitPolicy,
    },
}

/// GPU share of the fixed hybrid column split the adaptive policies are
/// measured against (`probe_hybrid_split`). Summit's six V100s out-rate
/// the host cores by a wide margin at high `cf` (Fig. 4), so the pool only
/// takes a sliver.
pub const DEFAULT_GPU_FRACTION: f64 = 0.85;

impl ExecutorKind {
    /// Hybrid execution with the adaptive split (the recommended default:
    /// model-derived start, online feedback thereafter).
    pub fn hybrid() -> Self {
        ExecutorKind::Hybrid {
            split: SplitPolicy::Adaptive,
        }
    }

    /// Validates the executor choice (currently: a `Fixed` hybrid split
    /// must lie in `[0, 1]`).
    pub fn validate(self) -> Result<(), InvalidSplit> {
        match self {
            ExecutorKind::Hybrid { split } => split.validate(),
            _ => Ok(()),
        }
    }
}

/// The scheduler-side description of one local multiplication, passed to
/// [`Executor::submit`].
#[derive(Clone, Copy, Debug)]
pub struct LaunchSpec {
    /// The pre-selected kernel.
    pub kernel: SpgemmKernel,
    /// Exact flop count the scheduler already derived for selection.
    pub flops: u64,
    /// Estimated compression factor `flops / nnz(C)` from the stage's
    /// Cohen probe (already clamped so `cf_est ≥ 1`); the split policies
    /// evaluate the machine model's rate curves at it before the realized
    /// `cf` is known.
    pub cf_est: f64,
    /// The universe's time model. The executor keys its timelines off the
    /// modeled clock either way; under [`TimeModel::Measured`] it
    /// additionally stamps each launch's real host compute with wall
    /// seconds ([`KernelLaunch::measured_s`]). Under
    /// [`TimeModel::Modeled`] the host clock is never read.
    pub time: TimeModel,
}

/// One asynchronous local multiplication, as seen by the scheduler.
///
/// The product is real (verified against serial kernels); the timestamps
/// are virtual. A pipelined scheduler resumes the host at
/// [`inputs_ready_at`](Self::inputs_ready_at); a bulk-synchronous one
/// waits for [`output_ready_at`](Self::output_ready_at) and counts only
/// `waited − host_compute` as idle (time the host spent computing inline
/// is work, not waiting).
#[derive(Debug)]
pub struct KernelLaunch<T: Value = f64> {
    /// What the submitted emit made of the columns of the (real) product
    /// `A ⊗ B` in the submitted semiring: the product itself under
    /// [`Push`](hipmcl_spgemm::emit::Push).
    pub c: Csc<T>,
    /// Entries of the product, whatever the emit kept of it.
    pub nnz: usize,
    /// The kernel that produced it.
    pub kernel: SpgemmKernel,
    /// Virtual time from which the host may issue the next stage's
    /// broadcasts (inputs handed off / transferred).
    pub inputs_ready_at: f64,
    /// Virtual time at which the output is on the host and mergeable.
    pub output_ready_at: f64,
    /// Host-synchronous compute folded into the launch (inline CPU
    /// kernels); never idle time.
    pub host_compute: f64,
    /// Seconds attributed to the `local_spgemm` stage timer.
    pub kernel_time: f64,
    /// Flops of the multiplication.
    pub flops: u64,
    /// Realized compression factor.
    pub cf: f64,
    /// Wall seconds the real kernel compute took on the host, sampled
    /// only when the launch was submitted under
    /// [`TimeModel::Measured`]; `0.0` under [`TimeModel::Modeled`],
    /// which never reads the host clock.
    pub measured_s: f64,
}

/// The scheduler-side description of one merge operation, passed to
/// [`Executor::submit_merge`]. The pipeline has already chosen the kernel
/// (see `merge::select_merge_kernel`); the executor only decides *where*
/// and *when* it runs.
#[derive(Clone, Debug)]
pub struct MergeTask {
    /// The pre-selected merge kernel.
    pub kernel: MergeKernel,
    /// Per input list: its element count and, if it was produced by an
    /// earlier merge, the lane (socket) that produced it — `None` for
    /// kernel products and anything else with no socket affinity. Inputs
    /// homed on a different socket than the lane the merge lands on are
    /// charged the model's cross-socket penalty.
    pub inputs: Vec<(u64, Option<usize>)>,
}

impl MergeTask {
    /// Fan-in of the merge.
    pub fn ways(&self) -> usize {
        self.inputs.len()
    }

    /// Total elements passing through the merge.
    pub fn total_elems(&self) -> u64 {
        self.inputs.iter().map(|&(e, _)| e).sum()
    }
}

/// Remote-homed input elements of `task` if it runs on `lane`.
fn remote_elems(task: &MergeTask, lane: usize) -> u64 {
    task.inputs
        .iter()
        .filter(|&&(_, home)| home.is_some_and(|s| s != lane))
        .map(|&(e, _)| e)
        .sum()
}

/// The CPU algorithm behind a CPU-side kernel selection.
fn cpu_algo(kernel: SpgemmKernel) -> CpuAlgo {
    match kernel {
        SpgemmKernel::CpuHeap => CpuAlgo::Heap,
        SpgemmKernel::CpuSpa => CpuAlgo::Spa,
        _ => CpuAlgo::Hash,
    }
}

/// What share of a GPU-selected multiply goes to the devices.
#[derive(Clone, Copy, Debug, PartialEq)]
enum GpuShare {
    /// All of `B`'s columns.
    All,
    /// None: the multiply runs on the CPU side whole.
    None,
    /// The leading columns the policy picks; the rest is a worker job.
    Split(SplitPolicy),
}

/// The target a rank's local SpGEMM launches and merge operations are
/// submitted to: its devices plus one host-side lane per socket.
///
/// Scheduling (timelines, lanes, split policies) is element-type-free;
/// only [`submit`](Self::submit) names the semiring, per call, so the same
/// executor serves shortest paths exactly as it does MCL.
///
/// # Example
///
/// On a worker pool two launches submitted back-to-back queue FIFO; a
/// launch that only becomes ready after the previous one finished leaves a
/// measurable idle gap on every lane (the Table V "GPU idle" analogue for
/// accelerator-less nodes):
///
/// ```
/// use hipmcl_comm::{MachineModel, SpgemmKernel, TimeModel};
/// use hipmcl_gpu::multi::MultiGpu;
/// use hipmcl_sparse::PlusTimes;
/// use hipmcl_summa::executor::{Executor, ExecutorKind, LaunchSpec};
/// use hipmcl_spgemm::emit::Push;
/// use hipmcl_spgemm::testutil::random_csc;
///
/// let model = MachineModel::summit();
/// let a = random_csc(20, 20, 120, 7);
/// let fpc = hipmcl_spgemm::flops_per_column(&a, &a);
/// let spec = LaunchSpec {
///     kernel: SpgemmKernel::CpuHash,
///     flops: fpc.iter().sum(),
///     cf_est: 1.0,
///     time: TimeModel::Modeled,
/// };
///
/// let mut gpus = MultiGpu::summit_node(&model);
/// let mut pool = Executor::new(ExecutorKind::CpuPool, &mut gpus, &model);
/// let pt = PlusTimes::<f64>::new();
/// let l1 = pool.submit(pt, 0.0, &a, &a, &fpc, spec, Push);
/// assert_eq!(l1.inputs_ready_at, 0.0, "handoff is free for the host");
///
/// // Ready 1 s after the first launch completed: each of the pool's
/// // lanes (one per socket) sat idle in between, and the gaps are
/// // exactly what `device_idle` reports.
/// let l2 = pool.submit(pt, l1.output_ready_at + 1.0, &a, &a, &fpc, spec, Push);
/// assert!(l2.output_ready_at > l1.output_ready_at);
/// assert!((pool.device_idle() - model.sockets as f64).abs() < 1e-9);
/// ```
pub struct Executor<'g> {
    gpus: &'g mut MultiGpu,
    model: &'g MachineModel,
    /// One lane per socket. Merges always land here.
    lanes: Vec<Timeline>,
    /// What share of a GPU-selected multiply the devices take.
    share: GpuShare,
    /// Whether the lanes are a worker pool: CPU-side multiplies queue on
    /// them as whole-node jobs and their idle counts as device idle. When
    /// not, CPU-side multiplies run inline on the host and the lanes are
    /// dedicated to merges — one set of lanes, so "where CPU multiplies
    /// run" and "what merges share their lanes with" are the same bit.
    pooled: bool,
    /// Feedback state of [`SplitPolicy::Adaptive`], seeded by the first
    /// split.
    controller: Option<SplitController>,
    /// Realized GPU share of every submission (split kinds only).
    fractions: Vec<f64>,
}

impl<'g> Executor<'g> {
    /// Builds the rank's executor of the given kind over its devices, with
    /// one lane per socket of `model` and every timeline empty.
    ///
    /// # Panics
    ///
    /// On a [`SplitPolicy::Fixed`] fraction outside `[0, 1]` — such values
    /// are a configuration error that `MclConfig`/`SummaConfig` validation
    /// reports before any executor is built; they are never clamped.
    pub fn new(kind: ExecutorKind, gpus: &'g mut MultiGpu, model: &'g MachineModel) -> Self {
        kind.validate()
            .unwrap_or_else(|e| panic!("invalid hybrid split: {e}"));
        let (share, pooled) = match kind {
            ExecutorKind::Gpus => (GpuShare::All, false),
            ExecutorKind::CpuPool => (GpuShare::None, true),
            ExecutorKind::Hybrid { split } => (GpuShare::Split(split), true),
        };
        let mut exec = Self {
            gpus,
            model,
            lanes: vec![Timeline::new(); model.sockets.max(1)],
            share,
            pooled,
            controller: None,
            fractions: Vec::new(),
        };
        exec.reset_timelines();
        exec
    }

    /// Submits `C = A ⊗ B` in semiring `s` as described by `spec`,
    /// starting at host virtual time `host_now`, with each column of the
    /// product handed to `emit` as the kernel finishes it
    /// ([`Push`](hipmcl_spgemm::emit::Push) builds the product). `fpc` is
    /// `flops_per_column(a, b)`, counted once per launch by the scheduler.
    /// Never advances a rank clock — the scheduler decides what to wait
    /// on.
    ///
    /// What the modeled bookkeeping reads of the product — device slab
    /// sizes, `cf`, transfer bytes — is its column counts, so a launch is
    /// charged the same whatever `emit` makes of the columns. A GPU launch
    /// that runs out of device memory drops the output of the columns its
    /// devices had emitted and hands `emit` every column again from the
    /// host hash kernel's product, so `c` is what `emit` makes of the
    /// fallback's product, as if that had been built first.
    #[allow(clippy::too_many_arguments)]
    pub fn submit<S: Semiring, E: Emit<S::Elem>>(
        &mut self,
        s: S,
        host_now: f64,
        a: &Csc<S::Elem>,
        b: &Csc<S::Elem>,
        fpc: &[u64],
        spec: LaunchSpec,
        emit: E,
    ) -> KernelLaunch<S::Elem> {
        let w0 = spec.time.is_measured().then(std::time::Instant::now);
        let (mut launch, gpu_share) = match spec.kernel {
            SpgemmKernel::Gpu(lib) => self.submit_gpu(s, host_now, a, b, fpc, lib, &spec, emit),
            cpu_kernel => (
                self.submit_cpu(s, host_now, a, b, fpc, cpu_kernel, spec.flops, emit),
                0.0,
            ),
        };
        if matches!(self.share, GpuShare::Split(_)) {
            self.fractions.push(gpu_share);
        }
        // The modeled path never touches the host clock: this sample is
        // the executor's only `Instant` read.
        launch.measured_s = w0.map_or(0.0, |t| t.elapsed().as_secs_f64());
        launch
    }

    /// A CPU-side multiply: a whole-node job on the worker lanes, or — on
    /// an executor without a pool — inline on the host, which is busy (not
    /// idle) for the whole duration and cannot issue the next broadcast
    /// meanwhile.
    #[allow(clippy::too_many_arguments)]
    fn submit_cpu<S: Semiring, E: Emit<S::Elem>>(
        &mut self,
        s: S,
        host_now: f64,
        a: &Csc<S::Elem>,
        b: &Csc<S::Elem>,
        fpc: &[u64],
        kernel: SpgemmKernel,
        flops: u64,
        emit: E,
    ) -> KernelLaunch<S::Elem> {
        let (n, counts) = (b.ncols(), counters(b.ncols()));
        let emit = Counted::new(emit, &counts);
        let c = cpu_algo(kernel).multiply_cols_in(s, a, b, 0..n, fpc, emit);
        let nnz = counted(&counts, 0..n);
        let cf = realized_cf(flops, nnz);
        let dur = self.model.spgemm_time(kernel, flops, cf);
        let (inputs_ready_at, output_ready_at, host_compute) = if self.pooled {
            (host_now, self.node_job(host_now, dur).at, 0.0)
        } else {
            (host_now + dur, host_now + dur, dur)
        };
        KernelLaunch {
            c,
            nnz,
            kernel,
            inputs_ready_at,
            output_ready_at,
            host_compute,
            kernel_time: dur,
            flops,
            cf,
            measured_s: 0.0,
        }
    }

    /// A GPU-selected multiply: the leading `share` of `B`'s columns on
    /// the devices (the host resumes after the input transfers), the
    /// trailing slab — if any — as a hash-kernel job on the worker lanes,
    /// the output a trivial `hcat`. Returns the launch and the share of
    /// `B`'s columns the devices really took.
    #[allow(clippy::too_many_arguments)]
    fn submit_gpu<S: Semiring, E: Emit<S::Elem>>(
        &mut self,
        s: S,
        host_now: f64,
        a: &Csc<S::Elem>,
        b: &Csc<S::Elem>,
        fpc: &[u64],
        lib: GpuLib,
        spec: &LaunchSpec,
        emit: E,
    ) -> (KernelLaunch<S::Elem>, f64) {
        let n = b.ncols();
        let gcols = match self.share {
            GpuShare::All => n,
            GpuShare::Split(policy) if !self.gpus.is_empty() => {
                let frac = self.pick_fraction(policy, lib, spec);
                ((n as f64 * frac).round() as usize).min(n)
            }
            _ => 0,
        };
        let hash = SpgemmKernel::CpuHash;
        if gcols == 0 {
            let launch = self.submit_cpu(s, host_now, a, b, fpc, hash, spec.flops, emit);
            return (launch, 0.0);
        }

        let b_lead;
        let b_gpu = if gcols < n {
            b_lead = b.column_slice(0..gcols);
            &b_lead
        } else {
            b
        };
        let launched = self
            .gpus
            .launch_in(s, host_now, a, b_gpu, &fpc[..gcols], lib, emit.clone());
        let r = match launched {
            Ok(r) => r,
            // The devices cannot take this phase (out of memory): a busy
            // or undersized engine degrades the launch to the host hash
            // kernel instead of killing the rank. The modeled clock
            // charges the CPU duration, so the slowdown shows up in
            // reports rather than vanishing, and the share reported is
            // the fallback's 0, not the intent, which keeps the adaptive
            // fraction honest. What the devices before the one that ran
            // out had emitted is dropped with their output; the fallback
            // emits every column again.
            Err(e) => {
                eprintln!(
                    "gpu launch degraded to CpuHash: {e} (increase phases or use a CPU \
                     policy to avoid the fallback)"
                );
                let launch = self.submit_cpu(s, host_now, a, b, fpc, hash, spec.flops, emit);
                return (launch, 0.0);
            }
        };

        let mut launch = KernelLaunch {
            c: r.c,
            nnz: r.nnz,
            kernel: spec.kernel,
            inputs_ready_at: r.inputs_transferred_at,
            output_ready_at: r.output_ready_at,
            host_compute: 0.0,
            kernel_time: r.output_ready_at - r.inputs_transferred_at,
            flops: r.flops,
            cf: r.cf,
            measured_s: 0.0,
        };
        if gcols < n {
            let counts = counters(n);
            let emit = Counted::new(emit, &counts);
            let c_cpu = CpuAlgo::Hash.multiply_cols_in(s, a, b, gcols..n, fpc, emit);
            let (flops_cpu, nnz_cpu) = (fpc[gcols..].iter().sum(), counted(&counts, gcols..n));
            let cf_cpu = realized_cf(flops_cpu, nnz_cpu);
            let dur = self.model.spgemm_time(hash, flops_cpu, cf_cpu);
            let done = self.node_job(host_now, dur);
            // Online feedback: the two sides' finish latencies from this
            // submission instant are exactly the imbalance the adaptive
            // policy drives to zero.
            if let Some(ctl) = self.controller.as_mut() {
                ctl.observe(r.output_ready_at - host_now, done.at - host_now);
            }
            launch.output_ready_at = r.output_ready_at.max(done.at);
            launch.kernel_time = launch.output_ready_at - r.inputs_transferred_at;
            launch.flops += flops_cpu;
            launch.nnz += nnz_cpu;
            launch.cf = if launch.nnz == 0 {
                1.0
            } else {
                launch.flops as f64 / launch.nnz as f64
            };
            launch.c = Csc::hcat(&[launch.c, c_cpu]);
        }
        debug_assert_eq!(launch.flops, spec.flops, "split must cover all columns");
        (launch, gcols as f64 / n as f64)
    }

    /// The GPU share `policy` picks for this launch.
    fn pick_fraction(&mut self, policy: SplitPolicy, lib: GpuLib, spec: &LaunchSpec) -> f64 {
        let model = self.model;
        let derived = || model.hybrid_gpu_fraction(lib, spec.flops, spec.cf_est);
        match policy {
            SplitPolicy::Fixed(f) => f,
            SplitPolicy::ModelDerived => derived(),
            SplitPolicy::Adaptive => self
                .controller
                .get_or_insert_with(|| SplitController::new(derived(), SPLIT_GAIN))
                .fraction(),
        }
    }

    /// Queues a whole-node job (all lanes busy for `dur`, the machine
    /// model's whole-node rate already being baked into `dur`); returns
    /// the completion event, which is the slowest lane's.
    fn node_job(&mut self, ready: f64, dur: f64) -> Event {
        self.lanes
            .iter_mut()
            .map(|lane| lane.submit(ready, dur))
            .max_by(|a, b| a.at.partial_cmp(&b.at).unwrap())
            .expect("an executor always has at least one lane")
    }

    /// Places one merge operation, ready at virtual time `ready_at` (when
    /// its last input slab exists), on a lane and returns the span — the
    /// merge-side analogue of [`KernelLaunch`], with `measured_s` left at
    /// zero for the pipeline, which does the real merging, to fill in.
    /// Like [`submit`](Self::submit), never advances a rank clock.
    ///
    /// **The placement rule.** Every lane competes for the task: lane `l`
    /// would finish it at `max(ready_at, busy_until(l)) + duration(l)`,
    /// where the duration prices remote-homed inputs at the model's
    /// cross-socket penalty ([`MachineModel::merge_lane_time_with`]), and
    /// the earliest modeled completion wins — so a task leaves the lane
    /// its inputs live on exactly when paying the penalty still beats
    /// waiting for that lane, and stays otherwise. Ties break toward the
    /// lane that opens the smallest idle gap (`ready_at − busy_until`,
    /// zero for a lane with no jobs yet, whose leading gap is not
    /// accounted idle), then the lowest index — fully deterministic, like
    /// every other scheduling rule in the simulator. Placement only moves
    /// *when and where* a task runs on the virtual clock, never its
    /// operands. The span also records the task's *origin* — the
    /// least-busy lane, which a pick blind to input homes and idle gaps
    /// would have taken — and whether the rule moved it off that lane.
    pub fn submit_merge(&mut self, ready_at: f64, task: &MergeTask) -> MergeSpan {
        let lanes = &self.lanes;
        let n = lanes.len();
        let dur_on = |lane: usize| {
            self.model.merge_lane_time_with(
                task.kernel,
                task.total_elems(),
                task.ways(),
                remote_elems(task, lane),
                n,
            )
        };
        let origin = (0..n)
            .min_by(|&i, &j| {
                let (bi, bj) = (lanes[i].busy_until(), lanes[j].busy_until());
                bi.partial_cmp(&bj).unwrap()
            })
            .expect("an executor always has at least one lane");
        let cost = |l: usize| {
            let end = lanes[l].busy_until().max(ready_at) + dur_on(l);
            let gap = if lanes[l].jobs() > 0 {
                (ready_at - lanes[l].busy_until()).max(0.0)
            } else {
                0.0
            };
            (end, gap)
        };
        let lane = (0..n)
            .min_by(|&i, &j| {
                let (ei, gi) = cost(i);
                let (ej, gj) = cost(j);
                ei.partial_cmp(&ej)
                    .unwrap()
                    .then(gi.partial_cmp(&gj).unwrap())
            })
            .expect("an executor always has at least one lane");
        let dur = dur_on(lane);
        let done = self.lanes[lane].submit(ready_at, dur);
        MergeSpan {
            start: done.at - dur,
            end: done.at,
            kernel: task.kernel,
            ways: task.ways(),
            elems: task.total_elems(),
            lane,
            origin,
            stolen: lane != origin,
            measured_s: 0.0,
            dur,
        }
    }

    /// GPUs visible to kernel selection (0 keeps selection CPU-only).
    pub fn gpus_available(&self) -> usize {
        match self.share {
            GpuShare::None => 0,
            _ => self.gpus.len(),
        }
    }

    /// Accumulated device/worker idle time — the Table V "GPU idle"
    /// column, read uniformly off the device streams and, on a worker
    /// pool, the lanes.
    pub fn device_idle(&self) -> f64 {
        let workers = if self.pooled {
            self.merge_lane_idle()
        } else {
            0.0
        };
        self.gpus.total_idle() + workers
    }

    /// Accumulated idle on the lanes. Dedicated merge lanes are disjoint
    /// from [`device_idle`](Self::device_idle); a worker pool's lanes are
    /// shared with SpGEMM, so there this is the pool's share of it.
    pub fn merge_lane_idle(&self) -> f64 {
        self.lanes.iter().map(Timeline::idle_time).sum()
    }

    /// Empties every timeline — device streams and lanes — which also
    /// zeroes the idle accounting (between pipeline sections).
    pub fn reset_timelines(&mut self) {
        self.gpus.reset_timelines();
        for lane in &mut self.lanes {
            lane.reset();
        }
    }

    /// The realized GPU share of every submission so far, in order (0 for
    /// multiplications that ran on the CPU side whole); empty unless the
    /// kind splits. Every share is recorded so the split decision is an
    /// observable part of the pipeline, not a hidden constant.
    pub fn fractions(&self) -> &[f64] {
        &self.fractions
    }
}

/// Interior clamp of the adaptive fraction: both sides always keep a
/// sliver of work so the controller keeps receiving two-sided finish-time
/// observations (a share pinned at 0 or 1 could never measure the silent
/// side's rate again).
pub const ADAPTIVE_MIN_FRACTION: f64 = 0.05;
/// Upper interior clamp of the adaptive fraction (see
/// [`ADAPTIVE_MIN_FRACTION`]).
pub const ADAPTIVE_MAX_FRACTION: f64 = 0.95;
/// Default damping gain `γ` of the [`SplitController`] update.
pub const SPLIT_GAIN: f64 = 0.5;

/// Damped online feedback controller for [`SplitPolicy::Adaptive`].
///
/// After a stage splits its work `f : (1 − f)` between the devices and
/// the pool, the two sides' finish latencies `t_G` and `t_C` (virtual
/// seconds from submission to each side's completion event) imply
/// realized per-share rates `r_G = f / t_G` and `r_C = (1 − f) / t_C`.
/// The fraction that would have balanced the stage is
///
/// ```text
/// f* = r_G / (r_G + r_C)
/// ```
///
/// and the controller nudges the next stage's fraction toward it with a
/// damped, clamped update
///
/// ```text
/// f ← clamp(f + γ·(f* − f), ADAPTIVE_MIN_FRACTION, ADAPTIVE_MAX_FRACTION)
/// ```
///
/// With `γ ∈ (0, 1]` the fraction always stays in `[0, 1]`, and a
/// constant imbalance (fixed underlying rates) drives it monotonically
/// toward the balance point — the geometric convergence the property
/// tests below pin down.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SplitController {
    fraction: f64,
    gain: f64,
}

impl SplitController {
    /// A controller starting at `initial` (clamped into the interior
    /// band) with damping gain `gain` (clamped into `(0, 1]`).
    pub fn new(initial: f64, gain: f64) -> Self {
        Self {
            fraction: initial.clamp(ADAPTIVE_MIN_FRACTION, ADAPTIVE_MAX_FRACTION),
            gain: gain.clamp(f64::MIN_POSITIVE, 1.0),
        }
    }

    /// The fraction the next stage should use.
    pub fn fraction(&self) -> f64 {
        self.fraction
    }

    /// Feeds back one stage's finish latencies: `gpu_time` for the device
    /// share, `cpu_time` for the pool share, both measured from the
    /// submission instant. Non-positive latencies (a side with no work)
    /// are skipped — there is no two-sided observation to learn from.
    pub fn observe(&mut self, gpu_time: f64, cpu_time: f64) {
        if !(gpu_time > 0.0 && cpu_time > 0.0) {
            return;
        }
        let f = self.fraction;
        let rg = f / gpu_time;
        let rc = (1.0 - f) / cpu_time;
        if rg + rc <= 0.0 || !(rg + rc).is_finite() {
            return;
        }
        let target = rg / (rg + rc);
        self.fraction =
            (f + self.gain * (target - f)).clamp(ADAPTIVE_MIN_FRACTION, ADAPTIVE_MAX_FRACTION);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipmcl_sparse::{CscBuilder, Idx, PlusTimes};
    use hipmcl_spgemm::emit::Push;
    use hipmcl_spgemm::testutil::random_csc;
    use proptest::prelude::*;

    fn model() -> MachineModel {
        MachineModel::summit()
    }

    fn pt() -> PlusTimes<f64> {
        PlusTimes::new()
    }

    fn want(a: &Csc<f64>) -> Csc<f64> {
        hipmcl_spgemm::hash::multiply(a, a)
    }

    fn fpc(a: &Csc<f64>) -> Vec<u64> {
        hipmcl_spgemm::flops_per_column(a, a)
    }

    fn spec_for(a: &Csc<f64>, kernel: SpgemmKernel) -> LaunchSpec {
        LaunchSpec {
            kernel,
            flops: fpc(a).iter().sum(),
            cf_est: 1.0,
            time: TimeModel::Modeled,
        }
    }

    const NSPARSE: SpgemmKernel = SpgemmKernel::Gpu(GpuLib::Nsparse);

    fn hybrid(split: SplitPolicy) -> ExecutorKind {
        ExecutorKind::Hybrid { split }
    }

    #[test]
    fn gpu_kernel_on_the_devices_is_async() {
        let (m, a) = (model(), random_csc(30, 30, 260, 41));
        let mut gpus = MultiGpu::new(model(), 2, 1 << 30);
        let mut exec = Executor::new(ExecutorKind::Gpus, &mut gpus, &m);
        let l = exec.submit(pt(), 1.0, &a, &a, &fpc(&a), spec_for(&a, NSPARSE), Push);
        assert!(l.c.max_abs_diff(&want(&a)) < 1e-9);
        assert!(l.inputs_ready_at > 1.0);
        assert!(
            l.output_ready_at > l.inputs_ready_at,
            "kernel + D2H after transfer"
        );
        assert_eq!(l.host_compute, 0.0);
        assert!((l.kernel_time - (l.output_ready_at - l.inputs_ready_at)).abs() < 1e-12);
        assert!(
            exec.fractions().is_empty(),
            "only split kinds record shares"
        );
    }

    #[test]
    fn cpu_kernel_without_a_pool_is_host_synchronous() {
        let (m, a) = (model(), random_csc(30, 30, 260, 42));
        let mut gpus = MultiGpu::new(model(), 2, 1 << 30);
        let mut exec = Executor::new(ExecutorKind::Gpus, &mut gpus, &m);
        let l = exec.submit(
            pt(),
            1.0,
            &a,
            &a,
            &fpc(&a),
            spec_for(&a, SpgemmKernel::CpuHash),
            Push,
        );
        assert!(l.c.max_abs_diff(&want(&a)) < 1e-9);
        assert_eq!(
            l.inputs_ready_at, l.output_ready_at,
            "host blocked for the whole kernel"
        );
        assert!(l.host_compute > 0.0);
        assert!((l.host_compute - (l.output_ready_at - 1.0)).abs() < 1e-12);
        assert_eq!(exec.lanes[0].jobs(), 0, "dedicated lanes saw no multiply");
    }

    #[test]
    fn gpu_oom_degrades_to_host_kernel_instead_of_panicking() {
        let (m, a) = (model(), random_csc(30, 30, 260, 45));
        // Devices far too small for the operands: every launch OOMs.
        let mut gpus = MultiGpu::new(model(), 2, 64);
        let mut exec = Executor::new(ExecutorKind::Gpus, &mut gpus, &m);
        let l = exec.submit(pt(), 1.0, &a, &a, &fpc(&a), spec_for(&a, NSPARSE), Push);
        assert!(l.c.max_abs_diff(&want(&a)) < 1e-9, "result still correct");
        assert_eq!(
            l.kernel,
            SpgemmKernel::CpuHash,
            "launch degraded to the host kernel"
        );
        assert!(l.host_compute > 0.0, "host pays for the fallback");
        assert_eq!(l.flops, hipmcl_spgemm::flops(&a, &a));
    }

    #[test]
    fn hybrid_oom_hands_the_whole_multiply_to_the_pool() {
        let (m, a) = (model(), random_csc(30, 30, 260, 46));
        let mut gpus = MultiGpu::new(model(), 2, 64);
        let mut h = Executor::new(hybrid(SplitPolicy::Fixed(0.5)), &mut gpus, &m);
        let l = h.submit(pt(), 1.0, &a, &a, &fpc(&a), spec_for(&a, NSPARSE), Push);
        assert!(l.c.max_abs_diff(&want(&a)) < 1e-9, "result still correct");
        assert_eq!(l.kernel, SpgemmKernel::CpuHash);
        assert_eq!(l.inputs_ready_at, 1.0, "queued on the pool, not inline");
        assert_eq!(
            h.fractions(),
            &[0.0],
            "the realized GPU share records the fallback, not the intent"
        );
    }

    /// Keeps the first entry of every column.
    #[derive(Clone)]
    struct First;

    impl Emit<f64> for First {
        fn room(&self, _: usize, bound: usize) -> usize {
            bound.min(1)
        }
        fn emit(&mut self, _: usize, rows: &[Idx], vals: &[f64], out: &mut CscBuilder<f64>) {
            let n = rows.len().min(1);
            out.push_column(&rows[..n], &vals[..n]);
        }
    }

    #[test]
    fn a_launch_emits_what_it_would_make_of_its_built_product() {
        let (m, a) = (model(), random_csc(30, 30, 260, 51));
        let (product, fpc) = (want(&a), fpc(&a));
        fn first(c: &Csc<f64>) -> Vec<Option<Idx>> {
            (0..c.ncols())
                .map(|j| c.col_rows(j).first().copied())
                .collect()
        }
        let split = hybrid(SplitPolicy::Fixed(0.5));
        // Devices that hold every launch; two whose second is full, so
        // that the first has emitted its columns when the launch runs out
        // of memory; devices that hold nothing; a CPU kernel inline; and a
        // column split, with and without running out.
        for (kind, kernel, mem, full) in [
            (ExecutorKind::Gpus, NSPARSE, 1 << 30, false),
            (ExecutorKind::Gpus, NSPARSE, 1 << 30, true),
            (ExecutorKind::Gpus, NSPARSE, 64, false),
            (ExecutorKind::Gpus, SpgemmKernel::CpuHeap, 64, false),
            (split, NSPARSE, 1 << 30, false),
            (split, NSPARSE, 1 << 30, true),
        ] {
            let case = format!("{kind:?} {kernel:?} on {mem} B, second full: {full}");
            let launch = |emit: bool| {
                let mut gpus = MultiGpu::new(model(), 2, mem);
                if full {
                    gpus.devices[1].alloc(mem).unwrap();
                }
                let mut exec = Executor::new(kind, &mut gpus, &m);
                let spec = spec_for(&a, kernel);
                let l = match emit {
                    true => exec.submit(pt(), 1.0, &a, &a, &fpc, spec, First),
                    false => exec.submit(pt(), 1.0, &a, &a, &fpc, spec, Push),
                };
                (l, gpus.devices[0].kernels_launched())
            };
            let ((got, ran), (built, _)) = (launch(true), launch(false));
            if full && kind == ExecutorKind::Gpus {
                assert_eq!(ran, 1, "{case}: the first device ran its share");
            }
            assert!(built.c.max_abs_diff(&product) < 1e-9, "{case}");
            assert_eq!(first(&got.c), first(&built.c), "{case}");
            let kept = first(&product).into_iter().flatten().count();
            assert_eq!(got.c.nnz(), kept, "{case}: each column emitted once");
            // Charged as if built: same nnz, cf, label and instants.
            let charged = |l: &KernelLaunch| {
                let t = [l.cf, l.inputs_ready_at, l.output_ready_at, l.kernel_time];
                (l.nnz, l.kernel, t.map(f64::to_bits))
            };
            assert_eq!(charged(&got), charged(&built), "{case}");
        }
    }

    #[test]
    fn cpu_pool_launches_are_async_and_fifo() {
        let (m, a) = (model(), random_csc(30, 30, 260, 43));
        let mut gpus = MultiGpu::new(model(), 2, 1 << 30);
        let mut pool = Executor::new(ExecutorKind::CpuPool, &mut gpus, &m);
        assert_eq!(pool.lanes.len(), m.sockets, "one lane per socket");
        assert_eq!(pool.gpus_available(), 0, "selection stays CPU-only");
        let l1 = pool.submit(
            pt(),
            1.0,
            &a,
            &a,
            &fpc(&a),
            spec_for(&a, SpgemmKernel::CpuHash),
            Push,
        );
        assert!(l1.c.max_abs_diff(&want(&a)) < 1e-9);
        assert_eq!(
            l1.inputs_ready_at, 1.0,
            "handoff is free — host resumes at once"
        );
        assert!(l1.output_ready_at > 1.0);
        assert_eq!(l1.host_compute, 0.0);
        // Second job ready immediately queues behind the first.
        let l2 = pool.submit(
            pt(),
            1.0,
            &a,
            &a,
            &fpc(&a),
            spec_for(&a, SpgemmKernel::CpuHeap),
            Push,
        );
        assert!(l2.output_ready_at > l1.output_ready_at);
        assert!(
            pool.lanes.iter().all(|lane| lane.jobs() == 2),
            "a whole-node job occupies every lane"
        );
        assert_eq!(pool.device_idle(), 0.0, "back-to-back jobs leave no gap");
    }

    #[test]
    fn cpu_pool_degrades_gpu_requests_to_hash() {
        let (m, a) = (model(), random_csc(20, 20, 120, 44));
        let mut gpus = MultiGpu::new(model(), 2, 1 << 30);
        let mut pool = Executor::new(ExecutorKind::CpuPool, &mut gpus, &m);
        let l = pool.submit(pt(), 0.0, &a, &a, &fpc(&a), spec_for(&a, NSPARSE), Push);
        assert_eq!(l.kernel, SpgemmKernel::CpuHash);
        assert!(l.c.max_abs_diff(&want(&a)) < 1e-9);
    }

    #[test]
    fn hybrid_splits_and_matches_reference() {
        let (m, a) = (model(), random_csc(40, 40, 500, 45));
        let w = want(&a);
        let policies = [
            SplitPolicy::Fixed(0.0),
            SplitPolicy::Fixed(0.3),
            SplitPolicy::Fixed(0.5),
            SplitPolicy::Fixed(0.85),
            SplitPolicy::Fixed(1.0),
            SplitPolicy::ModelDerived,
            SplitPolicy::Adaptive,
        ];
        for policy in policies {
            let mut gpus = MultiGpu::new(model(), 3, 1 << 30);
            let mut h = Executor::new(hybrid(policy), &mut gpus, &m);
            let l = h.submit(pt(), 0.0, &a, &a, &fpc(&a), spec_for(&a, NSPARSE), Push);
            assert!(l.c.max_abs_diff(&w) < 1e-9, "{policy:?}");
            assert_eq!(l.c.nnz(), w.nnz(), "{policy:?}");
            assert_eq!(l.flops, spec_for(&a, NSPARSE).flops, "{policy:?}");
            assert!(l.output_ready_at >= l.inputs_ready_at, "{policy:?}");
            assert_eq!(h.fractions().len(), 1, "{policy:?}");
            let f = h.fractions()[0];
            assert!((0.0..=1.0).contains(&f), "{policy:?}: {f}");
        }
    }

    #[test]
    fn hybrid_sends_cpu_kernels_to_the_pool() {
        let (m, a) = (model(), random_csc(25, 25, 180, 46));
        let mut gpus = MultiGpu::new(model(), 2, 1 << 30);
        let mut h = Executor::new(hybrid(SplitPolicy::Fixed(0.85)), &mut gpus, &m);
        let l = h.submit(
            pt(),
            2.0,
            &a,
            &a,
            &fpc(&a),
            spec_for(&a, SpgemmKernel::CpuHeap),
            Push,
        );
        assert!(l.c.max_abs_diff(&want(&a)) < 1e-9);
        assert_eq!(
            l.inputs_ready_at, 2.0,
            "pool handoff frees the host immediately"
        );
        assert_eq!(h.gpus_available(), 2);
        assert_eq!(h.fractions(), &[0.0], "whole multiply on the pool");
    }

    #[test]
    fn hybrid_without_devices_runs_entirely_on_pool() {
        let (m, a) = (model(), random_csc(20, 20, 140, 47));
        let mut gpus = MultiGpu::new(model(), 0, 1 << 30);
        let mut h = Executor::new(hybrid(SplitPolicy::Adaptive), &mut gpus, &m);
        let spec = spec_for(&a, SpgemmKernel::Gpu(GpuLib::Rmerge2));
        let l = h.submit(pt(), 0.0, &a, &a, &fpc(&a), spec, Push);
        assert!(l.c.max_abs_diff(&want(&a)) < 1e-9);
        assert_eq!(l.kernel, SpgemmKernel::CpuHash);
    }

    #[test]
    #[should_panic(expected = "invalid hybrid split")]
    fn hybrid_rejects_fraction_above_one() {
        let mut gpus = MultiGpu::new(model(), 2, 1 << 30);
        let _ = Executor::new(hybrid(SplitPolicy::Fixed(1.5)), &mut gpus, &model());
    }

    #[test]
    #[should_panic(expected = "invalid hybrid split")]
    fn hybrid_rejects_negative_fraction() {
        let mut gpus = MultiGpu::new(model(), 2, 1 << 30);
        let _ = Executor::new(hybrid(SplitPolicy::Fixed(-0.1)), &mut gpus, &model());
    }

    #[test]
    fn split_policy_validation_accepts_bounds_rejects_outside() {
        assert!(SplitPolicy::Fixed(0.0).validate().is_ok());
        assert!(SplitPolicy::Fixed(1.0).validate().is_ok());
        assert!(SplitPolicy::ModelDerived.validate().is_ok());
        assert!(SplitPolicy::Adaptive.validate().is_ok());
        let below = SplitPolicy::Fixed(-1e-9).validate().unwrap_err();
        assert_eq!(below.fraction, -1e-9);
        let above = SplitPolicy::Fixed(1.0 + 1e-9).validate().unwrap_err();
        assert!(above.fraction > 1.0);
        assert!(SplitPolicy::Fixed(f64::NAN).validate().is_err());
        assert!(hybrid(SplitPolicy::Fixed(2.0)).validate().is_err());
        assert!(ExecutorKind::Gpus.validate().is_ok());
        // The error is displayable (surfaced by MclConfig validation).
        let msg = format!("{}", above);
        assert!(msg.contains("[0, 1]"), "{msg}");
    }

    #[test]
    fn executor_kind_default_and_hybrid_preset() {
        assert_eq!(ExecutorKind::default(), ExecutorKind::Gpus);
        assert_eq!(ExecutorKind::hybrid(), hybrid(SplitPolicy::Adaptive));
    }

    #[test]
    fn adaptive_converges_toward_balanced_finish_times() {
        // Repeated identical multiplications from a deliberately bad
        // initial fraction (the model seed already starts near balance):
        // the controller must walk toward the point where devices and pool
        // finish together, shrinking the finish-time gap.
        // Big enough that split work dwarfs the fixed launch/transfer
        // overheads — otherwise the gap floor is the overhead, not the
        // imbalance.
        let (m, a) = (model(), random_csc(300, 300, 24000, 49));
        let spec = spec_for(&a, NSPARSE);
        let mut gpus = MultiGpu::new(model(), 6, 1 << 30);
        let mut h = Executor::new(hybrid(SplitPolicy::Adaptive), &mut gpus, &m);
        h.controller = Some(SplitController::new(0.2, SPLIT_GAIN));
        let mut gaps = Vec::new();
        let mut now = 0.0;
        for _ in 0..12 {
            let l = h.submit(pt(), now, &a, &a, &fpc(&a), spec, Push);
            now = l.output_ready_at;
            let gpu_done = h
                .gpus
                .devices
                .iter()
                .map(|d| d.quiescent_at())
                .fold(0.0, f64::max);
            let pool_done = h.lanes[0].busy_until();
            gaps.push((gpu_done - pool_done).abs());
        }
        assert!(
            gaps.last().unwrap() < &(0.5 * gaps[0]).max(1e-12),
            "finish-time gap must shrink: {gaps:?}"
        );
    }

    fn merge_task(kernel: MergeKernel, inputs: Vec<(u64, Option<usize>)>) -> MergeTask {
        MergeTask { kernel, inputs }
    }

    #[test]
    fn merge_tasks_spread_across_socket_lanes() {
        // Summit's model has two sockets → two merge lanes; two merges
        // ready at the same instant run socket-parallel, not queued.
        let m = model();
        let mut gpus = MultiGpu::new(model(), 2, 1 << 30);
        let mut exec = Executor::new(ExecutorKind::Gpus, &mut gpus, &m);
        assert_eq!(exec.lanes.len(), 2);
        let t = merge_task(MergeKernel::Heap, vec![(50_000, None), (50_000, None)]);
        let l1 = exec.submit_merge(0.0, &t);
        let l2 = exec.submit_merge(0.0, &t);
        assert_ne!(l1.lane, l2.lane, "second merge takes the free lane");
        assert_eq!(l1.start, 0.0);
        assert_eq!(l2.start, 0.0);
        assert!((l1.end - l1.duration()).abs() < 1e-12);
        // A third merge must queue behind one of them.
        let l3 = exec.submit_merge(0.0, &t);
        assert!(l3.start >= l1.end.min(l2.end) - 1e-12);
    }

    #[test]
    fn merge_lane_idle_reconciles_with_span_gaps() {
        // One rank per socket (4 ranks/node) → a single merge lane, so
        // the gap between two spans is exactly the reported lane idle.
        let m = MachineModel::summit_ranks_per_node(4);
        assert_eq!(m.sockets, 1);
        let mut gpus = MultiGpu::new(m.clone(), 2, 1 << 30);
        let mut exec = Executor::new(ExecutorKind::Gpus, &mut gpus, &m);
        let t = merge_task(MergeKernel::Hash, vec![(10_000, None); 4]);
        let l1 = exec.submit_merge(0.0, &t);
        let l2 = exec.submit_merge(l1.end + 0.25, &t);
        assert!((l2.start - (l1.end + 0.25)).abs() < 1e-12);
        assert!((exec.merge_lane_idle() - 0.25).abs() < 1e-12);
        assert_eq!(exec.device_idle(), 0.0, "device streams saw no merges");
        exec.reset_timelines();
        assert_eq!(exec.merge_lane_idle(), 0.0);
    }

    #[test]
    fn remote_socket_inputs_pay_the_crossing_penalty() {
        // Lane 1 is backlogged, so a task whose inputs live there runs on
        // lane 0 and every input element crosses sockets; the same task
        // homed on lane 0 pays nothing.
        let m = model();
        let run = |home: usize| {
            let mut gpus = MultiGpu::new(m.clone(), 2, 1 << 30);
            let mut exec = Executor::new(ExecutorKind::Gpus, &mut gpus, &m);
            let big = merge_task(MergeKernel::Heap, vec![(50_000_000, Some(1)); 2]);
            assert_eq!(exec.submit_merge(0.0, &big).lane, 1);
            let t = merge_task(MergeKernel::Heap, vec![(40_000, Some(home)); 2]);
            let l = exec.submit_merge(0.0, &t);
            assert_eq!(l.lane, 0);
            l.duration()
        };
        let ratio = run(1) / run(0);
        assert!(
            (ratio - (1.0 + m.xsocket_penalty)).abs() < 1e-9,
            "all-remote inputs scale the merge by 1 + penalty, got {ratio}"
        );
    }

    #[test]
    fn placement_avoids_the_crossing_penalty_on_free_lanes() {
        // Both lanes are free and the inputs live on lane 1: lane 1
        // finishes the task sooner than the least-busy pick (lane 0,
        // which would pay the penalty), so it takes the task and the
        // span records the move.
        let m = model();
        let mut gpus = MultiGpu::new(m.clone(), 2, 1 << 30);
        let mut exec = Executor::new(ExecutorKind::Gpus, &mut gpus, &m);
        let remote = merge_task(
            MergeKernel::Heap,
            vec![(40_000, Some(1)), (40_000, Some(1))],
        );
        let l = exec.submit_merge(0.0, &remote);
        assert_eq!(l.lane, 1, "home lane wins the task");
        assert_eq!(l.origin, 0, "fresh lanes tie on backlog: lane 0");
        assert!(l.stolen);
        let unpenalized = m.merge_lane_time_with(MergeKernel::Heap, 80_000, 2, 0, 2);
        assert!(
            (l.duration() - unpenalized).abs() < 1e-12,
            "the move pays no cross-socket penalty: {} vs {unpenalized}",
            l.duration()
        );
    }

    #[test]
    fn placement_refuses_a_move_that_loses_to_waiting() {
        // Lane 1 (the inputs' home) is deeply backlogged; lane 0 is free.
        // Paying the penalty on lane 0 now beats waiting for lane 1, so
        // the task stays on its origin lane — placement is cost-gated,
        // not affinity-greedy.
        let m = model();
        let mut gpus = MultiGpu::new(m.clone(), 2, 1 << 30);
        let mut exec = Executor::new(ExecutorKind::Gpus, &mut gpus, &m);
        // Backlog lane 1 with a huge merge homed there.
        let big = merge_task(MergeKernel::Heap, vec![(50_000_000, Some(1)); 2]);
        let lb = exec.submit_merge(0.0, &big);
        assert_eq!(lb.lane, 1);
        let small = merge_task(MergeKernel::Heap, vec![(40_000, Some(1)); 2]);
        let ls = exec.submit_merge(0.0, &small);
        assert_eq!(ls.lane, 0, "waiting behind the backlog would lose");
        assert_eq!(ls.origin, 0);
        assert!(!ls.stolen);
        let penalized = m.merge_lane_time_with(MergeKernel::Heap, 80_000, 2, 80_000, 2);
        assert!((ls.duration() - penalized).abs() < 1e-12);
    }

    #[test]
    fn placement_tie_breaks_toward_the_smallest_idle_gap() {
        // Both lanes hold jobs; the task becomes ready exactly when the
        // longer lane frees up. Either lane would finish it at the same
        // instant; the shorter backlog (the origin) would open an idle
        // gap, so the rule prefers the lane that opens none.
        let m = model();
        let t_short = merge_task(MergeKernel::Heap, vec![(10_000, None); 2]);
        let t_long = merge_task(MergeKernel::Heap, vec![(80_000, None); 2]);
        let probe = merge_task(MergeKernel::Heap, vec![(20_000, None); 2]);
        let mut gpus = MultiGpu::new(m.clone(), 2, 1 << 30);
        let mut exec = Executor::new(ExecutorKind::Gpus, &mut gpus, &m);
        let a = exec.submit_merge(0.0, &t_long); // lane 0
        let b = exec.submit_merge(0.0, &t_short); // lane 1
        assert_eq!((a.lane, b.lane), (0, 1));
        let l = exec.submit_merge(a.end, &probe);
        assert_eq!(l.origin, 1, "the shorter backlog");
        assert_eq!(l.lane, 0, "equal finish → prefer the gapless lane");
        assert!(l.stolen);
        assert_eq!(l.start, a.end, "no later than on lane 1");
        assert_eq!(exec.merge_lane_idle(), 0.0);
    }

    #[test]
    fn starved_lane_reconciliation_counts_no_phantom_idle() {
        // Every merge is homed on (and won by) lane 0: lane 1 receives
        // zero tasks, and its empty Timeline must contribute exactly zero
        // to merge_lane_idle — neither under- nor double-counted.
        let m = model();
        let mut gpus = MultiGpu::new(m.clone(), 2, 1 << 30);
        let mut exec = Executor::new(ExecutorKind::Gpus, &mut gpus, &m);
        let t = merge_task(MergeKernel::Heap, vec![(30_000, Some(0)); 2]);
        let mut ready = 0.0;
        let mut spans = Vec::new();
        for _ in 0..4 {
            let l = exec.submit_merge(ready, &t);
            assert_eq!(l.lane, 0, "home lane always wins: lane 1 starves");
            spans.push(l);
            ready = l.end + 0.125; // open a real gap each time
        }
        assert_eq!(exec.lanes[1].jobs(), 0, "lane 1 saw nothing");
        let gaps: f64 = spans
            .windows(2)
            .map(|w| (w[1].start - w[0].end).max(0.0))
            .sum();
        assert!(
            (exec.merge_lane_idle() - gaps).abs() < 1e-12,
            "idle {} must equal the span gaps {gaps} on the busy lane alone",
            exec.merge_lane_idle()
        );
    }

    #[test]
    fn pool_merges_contend_with_spgemm_for_the_lanes() {
        let m = model();
        let a = random_csc(30, 30, 260, 50);
        let mut gpus = MultiGpu::new(model(), 2, 1 << 30);
        let mut pool = Executor::new(ExecutorKind::CpuPool, &mut gpus, &m);
        let k = pool.submit(
            pt(),
            0.0,
            &a,
            &a,
            &fpc(&a),
            spec_for(&a, SpgemmKernel::CpuHash),
            Push,
        );
        // The whole-node kernel holds every lane; a merge ready at 0 can
        // only start once a lane frees up.
        let t = merge_task(MergeKernel::Pairwise, vec![(1000, None), (1000, None)]);
        let l = pool.submit_merge(0.0, &t);
        assert!(
            (l.start - k.output_ready_at).abs() < 1e-12,
            "merge waited for the SpGEMM to release its lane"
        );
        assert_eq!(
            pool.merge_lane_idle(),
            pool.device_idle(),
            "shared lanes: merge-lane idle is the pool idle"
        );
    }

    #[test]
    fn merge_task_accessors() {
        let t = merge_task(
            MergeKernel::Hash,
            vec![(3, Some(0)), (4, None), (5, Some(1))],
        );
        assert_eq!(t.ways(), 3);
        assert_eq!(t.total_elems(), 12);
    }

    #[test]
    fn reset_timelines_clears_idle_accounting() {
        let (m, a) = (model(), random_csc(20, 20, 120, 48));
        let spec = spec_for(&a, SpgemmKernel::CpuHash);
        let mut gpus = MultiGpu::new(model(), 2, 1 << 30);
        let mut pool = Executor::new(ExecutorKind::CpuPool, &mut gpus, &m);
        pool.submit(pt(), 0.0, &a, &a, &fpc(&a), spec, Push);
        pool.submit(pt(), 1e9, &a, &a, &fpc(&a), spec, Push);
        assert!(pool.device_idle() > 0.0);
        pool.reset_timelines();
        assert_eq!(pool.device_idle(), 0.0);
    }

    #[test]
    fn controller_constant_rates_converge_monotonically() {
        // Closed loop against fixed true rates: |f - f*| must never grow,
        // and the fraction must land on the balance point.
        let (rg, rc) = (3.0, 1.0);
        let target = rg / (rg + rc);
        let mut c = SplitController::new(0.1, 0.5);
        let mut err = (c.fraction() - target).abs();
        for _ in 0..64 {
            let f = c.fraction();
            c.observe(f / rg, (1.0 - f) / rc);
            let e = (c.fraction() - target).abs();
            assert!(e <= err + 1e-12, "error grew: {e} > {err}");
            err = e;
        }
        assert!(err < 1e-6, "did not converge: {err}");
    }

    #[test]
    fn controller_skips_one_sided_observations() {
        let mut c = SplitController::new(0.5, 0.5);
        c.observe(0.0, 1.0);
        c.observe(1.0, 0.0);
        c.observe(-1.0, 2.0);
        assert_eq!(c.fraction(), 0.5, "no two-sided signal, no update");
    }

    proptest! {
        /// Any sequence of stage imbalances keeps the fraction in [0, 1].
        #[test]
        fn controller_fraction_always_in_unit_interval(
            initial in -1.0f64..2.0,
            gain in 0.01f64..1.0,
            times in proptest::collection::vec((1e-9f64..1e6, 1e-9f64..1e6), 1..40),
        ) {
            let mut c = SplitController::new(initial, gain);
            prop_assert!((0.0..=1.0).contains(&c.fraction()));
            for (tg, tc) in times {
                c.observe(tg, tc);
                prop_assert!(
                    (0.0..=1.0).contains(&c.fraction()),
                    "fraction escaped: {}", c.fraction()
                );
            }
        }

        /// A constant imbalance (fixed underlying rates) drives the
        /// fraction monotonically toward the balance point.
        #[test]
        fn controller_constant_imbalance_is_monotone(
            initial in 0.0f64..1.0,
            gain in 0.01f64..1.0,
            rg in 0.1f64..100.0,
            rc in 0.1f64..100.0,
        ) {
            let target = (rg / (rg + rc))
                .clamp(ADAPTIVE_MIN_FRACTION, ADAPTIVE_MAX_FRACTION);
            let mut c = SplitController::new(initial, gain);
            let mut prev = (c.fraction() - target).abs();
            // Error contracts by (1 − gain) per step; 2000 steps suffice
            // for even the smallest gain in range.
            for _ in 0..2000 {
                let f = c.fraction();
                c.observe(f / rg, (1.0 - f) / rc);
                let err = (c.fraction() - target).abs();
                prop_assert!(err <= prev + 1e-12, "diverged: {err} > {prev}");
                prev = err;
            }
            prop_assert!(prev < 1e-3, "not converged: {prev}");
        }
    }
}
