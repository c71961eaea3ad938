//! The Pipelined Sparse SUMMA stage scheduler (§III).
//!
//! One code path drives every configuration: for each phase and each of
//! the `√P` stages the scheduler exchanges the `A` and `B` blocks,
//! selects a kernel, submits it to the [`Executor`], and decides what to
//! overlap purely from the launch's completion events:
//!
//! * **pipelined** — the host resumes at `inputs_ready_at`, so the next
//!   stage's broadcasts (and the one-stage-late binary merge) overlap the
//!   kernel when it runs on the devices (an inline CPU kernel keeps the
//!   host busy until it is done); the phase's closing merge is likewise
//!   drained one *phase* late, so its tail overlaps the next phase's
//!   broadcasts and launches;
//! * **bulk synchronous** — the host waits for `output_ready_at`, and the
//!   wait minus any inline host compute is charged as CPU idle (Table V).
//!
//! There is deliberately no `match` on CPU-vs-GPU here: where a kernel
//! runs is the executor's business, and the pipelined/bulk-sync
//! distinction is a property of this scheduler, not of the kernel.
//!
//! # The last stage product is not built
//!
//! A phase's last kernel hands each column it finishes to the merge that
//! first takes its product (the closing merge on a 2×2 grid, through the
//! caller's sink; straight into the sink when a 1×1 phase has nothing to
//! merge), which merges it with the same column of the stack's entries on
//! the spot: the output columns of a sum of sparse matrices are
//! independent. Any merge Algorithm 2 triggers among earlier slabs when
//! that product arrives runs for real before the kernel, so the stack
//! holds what the streaming merge reads. A launch that runs out of device
//! memory hands the merge every column again from its host fallback
//! (`Executor::submit`), as that fallback's built product would be merged.
//! Every modeled submission — launch, merge task, wait — happens where and
//! when it would for a built product, from the product's column counts
//! alone, and every merge kernel is bit-identical, so results and modeled
//! schedules cannot tell streaming from building.
//!
//! # Per-stage communication selection
//!
//! Under [`CommPolicy::Hybrid`] each stage operand panel is moved by
//! whichever collective the machine model prices cheaper for its byte
//! count: the `⌈lg p⌉`-hop binomial tree, or flat root-sequential
//! point-to-point sends whose single α wins for small panels
//! ([`MachineModel::choose_comm_mode`](hipmcl_comm::MachineModel::choose_comm_mode)).
//! Mode agreement is reached by first tree-broadcasting the panel's byte
//! count (one 8-byte header) and letting every rank evaluate the same
//! model — no voting round. [`CommPolicy::Broadcast`] skips the header
//! and always takes the tree: the exact legacy path. Either way the
//! choice made for every `(phase, stage, operand)` is recorded as a
//! [`CommChoice`] in the output, so the policy is observable, not a
//! hidden constant.

use crate::distmat::{Operand, Panel};
use crate::executor::{Executor, KernelLaunch, LaunchSpec, MergeTask};
use crate::merge::{
    algorithm2_merge_count, merge_into, select_merge_kernel, sink_slab, ColumnSink, MergeEmit,
    MergeKernelPolicy, MergeSpan, MergeStats, MergeStrategy, Packed, Whole,
};
use crate::spgemm::{CommChoice, CommPolicy, SummaConfig};
use hipmcl_comm::clock::StageTimers;
use hipmcl_comm::collectives::{bcast, flat_bcast};
use hipmcl_comm::{
    Comm, CommMode, MergeKernel, ProcGrid, SpgemmKernel, WireDecode, WireEncode, WireError,
    WireReader, WireSize,
};
use hipmcl_gpu::select::select_kernel;
use hipmcl_sparse::util::even_chunk;
use hipmcl_sparse::{Csc, Dcsc, Semiring, Value};
use hipmcl_spgemm::emit::Push;
use hipmcl_spgemm::{CohenEstimator, MultAnalysis};
use std::sync::{Arc, Mutex};

/// Broadcast payload: a shared block plus its hypersparse wire size.
/// HipMCL broadcasts DCSC; an `Arc` keeps the in-process copy free while
/// the virtual cost reflects the real payload (§III-B).
#[derive(Clone)]
struct BlockMsg<T: Value>(Panel<T>, usize);

impl<T: Value> WireSize for BlockMsg<T> {
    fn wire_bytes(&self) -> usize {
        self.1
    }
}

// On a byte-moving transport the panel really travels as its hypersparse
// DCSC encoding — the same representation whose byte count the α–β model
// charges — written straight from the CSC arrays and re-densified to CSC
// on arrival, with no `Dcsc` built on either side.
impl<T: Value> WireEncode for BlockMsg<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        Dcsc::encode_csc(&self.0, out);
    }
    fn encoded_len_hint(&self) -> usize {
        Dcsc::<T>::encoded_len_for(self.1)
    }
}

impl<T: Value> WireDecode for BlockMsg<T> {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let block = Dcsc::<T>::decode_csc(r)?;
        let bytes = Dcsc::bytes_of_csc(&block);
        Ok(BlockMsg(Panel::Block(Arc::new(block)), bytes))
    }
}

/// Moves one stage operand panel from `root` to every rank of `comm`,
/// returning the block, its wire bytes, and the collective that moved it.
///
/// [`CommPolicy::Broadcast`] is the legacy tree, bit-for-bit (no header).
/// [`CommPolicy::Hybrid`] first tree-broadcasts the byte count so all
/// ranks agree, then takes the model's cheaper mode for the payload.
fn exchange_block<T: Value>(
    comm: &Comm,
    policy: CommPolicy,
    root: usize,
    local: Option<&Panel<T>>,
) -> (Panel<T>, usize, CommMode) {
    // The root shares its panel, it does not copy it.
    let payload = local.map(|m| BlockMsg(m.clone(), Dcsc::bytes_of_csc(m)));
    match policy {
        CommPolicy::Broadcast => {
            let msg = bcast(comm, root, payload);
            (msg.0, msg.1, CommMode::Broadcast)
        }
        CommPolicy::Hybrid => {
            // Header round: every rank learns the payload size over the
            // tree (8 bytes), then evaluates the same machine model — so
            // the mode decision is agreed without any extra exchange.
            let bytes = bcast(comm, root, payload.as_ref().map(|msg| msg.1 as u64)) as usize;
            let mode = comm.model().choose_comm_mode(comm.size(), bytes);
            let msg = match mode {
                CommMode::Broadcast => bcast(comm, root, payload),
                CommMode::Gather => flat_bcast(comm, root, payload),
            };
            (msg.0, msg.1, mode)
        }
    }
}

/// What one pipeline run produced, besides the stage timers it filled in.
pub(crate) struct PipelineOutcome<T: Value = f64> {
    /// Per-phase output slabs, as the `on_slab` hook returned them.
    pub slabs: Vec<Csc<T>>,
    /// Accumulated merge statistics.
    pub merge_stats: MergeStats,
    /// Every merge operation's timeline span, in submission order.
    pub merge_spans: Vec<MergeSpan>,
    /// Host idle time waiting on launch/merge events.
    pub cpu_idle: f64,
    /// Kernel recorded for every (phase, stage), `phases × √P` entries.
    pub kernels_used: Vec<SpgemmKernel>,
    /// Communication mode chosen for every (phase, stage, operand) panel,
    /// `2 × phases × √P` entries in issue order.
    pub comm_choices: Vec<CommChoice>,
    /// Wall-clock counterpart of the virtual stage timers, filled only
    /// under `TimeModel::Measured` (all-zero durations under `Modeled`,
    /// which never reads the host clock).
    pub timers_measured: StageTimers,
}

/// A stage product waiting on the merge stack: the real matrix (a kernel
/// product or what a previous merge wrote — `None` for the phase's last
/// product, whose kernel streamed it into the merge that takes it), its
/// entries, the virtual time it exists from, and the merge lane that
/// produced it (`None` for kernel products, which have no socket
/// affinity). The home is a *modeled* attribute — it prices the
/// cross-socket penalty in `submit_merge`; the matrix itself is the rank's
/// wherever the merge was placed.
struct Slab<T: Value> {
    m: Option<Csc<T>>,
    nnz: usize,
    ready: f64,
    home: Option<usize>,
}

/// A merge whose real work is done and whose lane task is still to be
/// submitted: the task, when its inputs are ready, and the wall seconds
/// the real work took.
struct Job {
    task: MergeTask,
    ready: f64,
    measured_s: f64,
}

/// Sinks stage products into the configured merge scheme. Every merge
/// operation is a [`MergeTask`] submitted through the executor, so its
/// cost lands on a merge-lane [`Timeline`](hipmcl_comm::Timeline) — the
/// engine holds no clock of its own. Binary merging under pipelining
/// holds each slab back one stage so its merge (which Algorithm 2 may
/// trigger) overlaps the next launch; because the merge is an async task
/// the host never blocks on it mid-phase. The phase's closing merge — the
/// one that takes the whole stack once every stage product is in — passes
/// each column it finishes through `sink`, whose tally it keeps.
///
/// The phase's last stage product is never built
/// ([`stream_last`](Self::stream_last)): its kernel hands each column to
/// the merge that first takes the product, which merges it with the same
/// column of the other inputs on the spot. The lane tasks are submitted
/// exactly where they would be for a built product, so the modeled
/// schedule cannot tell the two apart.
struct MergeEngine<'k, S: Semiring, K: ColumnSink<S::Elem>> {
    sr: S,
    strategy: MergeStrategy,
    policy: MergeKernelPolicy,
    pipelined: bool,
    shape: (usize, usize),
    sink: &'k K,
    /// Stage products still to come.
    due: usize,
    stack: Vec<Slab<S::Elem>>,
    pushed: usize,
    pending: Option<Slab<S::Elem>>,
    /// The lane task of the merge that pushing the pending slab triggered
    /// before the last kernel ran, which `accept` submits where the push
    /// used to happen.
    early: Option<Job>,
    /// What the last kernel streamed into the merge that first takes its
    /// product, until that merge (whose tally, if it closes the phase, is
    /// in `tally` already).
    streamed: Option<Csc<S::Elem>>,
    /// The closing merge's tally, once it ran.
    tally: Option<Vec<K::Tally>>,
    spans: Vec<MergeSpan>,
    stats: MergeStats,
}

impl<'k, S: Semiring, K: ColumnSink<S::Elem>> MergeEngine<'k, S, K> {
    fn new(sr: S, cfg: &SummaConfig, shape: (usize, usize), stages: usize, sink: &'k K) -> Self {
        Self {
            sr,
            strategy: cfg.merge,
            policy: cfg.merge_kernel,
            pipelined: cfg.pipelined,
            shape,
            sink,
            due: stages,
            stack: Vec::new(),
            pushed: 0,
            pending: None,
            early: None,
            streamed: None,
            tally: None,
            spans: Vec::new(),
            stats: MergeStats::default(),
        }
    }

    /// The kernel of a `ways`-way merge of `total` elements.
    fn kernel(&self, comm: &Comm, total: u64, ways: usize) -> MergeKernel {
        match self.policy {
            MergeKernelPolicy::Fixed(k) => k,
            MergeKernelPolicy::Auto => select_merge_kernel(comm.model(), total, ways),
        }
    }

    /// Merges the top `count` stack entries as one executor task: the
    /// task is ready when its last input is, the chosen kernel does the
    /// real work, and the result re-enters the stack homed on the lane
    /// the executor placed it on; its inputs are freed. The closing merge
    /// goes through the sink.
    fn do_merge(&mut self, comm: &Comm, exec: &mut Executor<'_>, count: usize) {
        let job = self.merge_now(comm, count);
        self.submit(exec, job);
    }

    /// The real work of merging the top `count` stack entries — or, if the
    /// last of them is the streamed product, what its kernel merged — with
    /// the result stacked in their place; its lane task is `submit`'s.
    fn merge_now(&mut self, comm: &Comm, count: usize) -> Job {
        let closing = self.due == 0 && self.pending.is_none() && count == self.stack.len();
        let tail: Vec<Slab<S::Elem>> = self.stack.split_off(self.stack.len() - count);
        let inputs: Vec<(u64, Option<usize>)> =
            tail.iter().map(|s| (s.nnz as u64, s.home)).collect();
        let ready = tail.iter().map(|s| s.ready).fold(0.0, f64::max);
        let total: u64 = inputs.iter().map(|&(e, _)| e).sum();
        let kernel = self.kernel(comm, total, count);
        // Wall sample of the real merge compute below; `measured_now`
        // is pinned to 0 under `Modeled`, so the delta costs nothing
        // there and the host clock stays untouched.
        let w0 = comm.measured_now();
        let mats: Option<Vec<&Csc<S::Elem>>> = tail.iter().map(|s| s.m.as_ref()).collect();
        let merged = match (mats, closing) {
            (Some(mats), true) => {
                let packed = merge_into(self.sr, kernel, &mats, self.shape, self.sink);
                self.tally = Some(packed.tally);
                packed.cols
            }
            (Some(mats), false) => merge_into(self.sr, kernel, &mats, self.shape, &Whole).cols,
            (None, _) => self.streamed.take().expect("the last kernel streamed here"),
        };
        let measured_s = comm.measured_now() - w0;
        drop(tail);
        self.stack.push(Slab {
            nnz: merged.nnz(),
            m: Some(merged),
            ready: f64::NAN,
            home: None,
        });
        Job {
            task: MergeTask { kernel, inputs },
            ready,
            measured_s,
        }
    }

    /// Submits `job`'s lane task and dates the slab it stacked, which is
    /// still the top one, by it.
    fn submit(&mut self, exec: &mut Executor<'_>, job: Job) {
        let mut span = exec.submit_merge(job.ready, &job.task);
        span.measured_s = job.measured_s;
        let total = job.task.total_elems();
        self.stats.peak_merge_elems = self.stats.peak_merge_elems.max(total as usize);
        self.stats.total_merged_elems += total;
        self.stats.merge_ops += 1;
        self.stats.merge_time += span.duration();
        self.stats.measured_merge_s += span.measured_s;
        let top = self.stack.last_mut().expect("the merge's slab");
        (top.ready, top.home) = (span.end, Some(span.lane));
        self.spans.push(span);
    }

    /// Stacks a slab and runs whatever merge Algorithm 2 triggers.
    fn push_binary(&mut self, comm: &Comm, exec: &mut Executor<'_>, slab: Slab<S::Elem>) {
        self.stack.push(slab);
        self.pushed += 1;
        let count = algorithm2_merge_count(self.pushed);
        if count > 0 {
            self.do_merge(comm, exec, count);
        }
    }

    /// Submits the phase's last stage launch with its columns streamed
    /// into the merge that first takes its product, and returns the launch,
    /// whose output that merge keeps.
    ///
    /// Under pipelined binary merging, accepting the last product pushes
    /// the pending slab first; that push, and the merge it may trigger
    /// among earlier slabs, run for real here, before the kernel, and
    /// their lane task is submitted in `accept` as before. The merge that
    /// takes the last product then reads the stack as it is now: the
    /// entries it merges besides the product, and whether it closes the
    /// phase — through the sink — follow from Algorithm 2 and the stack's
    /// depth. With nothing to merge it with (one stage), the product's
    /// columns go to the sink as they are. Under `Auto` its real kernel is
    /// chosen from the launch's estimated product size, the only one known
    /// before the kernel runs; its lane task is labeled and timed with the
    /// kernel the real size selects (`merge_now`), and every kernel gives
    /// the same bits.
    #[allow(clippy::too_many_arguments)]
    fn stream_last(
        &mut self,
        comm: &Comm,
        exec: &mut Executor<'_>,
        host_now: f64,
        a: &Csc<S::Elem>,
        b: &Csc<S::Elem>,
        fpc: &[u64],
        spec: LaunchSpec,
    ) -> KernelLaunch<S::Elem> {
        if let Some(prev) = self.pending.take() {
            self.stack.push(prev);
            self.pushed += 1;
            let count = algorithm2_merge_count(self.pushed);
            if count > 0 {
                self.early = Some(self.merge_now(comm, count));
            }
        }
        let count = match self.strategy {
            MergeStrategy::Binary => algorithm2_merge_count(self.pushed + 1),
            MergeStrategy::Multiway => 0,
        };
        let (with, closing) = match count {
            0 => (self.stack.len(), true),
            c => (c - 1, c - 1 == self.stack.len()),
        };
        let others = &self.stack[self.stack.len() - with..];
        let inputs: Vec<&Csc<S::Elem>> = others
            .iter()
            .map(|s| s.m.as_ref().expect("earlier products are built"))
            .collect();
        let estimate = (spec.flops as f64 / spec.cf_est) as usize;
        let total = others.iter().map(|s| s.nnz).sum::<usize>() + estimate;
        let kernel = self.kernel(comm, total as u64, with + 1);
        let (nrows, ncols) = self.shape;
        let mut launch = if closing {
            let tally = Mutex::new(vec![K::Tally::default(); ncols]);
            let emit = MergeEmit::<S, K>::new(kernel, inputs, nrows, self.sink, &tally);
            let launch = exec.submit(self.sr, host_now, a, b, fpc, spec, emit);
            self.tally = Some(tally.into_inner().expect("nothing panics under the lock"));
            launch
        } else {
            let tally = Mutex::new(vec![(); ncols]);
            let emit = MergeEmit::<S, Whole>::new(kernel, inputs, nrows, &Whole, &tally);
            exec.submit(self.sr, host_now, a, b, fpc, spec, emit)
        };
        self.streamed = Some(std::mem::replace(&mut launch.c, Csc::zero(nrows, 0)));
        launch
    }

    /// Accepts a stage product of `nnz` entries that is mergeable from
    /// `ready_at`: `m`, or nothing for the last one, which its kernel
    /// streamed.
    fn accept(
        &mut self,
        comm: &Comm,
        exec: &mut Executor<'_>,
        m: Option<Csc<S::Elem>>,
        nnz: usize,
        ready_at: f64,
    ) {
        self.due -= 1;
        let slab = Slab {
            m,
            nnz,
            ready: ready_at,
            home: None,
        };
        match self.strategy {
            MergeStrategy::Multiway => self.stack.push(slab),
            MergeStrategy::Binary => {
                if self.pipelined {
                    // Push the *previous* stage's slab: its merge (if
                    // Algorithm 2 triggers one) overlaps this stage's
                    // kernel on the merge lane. Before the phase's last
                    // kernel the push ran ahead of it, and the task of the
                    // merge it triggered goes here.
                    if let Some(job) = self.early.take() {
                        self.submit(exec, job);
                    }
                    if let Some(prev) = self.pending.replace(slab) {
                        self.push_binary(comm, exec, prev);
                    }
                } else {
                    // Bulk synchronous: the host blocks until the merge
                    // (still a lane task) completes; the block is wait
                    // time, since the host does none of the merging.
                    self.push_binary(comm, exec, slab);
                    let ready = self.stack.last().map_or(comm.now(), |s| s.ready);
                    self.stats.wait_time += comm.wait_clock_until(ready);
                }
            }
        }
    }

    /// Submits the phase's closing merge work: the flushed pending slab
    /// and the final collapse (Multiway's single deferred k-way merge, or
    /// Algorithm 2's `finish` collapse of the remaining stack). All of it
    /// is async lane work — the host does not wait here; that is
    /// [`drain`](Self::drain)'s job, which pipelining defers one phase.
    fn seal(&mut self, comm: &Comm, exec: &mut Executor<'_>) {
        if let Some(prev) = self.pending.take() {
            self.push_binary(comm, exec, prev);
        }
        if self.stack.len() > 1 {
            let count = self.stack.len();
            self.do_merge(comm, exec, count);
        }
    }

    /// Waits for the sealed phase's packed slab and folds its timing,
    /// statistics and spans into `timers` and `out`. Under pipelining the
    /// scheduler calls this only after the *next* phase's broadcasts and
    /// launches are issued, so the closing merge's tail overlaps them
    /// instead of stalling the grid.
    fn drain(
        mut self,
        comm: &Comm,
        timers: &mut StageTimers,
        out: &mut PipelineOutcome<S::Elem>,
    ) -> Packed<S::Elem, K::Tally> {
        let ready = self.stack.last().map_or(comm.now(), |s| s.ready);
        self.stats.wait_time += comm.wait_clock_until(ready);

        timers.add("merge", self.stats.merge_time);
        out.timers_measured
            .add("merge", self.stats.measured_merge_s);
        out.cpu_idle += self.stats.wait_time;
        out.merge_stats.absorb(&self.stats);
        out.merge_spans.append(&mut self.spans);
        // The hook gets the storage the closing merge wrote. A phase whose
        // one product needed no merge packs it here, through the same sink
        // — or, under one that keeps every column whole, hands it over;
        // the sink packed a product the last kernel streamed already.
        let last = match self.stack.pop() {
            Some(slab) => slab.m.or_else(|| self.streamed.take()),
            None => Some(Csc::zero(self.shape.0, self.shape.1)),
        };
        match (last, self.tally) {
            (Some(cols), Some(tally)) => Packed { cols, tally },
            (Some(last), None) if K::WHOLE => Packed {
                tally: vec![K::Tally::default(); last.ncols()],
                cols: last,
            },
            (Some(last), None) => sink_slab(&last, self.sink),
            (None, _) => unreachable!("every stacked slab is built or streamed"),
        }
    }
}

/// Runs all phases and stages of one distributed multiplication through
/// `exec`, in semiring `s`, each phase's closing merge through `sink` and
/// what it packed through `on_slab`. Fills `timers`; returns the per-phase
/// output slabs and the idle/instrumentation accumulators. Collective over
/// the grid.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run<S, O, K, F>(
    s: S,
    grid: &ProcGrid,
    exec: &mut Executor<'_>,
    a: &O,
    b: &O,
    cfg: &SummaConfig,
    phases: usize,
    cf_hint: Option<f64>,
    timers: &mut StageTimers,
    sink: &K,
    mut on_slab: F,
) -> PipelineOutcome<S::Elem>
where
    S: Semiring,
    O: Operand<Elem = S::Elem>,
    K: ColumnSink<S::Elem>,
    F: FnMut(usize, Packed<S::Elem, K::Tally>) -> Csc<S::Elem>,
{
    let comm = &grid.world;
    let side = grid.side;
    let probe = CohenEstimator::new(4, cfg.seed ^ 0xABCD);
    let mut out = PipelineOutcome {
        slabs: Vec::with_capacity(phases),
        merge_stats: MergeStats::default(),
        merge_spans: Vec::new(),
        cpu_idle: 0.0,
        kernels_used: Vec::with_capacity(phases * side),
        comm_choices: Vec::with_capacity(2 * phases * side),
        timers_measured: StageTimers::new(),
    };
    let local_cols = b.matrix().local.ncols();
    // Under pipelining the previous phase's sealed engine drains only
    // after this phase's stage loop, so its closing merge overlaps the
    // next round of broadcasts and launches (phases sliced from `B` are
    // independent; only the per-phase hook needs the merged slab).
    let mut sealed: Option<(usize, MergeEngine<S, K>)> = None;
    // Broadcast roots hand out `Arc`s: `A`'s block, as the caller shares
    // it, serves every phase; `B`'s phase slice is a fresh matrix already
    // — unless the one phase takes all of a `B` that is `A` (MCL's
    // expansion squares one matrix), whose panel is then `A`'s.
    let a_local = a.panel();
    let squaring = std::ptr::eq(a, b) && phases == 1;

    for ph in 0..phases {
        let cols = even_chunk(local_cols, phases, ph);
        let b_phase = if squaring {
            a_local.clone()
        } else {
            Panel::Block(Arc::new(b.matrix().local.column_slice(cols)))
        };
        // Every stage product this phase has the same block shape.
        let shape = (a_local.nrows(), b_phase.ncols());
        let mut merge = MergeEngine::new(s, cfg, shape, side, sink);

        for k in 0..side {
            // --- SUMMA exchanges (mode per panel, §III-B) -------------
            let t0 = comm.now();
            let w0 = comm.measured_now();
            let (a_blk, a_bytes, a_mode) = exchange_block(
                &grid.row_comm,
                cfg.comm,
                k,
                (grid.col == k).then_some(&a_local),
            );
            let (b_blk, b_bytes, b_mode) = exchange_block(
                &grid.col_comm,
                cfg.comm,
                k,
                (grid.row == k).then_some(&b_phase),
            );
            timers.add("summa_bcast", comm.now() - t0);
            out.timers_measured
                .add("summa_bcast", comm.measured_now() - w0);
            for (operand, bytes, mode) in [('A', a_bytes, a_mode), ('B', b_bytes, b_mode)] {
                out.comm_choices.push(CommChoice {
                    phase: ph,
                    stage: k,
                    operand,
                    bytes,
                    mode,
                    t_tree: comm.model().tree_bcast_time(side, bytes),
                    t_flat: comm.model().flat_bcast_time(side, bytes),
                });
            }

            // --- Kernel selection (flops + Cohen cf probe, §III/VI) ----
            // The stage's flops are counted once, per column: selection,
            // the kernel's reservation and the devices' shares read them,
            // and a streamed product's room in the merge that takes it.
            let fpc = hipmcl_spgemm::flops_per_column(&a_blk, &b_blk);
            let flops: u64 = fpc.iter().sum();
            let (slab, nnz, ready_at) = if flops == 0 {
                // Nothing to multiply, but instrumentation still records
                // the selector's degenerate choice so per-stage counts
                // stay `phases × √P`.
                let analysis = MultAnalysis {
                    flops: 0,
                    nnz_out: 1,
                };
                out.kernels_used
                    .push(select_kernel(&analysis, &cfg.policy, exec.gpus_available()));
                (Some(Csc::zero(a_blk.nrows(), b_blk.ncols())), 0, comm.now())
            } else {
                // `nnz(C)` can never exceed `flops`: clamp the probe so a
                // stale global cf hint (or an overshooting estimate) on a
                // local block never shows the selector `cf < 1`.
                let nnz_cap = flops;
                let nnz_probe = match cf_hint {
                    Some(cf) => (((flops as f64 / cf).max(1.0)) as u64).min(nnz_cap),
                    None => {
                        comm.advance_clock(
                            comm.model().estimate_time(probe.op_count(&a_blk, &b_blk)),
                        );
                        (probe.estimate_total(&a_blk, &b_blk).max(1.0) as u64).min(nnz_cap)
                    }
                };
                let analysis = MultAnalysis {
                    flops,
                    nnz_out: nnz_probe.max(1),
                };
                let kernel = select_kernel(&analysis, &cfg.policy, exec.gpus_available());
                out.kernels_used.push(kernel);

                // --- Submit to the executor; overlap off its events ----
                // The probe's clamped cf estimate rides along so the merge
                // that takes the phase's last product, which streams into
                // it, can be sized before the realized cf exists.
                let spec = LaunchSpec {
                    kernel,
                    flops,
                    cf_est: flops as f64 / nnz_probe.max(1) as f64,
                    time: comm.time_model(),
                };
                let (now, blocks) = (comm.now(), (&*a_blk, &*b_blk));
                let launch = if k + 1 == side {
                    merge.stream_last(comm, exec, now, blocks.0, blocks.1, &fpc, spec)
                } else {
                    exec.submit(s, now, blocks.0, blocks.1, &fpc, spec, Push)
                };
                if cfg.pipelined {
                    // Host resumes as soon as the inputs are handed off.
                    comm.wait_clock_until(launch.inputs_ready_at);
                } else {
                    // Bulk synchronous: wait for the output; inline host
                    // compute inside the wait is work, not idleness.
                    let waited = comm.wait_clock_until(launch.output_ready_at);
                    out.cpu_idle += (waited - launch.host_compute).max(0.0);
                }
                timers.add("local_spgemm", launch.kernel_time);
                out.timers_measured.add("local_spgemm", launch.measured_s);
                let slab = (k + 1 < side).then_some(launch.c);
                (slab, launch.nnz, launch.output_ready_at)
            };

            merge.accept(comm, exec, slab, nnz, ready_at);
        }

        // --- Phase wrap-up: submit the closing merge ------------------
        // The previous phase's slab goes to the hook first, so it is
        // pruned and gone before the closing merge of this phase obtains
        // its output. The modeled schedule cannot tell the two orders
        // apart: sealing times its merges from the slabs' ready times
        // and the lanes, never the host clock the drain advances (a unit
        // test below), and the hook cannot reach the lanes — `exec` is
        // borrowed exclusively here.
        if let Some((pph, eng)) = sealed.take() {
            let packed = eng.drain(comm, timers, &mut out);
            out.slabs.push(on_slab(pph, packed));
        }
        merge.seal(comm, exec);
        if cfg.pipelined {
            sealed = Some((ph, merge));
        } else {
            let packed = merge.drain(comm, timers, &mut out);
            out.slabs.push(on_slab(ph, packed));
        }
    }
    if let Some((pph, eng)) = sealed.take() {
        let packed = eng.drain(comm, timers, &mut out);
        out.slabs.push(on_slab(pph, packed));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipmcl_sparse::Triples;

    /// 4×5, three entries, columns 0 and 2 empty.
    fn panel() -> Csc<f64> {
        let mut t = Triples::new(4, 5);
        t.push(0, 1, 1.5);
        t.push(2, 3, f64::from_bits(0x7ff8_dead_beef_0001));
        t.push(1, 4, 2.0);
        Csc::from_triples(&t)
    }

    #[test]
    fn block_msg_bytes_match_the_fixture_and_the_modeled_size() {
        // Hex captured when `BlockMsg` still built a `Dcsc` to encode:
        // panels must stay readable across builds.
        let m = panel();
        let msg = BlockMsg(Panel::Block(Arc::new(m.clone())), Dcsc::bytes_of_csc(&m));
        assert_eq!(msg.wire_bytes(), 80);
        let wire = msg.encoded();
        let hex: String = wire.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            "0400000000000000050000000000000003000000000000000100000003000000040000000400000000\
             000000000000000000000001000000000000000200000000000000030000000000000003000000000000\
             000000000002000000010000000300000000000000000000000000f83f0100efbeaddef87f0000000000\
             000040"
        );
        assert_eq!(wire.len(), msg.encoded_len_hint(), "hint is exact");
        let back = BlockMsg::<f64>::decode_all(&wire).unwrap();
        assert_eq!(back.1, msg.1, "receiver models the same wire size");
        assert_eq!(back.0.colptr, m.colptr);
        assert_eq!(back.0.rowidx, m.rowidx);
        assert_eq!(
            back.0.encoded(),
            m.encoded(),
            "values bit-exact, NaN included"
        );
    }

    #[test]
    fn sealing_reads_no_host_clock() {
        use hipmcl_comm::{MachineModel, Universe};
        use hipmcl_gpu::multi::MultiGpu;
        use hipmcl_sparse::PlusTimes;
        // Three stage products under pipelined binary merging: the third
        // is pending and one merged pair is stacked, so sealing submits
        // the push and the closing merge.
        let sealed_at = |host: f64| {
            let spans = Universe::run(1, MachineModel::summit(), move |comm| {
                let mut gpus = MultiGpu::new(comm.model().clone(), 1, 1 << 20);
                let mut exec = Executor::new(&mut gpus, comm.model());
                let cfg = SummaConfig::optimized(1 << 30);
                let shape = (4, 5);
                let mut merge = MergeEngine::new(PlusTimes::<f64>::new(), &cfg, shape, 3, &Whole);
                for ready in [1.0, 2.0, 3.0] {
                    merge.accept(&comm, &mut exec, Some(panel()), 3, ready);
                }
                comm.advance_clock(host);
                let before = merge.spans.len();
                merge.seal(&comm, &mut exec);
                assert_eq!(comm.now(), host, "sealing waits for nothing");
                merge.spans[before..]
                    .iter()
                    .map(|s| (s.start.to_bits(), s.end.to_bits(), s.lane))
                    .collect::<Vec<_>>()
            });
            spans.into_iter().next().expect("one rank")
        };
        assert!(!sealed_at(0.0).is_empty());
        assert_eq!(sealed_at(0.0), sealed_at(50.0));
    }

    #[test]
    fn corrupt_block_msgs_are_decode_errors() {
        let wire = BlockMsg(Panel::Block(Arc::new(panel())), 80).encoded();
        for cut in 0..wire.len() {
            assert!(BlockMsg::<f64>::decode_all(&wire[..cut]).is_err());
        }
        // ncols (second word) blown up to a width no colptr could have.
        let mut huge = wire.clone();
        huge[8..16].copy_from_slice(&(usize::MAX - 1).to_le_bytes());
        assert!(BlockMsg::<f64>::decode_all(&huge).is_err());
        // jc[0] pointed past ncols.
        let mut stray = wire;
        stray[24..28].copy_from_slice(&9u32.to_le_bytes());
        assert!(BlockMsg::<f64>::decode_all(&stray).is_err());
    }
}
