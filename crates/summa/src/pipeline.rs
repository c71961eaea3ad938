//! The Pipelined Sparse SUMMA stage scheduler (§III).
//!
//! One code path drives every configuration: for each phase and each of
//! the `√P` stages the scheduler exchanges the `A` and `B` blocks,
//! selects a kernel, forms the stage product, has the [`Executor`] charge
//! the launch, and decides what to overlap purely from the launch's
//! completion events:
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
//! # No stage product is built
//!
//! The stage products that one Algorithm 2 merge takes first form a
//! *group*: under `Binary` stages `2j` and `2j + 1` (an odd last stage
//! alone), under `Multiway` all of them. The output columns of a sum of
//! sparse products are independent (arXiv:2112.10223), so that merge runs
//! column by column as the group's products are formed: each column of
//! each stage is formed by the hash kernel's column step, merged on
//! the spot with the same column of the stack entries the merge takes
//! besides, and packed through the caller's sink if the merge closes the
//! phase. Only the results of merges that do not close the phase (grids of
//! side ≥ 3) are built.
//!
//! A group of at most two stages whose first launch the devices certainly
//! hold (`Executor::admit`) is formed in one pass after both stages'
//! panels arrived, and this reorders nothing on the modeled clock. After a
//! device launch the host resumes at `inputs_ready_at`, which depends only
//! on the input bytes and on the copy engine's queue, and that queue holds
//! only the *previous* launch's transfer back. So the first launch's real
//! compute may move past the next exchange, whose sends go out at the
//! clock they always did — but not past the one after it, which waits for
//! the second launch's inputs, queued behind the first launch's output.
//! Hence groups of at most two stages: each panel exchange is followed by
//! its launch's admission, then one column pass forms the group and notes
//! each stage's column counts, and then the launches are completed
//! (`Executor::complete`, `Executor::charge`) and the lane tasks submitted
//! in stage order, from those counts. Every other group — a CPU-side first
//! launch, bulk synchronous, devices the bound does not show to hold it,
//! `Multiway` with `√P ≥ 3` — runs in stage order: each launch in turn,
//! the earlier products built and the last one formed into the group's
//! merge. Every merge label and every launch label give the same bits,
//! so results and modeled schedules cannot tell either way from building
//! every product.
//!
//! Whichever way, each product is formed here, by `form`: the host
//! kernel its label selects writes it into `Push` (a built product) or
//! into the group's merge, noting each column's count, between two reads
//! of the wall clock (both 0 under `TimeModel::Modeled`). The executor
//! only charges the launch from those counts; it forms nothing and reads
//! no clock.

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
use crate::executor::{Executor, KernelLaunch, MergeTask};
use crate::merge::{
    algorithm2_merge_count, merge_into, select_merge_kernel, ColumnSink, MergeEmit,
    MergeKernelPolicy, MergeSpan, MergeStats, MergeStrategy, Packed, Spot,
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
use hipmcl_spgemm::emit::{counters, Counted, Emit, Push};
use hipmcl_spgemm::{CohenEstimator, CpuAlgo, MultAnalysis};
use std::ops::Range;
use std::sync::atomic::AtomicUsize;
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

/// An entry of the merge stack: what a merge wrote (`None` for a stage
/// product, which is never built: the merge that takes its group formed
/// its columns), its entries, the virtual time it exists from, and the
/// merge lane that produced it (`None` for kernel products, which have no
/// socket affinity). The home is a *modeled* attribute — it prices the
/// cross-socket penalty in `submit_merge`; the matrix itself is the rank's
/// wherever the merge was placed.
struct Slab<T: Value> {
    m: Option<Csc<T>>,
    nnz: usize,
    ready: f64,
    home: Option<usize>,
}

/// The stages whose products one merge takes first: under `Binary` stages
/// `2j` and `2j + 1` (an odd last stage alone), under `Multiway` all.
fn groups(side: usize, strategy: MergeStrategy) -> impl Iterator<Item = Range<usize>> {
    let width = match strategy {
        MergeStrategy::Binary => 2,
        MergeStrategy::Multiway => side.max(1),
    };
    (0..side)
        .step_by(width)
        .map(move |k| k..side.min(k + width))
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
/// No stage product is built. The merge that takes a group of stages
/// first runs as their columns are formed ([`group_emit`](Self::group_emit)),
/// and its result waits in `formed` until Algorithm 2 triggers that merge;
/// its lane task is submitted then, exactly where it would be for built
/// products, so the modeled schedule cannot tell the two apart.
struct MergeEngine<'k, S: Semiring, K: ColumnSink<S::Elem>> {
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
    /// What the merge that takes the current group made of it, until that
    /// merge.
    formed: Option<Csc<S::Elem>>,
    /// The closing merge's tally, once it ran.
    tally: Option<Vec<K::Tally>>,
    spans: Vec<MergeSpan>,
    stats: MergeStats,
}

impl<'k, S: Semiring, K: ColumnSink<S::Elem>> MergeEngine<'k, S, K> {
    fn new(cfg: &SummaConfig, shape: (usize, usize), stages: usize, sink: &'k K) -> Self {
        Self {
            strategy: cfg.merge,
            policy: cfg.merge_kernel,
            pipelined: cfg.pipelined,
            shape,
            sink,
            due: stages,
            stack: Vec::new(),
            pushed: 0,
            pending: None,
            formed: None,
            tally: None,
            spans: Vec::new(),
            stats: MergeStats::default(),
        }
    }

    /// The kernel label of a `ways`-way merge of `total` elements.
    fn kernel(&self, comm: &Comm, total: u64, ways: usize) -> MergeKernel {
        match self.policy {
            MergeKernelPolicy::Fixed(k) => k,
            MergeKernelPolicy::Auto => select_merge_kernel(comm.model(), total, ways),
        }
    }

    /// The emit of the merge that takes the stages `group` of a phase of
    /// `stages`, with `built` the products of the group's stages formed
    /// already, in stage order, and `spot` one the emit forms itself; the
    /// kernel it is handed to forms the group's last. Its other inputs are
    /// the stack's merge results that Algorithm 2 merges with the group,
    /// and it packs through the sink (with its tallies in `tally`) if it
    /// closes the phase, which the flag says; [`formed`](Self::formed)
    /// takes what it made. Its lane task is labeled and timed with the
    /// kernel label the real size selects (`do_merge`).
    fn group_emit<'e>(
        &'e self,
        group: &Range<usize>,
        stages: usize,
        built: &'e [Csc<S::Elem>],
        spot: Option<Spot<'e, S::Elem>>,
        tally: &'e Mutex<Vec<K::Tally>>,
    ) -> (MergeEmit<'e, S, K>, bool) {
        let results: Vec<&Csc<S::Elem>> = self.stack.iter().filter_map(|s| s.m.as_ref()).collect();
        let with = match (self.strategy, group.len()) {
            (MergeStrategy::Binary, 2) => algorithm2_merge_count(group.end) - 2,
            _ => results.len(),
        };
        let closing = group.end == stages && with == results.len();
        let mut inputs = results[results.len() - with..].to_vec();
        inputs.extend(built);
        let sink = closing.then(|| {
            *tally.lock().expect("nothing panics under the lock") =
                vec![K::Tally::default(); self.shape.1];
            self.sink
        });
        let emit = MergeEmit::new(inputs, spot, self.shape.0, sink, tally);
        (emit, closing)
    }

    /// Takes what the emit of [`group_emit`](Self::group_emit) made, with
    /// the tally it kept if it closed the phase.
    fn formed(&mut self, merged: Csc<S::Elem>, tally: Option<Vec<K::Tally>>) {
        self.formed = Some(merged);
        if tally.is_some() {
            self.tally = tally;
        }
    }

    /// Merges the top `count` stack entries as one executor task: the
    /// task is ready when its last input is and timed with the label its
    /// size selects, and the result re-enters the stack homed on the lane
    /// the executor placed it on; its inputs are freed. The closing merge
    /// goes through the sink.
    fn do_merge(&mut self, comm: &Comm, exec: &mut Executor<'_>, count: usize) {
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
        let merged = match mats {
            // Merge results alone: only a phase's closing merge takes those
            // (grid sides 6, 10, 12, … under `Binary`); every other merge
            // takes the group its `MergeEmit` just formed.
            Some(mats) => {
                debug_assert!(self.due == 0 && self.pending.is_none() && self.stack.is_empty());
                let packed = merge_into(S::default(), &mats, self.shape, Some(self.sink));
                self.tally = Some(packed.tally);
                packed.cols
            }
            None => self.formed.take().expect("the group's merge formed it"),
        };
        let measured_s = comm.measured_now() - w0;
        drop(tail);
        let task = MergeTask { kernel, inputs };
        let mut span = exec.submit_merge(ready, &task);
        span.measured_s = measured_s;
        self.stats.peak_merge_elems = self.stats.peak_merge_elems.max(total as usize);
        self.stats.total_merged_elems += total;
        self.stats.merge_ops += 1;
        self.stats.merge_time += span.duration();
        self.stats.measured_merge_s += span.measured_s;
        self.stack.push(Slab {
            nnz: merged.nnz(),
            m: Some(merged),
            ready: span.end,
            home: Some(span.lane),
        });
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

    /// Under pipelined binary merging, pushes the slab held back one stage:
    /// its merge (if Algorithm 2 triggers one) overlaps this stage's
    /// kernel on the merge lane.
    fn flush_pending(&mut self, comm: &Comm, exec: &mut Executor<'_>) {
        if let Some(prev) = self.pending.take() {
            self.push_binary(comm, exec, prev);
        }
    }

    /// Accepts a stage product of `nnz` entries that is mergeable from
    /// `ready_at`.
    fn accept(&mut self, comm: &Comm, exec: &mut Executor<'_>, nnz: usize, ready_at: f64) {
        self.due -= 1;
        let slab = Slab {
            m: None,
            nnz,
            ready: ready_at,
            home: None,
        };
        match self.strategy {
            MergeStrategy::Multiway => self.stack.push(slab),
            MergeStrategy::Binary if self.pipelined => {
                self.flush_pending(comm, exec);
                self.pending = Some(slab);
            }
            MergeStrategy::Binary => {
                // Bulk synchronous: the host blocks until the merge
                // (still a lane task) completes; the block is wait
                // time, since the host does none of the merging.
                self.push_binary(comm, exec, slab);
                let ready = self.stack.last().map_or(comm.now(), |s| s.ready);
                self.stats.wait_time += comm.wait_clock_until(ready);
            }
        }
    }

    /// Submits the phase's closing merge work: the flushed pending slab
    /// and the final collapse (Multiway's single deferred k-way merge, or
    /// Algorithm 2's `finish` collapse of the remaining stack). All of it
    /// is async lane work — the host does not wait here; that is
    /// [`drain`](Self::drain)'s job, which pipelining defers one phase.
    fn seal(&mut self, comm: &Comm, exec: &mut Executor<'_>) {
        self.flush_pending(comm, exec);
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
        // The hook gets the storage the closing merge wrote — or, when a
        // phase's one product needed no merge, what its emit packed.
        let last = self.stack.pop().expect("a phase has a stage");
        Packed {
            cols: last
                .m
                .or(self.formed)
                .expect("every slab is merged or formed"),
            tally: self
                .tally
                .expect("the closing merge packed through the sink"),
        }
    }
}

/// One stage's panels, its flops per output column and the kernel
/// selected for its launch (`None` when it has no flops).
struct Stage<T: Value> {
    a: Panel<T>,
    b: Panel<T>,
    fpc: Vec<u64>,
    kernel: Option<SpgemmKernel>,
}

/// Forms stage `st`'s product, each column handed to `emit` and its count
/// noted in `counts`: what `emit` made of it, and the wall seconds the
/// host took (0 under `TimeModel::Modeled`, which reads no host clock).
/// The heap forms the heap's product, the hash kernel every other label's,
/// the devices' included: so a GPU launch's product is the one its
/// out-of-memory fallback forms, and only the charges differ. A stage
/// without flops is formed like any other: its product is empty.
fn form<S: Semiring, E: Emit<S::Elem>>(
    s: S,
    comm: &Comm,
    st: &Stage<S::Elem>,
    counts: &[AtomicUsize],
    emit: E,
) -> (Csc<S::Elem>, f64) {
    let algo = match st.kernel {
        Some(SpgemmKernel::CpuHeap) => CpuAlgo::Heap,
        _ => CpuAlgo::Hash,
    };
    let (a, b, emit) = (&*st.a, &*st.b, Counted::new(emit, counts));
    let w0 = comm.measured_now();
    let c = algo.multiply_cols_in(s, a, b, 0..b.ncols(), &st.fpc, emit);
    (c, comm.measured_now() - w0)
}

/// Charges stage `st`'s launch at the host's virtual time from its
/// product's column counts (`None` when the stage has no flops).
fn charge<T: Value>(
    comm: &Comm,
    exec: &mut Executor<'_>,
    st: &Stage<T>,
    counts: &[AtomicUsize],
) -> Option<KernelLaunch> {
    let (a, b, now) = (&*st.a, &*st.b, comm.now());
    st.kernel
        .map(|k| exec.charge(now, k, a, b, &st.fpc, counts))
}

/// Exchanges stage `k`'s panels of phase `ph` (mode per panel, §III-B) and
/// selects the stage's kernel from its flops and a Cohen cf probe
/// (§III/VI), recording both in `out` and timing the exchange.
#[allow(clippy::too_many_arguments)]
fn stage<T: Value>(
    grid: &ProcGrid,
    cfg: &SummaConfig,
    (ph, k): (usize, usize),
    (a_local, b_phase): (&Panel<T>, &Panel<T>),
    cf_hint: Option<f64>,
    gpus: usize,
    timers: &mut StageTimers,
    out: &mut PipelineOutcome<T>,
) -> Stage<T> {
    let (comm, side) = (&grid.world, grid.side);
    let t0 = comm.now();
    let w0 = comm.measured_now();
    let row_root = (grid.col == k).then_some(a_local);
    let (a, a_bytes, a_mode) = exchange_block(&grid.row_comm, cfg.comm, k, row_root);
    let col_root = (grid.row == k).then_some(b_phase);
    let (b, b_bytes, b_mode) = exchange_block(&grid.col_comm, cfg.comm, k, col_root);
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

    // The stage's flops are counted once, per column: selection, the
    // kernel's reservation and the devices' shares read them, and the
    // merge that takes the product sizes its room by them.
    let fpc = hipmcl_spgemm::flops_per_column(&a, &b);
    let flops: u64 = fpc.iter().sum();
    if flops == 0 {
        // Nothing to multiply, but instrumentation still records the
        // selector's degenerate choice so per-stage counts stay
        // `phases × √P`.
        let analysis = MultAnalysis {
            flops: 0,
            nnz_out: 1,
        };
        out.kernels_used
            .push(select_kernel(&analysis, &cfg.policy, gpus));
        return Stage {
            a,
            b,
            fpc,
            kernel: None,
        };
    }
    // `nnz(C)` can never exceed `flops`: clamp the probe so a stale global
    // cf hint (or an overshooting estimate) on a local block never shows
    // the selector `cf < 1`.
    let nnz_probe = match cf_hint {
        Some(cf) => (((flops as f64 / cf).max(1.0)) as u64).min(flops),
        None => {
            let probe = CohenEstimator::new(4, cfg.seed ^ 0xABCD);
            comm.advance_clock(comm.model().estimate_time(probe.op_count(&a, &b)));
            (probe.estimate_total(&a, &b).max(1.0) as u64).min(flops)
        }
    };
    let analysis = MultAnalysis {
        flops,
        nnz_out: nnz_probe.max(1),
    };
    let kernel = select_kernel(&analysis, &cfg.policy, gpus);
    out.kernels_used.push(kernel);
    Stage {
        a,
        b,
        fpc,
        kernel: Some(kernel),
    }
}

/// Lands a stage's launch — `None` when the stage had no flops — on the
/// host and the merge stack: the host resumes at `inputs_ready_at`
/// (pipelined) or waits for the output, counting what it did not compute
/// inline as idle (bulk synchronous); the launch's modeled and measured
/// seconds go to the `local_spgemm` timers, and the product to the merge
/// engine.
#[allow(clippy::too_many_arguments)]
fn land<S: Semiring, K: ColumnSink<S::Elem>>(
    comm: &Comm,
    exec: &mut Executor<'_>,
    merge: &mut MergeEngine<S, K>,
    pipelined: bool,
    launch: Option<KernelLaunch>,
    measured_s: f64,
    timers: &mut StageTimers,
    out: &mut PipelineOutcome<S::Elem>,
) {
    let (nnz, ready) = match launch {
        None => (0, comm.now()),
        Some(l) => {
            if pipelined {
                // Host resumes as soon as the inputs are handed off.
                comm.wait_clock_until(l.inputs_ready_at);
            } else {
                // Bulk synchronous: wait for the output; inline host
                // compute inside the wait is work, not idleness.
                let waited = comm.wait_clock_until(l.output_ready_at);
                out.cpu_idle += (waited - l.host_compute).max(0.0);
            }
            timers.add("local_spgemm", l.kernel_time);
            out.timers_measured.add("local_spgemm", measured_s);
            (l.nnz, l.output_ready_at)
        }
    };
    merge.accept(comm, exec, nnz, ready);
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
    let gpus = exec.gpus_available();

    for ph in 0..phases {
        let cols = even_chunk(local_cols, phases, ph);
        let b_phase = if squaring {
            a_local.clone()
        } else {
            Panel::Block(Arc::new(b.matrix().local.column_slice(cols)))
        };
        // Every stage product this phase has the same block shape.
        let shape = (a_local.nrows(), b_phase.ncols());
        let mut merge = MergeEngine::new(cfg, shape, side, sink);
        let next_stage =
            |k: usize, timers: &mut StageTimers, out: &mut PipelineOutcome<S::Elem>| {
                let panels = (&a_local, &b_phase);
                stage(grid, cfg, (ph, k), panels, cf_hint, gpus, timers, out)
            };

        for group in groups(side, cfg.merge) {
            // The previous group's merge runs before this group's products
            // are formed: its lane task goes where it always went, beside
            // the next launch, which it does not touch.
            merge.flush_pending(comm, exec);
            // The group's first stage, then in stage order each next one.
            let mut st = next_stage(group.start, timers, &mut out);
            // A group of at most two stages whose first launch the devices
            // certainly hold is tiled (module docs).
            let admitted = match st.kernel {
                Some(k) if cfg.pipelined && group.len() <= 2 => {
                    exec.admit(comm.now(), k, &st.a, &st.b, &st.fpc)
                }
                _ => None,
            };
            // Any other group runs its launches in stage order, each product
            // built and charged, up to the last.
            let mut built = Vec::with_capacity(group.len() - 1);
            for k in (group.start + 1..group.end).filter(|_| admitted.is_none()) {
                let counts = counters(shape.1);
                let (c, measured_s) = form(s, comm, &st, &counts, Push);
                built.push(c);
                let launch = charge(comm, exec, &st, &counts);
                land(
                    comm,
                    exec,
                    &mut merge,
                    cfg.pipelined,
                    launch,
                    measured_s,
                    timers,
                    &mut out,
                );
                st = next_stage(k, timers, &mut out);
            }
            // One column pass forms the rest of the group into its merge:
            // a tiled group's first product on the spot beside its second,
            // once the host resumed at the first launch's admission and the
            // second's panels arrived.
            let second = admitted.as_ref().and_then(|adm| {
                comm.wait_clock_until(adm.inputs_ready_at());
                (group.len() == 2).then(|| next_stage(group.start + 1, timers, &mut out))
            });
            let counts = [counters(shape.1), counters(shape.1)];
            let spot = second.as_ref().map(|_| Spot {
                a: &*st.a,
                b: &*st.b,
                fpc: &st.fpc[..],
                counts: &counts[0],
            });
            let last = second.as_ref().unwrap_or(&st);
            let tally = Mutex::new(Vec::new());
            let (emit, closing) = merge.group_emit(&group, side, &built, spot, &tally);
            let last_counts = &counts[usize::from(second.is_some())];
            let (formed, measured_s) = form(s, comm, last, last_counts, emit);
            let tally = closing.then(|| tally.into_inner().expect("nothing panics under the lock"));
            merge.formed(formed, tally);
            drop(built);
            // The launches are charged in stage order from the counts the
            // pass noted.
            let launch = match admitted {
                Some(adm) => Some(exec.complete::<S::Elem>(adm, &st.fpc, &counts[0])),
                None => charge(comm, exec, &st, &counts[0]),
            };
            land(
                comm,
                exec,
                &mut merge,
                cfg.pipelined,
                launch,
                measured_s,
                timers,
                &mut out,
            );
            if let Some(two) = second {
                let launch = charge(comm, exec, &two, &counts[1]);
                land(comm, exec, &mut merge, true, launch, 0.0, timers, &mut out);
            }
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
    use crate::merge::Whole;
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
        // the push and the closing merge. Each group's merge formed its
        // result before its lane task.
        let sealed_at = |host: f64| {
            let spans = Universe::run(1, MachineModel::summit(), move |comm| {
                let mut gpus = MultiGpu::new(comm.model().clone(), 1, 1 << 20);
                let mut exec = Executor::new(&mut gpus, comm.model());
                let cfg = SummaConfig::optimized(1 << 30);
                let shape = (4, 5);
                let mut merge = MergeEngine::<PlusTimes<f64>, _>::new(&cfg, shape, 3, &Whole);
                for ready in [1.0, 2.0, 3.0] {
                    merge.formed(panel(), None);
                    merge.accept(&comm, &mut exec, 3, ready);
                }
                merge.formed(panel(), Some(vec![(); 5]));
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
