//! Merging the intermediate products of Sparse SUMMA.
//!
//! Each SUMMA stage `k` produces an intermediate `A_ik · B_kj` for the
//! local output block; the block's final value is their elementwise sum.
//! Two *schedules* decide when merge operations happen:
//!
//! * **Multiway merge** (original HipMCL): hold all `k = √P` lists until
//!   the stages finish, then one `k`-way merge — every intermediate stays
//!   resident and nothing can overlap.
//! * **Binary merge** (§IV, Algorithm 2): push lists as they arrive and
//!   merge on even-numbered stages with a stack whose shape mirrors merge
//!   sort ([`algorithm2_merge_count`]). Work is a `lg lg k` factor worse,
//!   but merges happen *while the next stage computes*, and because early
//!   merges compress duplicates, the largest single merge holds fewer
//!   elements than the multiway merge's all-at-once set (the 15–25 %
//!   peak-memory win of Table III).
//!
//! Each merge operation carries a kernel *label*, a [`MergeKernel`] picked
//! by [`select_merge_kernel`] from the machine model's rate curves
//! ([`MachineModel::merge_time_with`]) for the merge's fan-in and element
//! count, or fixed by [`MergeKernelPolicy::Fixed`]. The label is the rate
//! key a merge's lane task is timed with — heap tournament (original
//! HipMCL), pairwise fold, hash accumulator, BRMerge (arXiv:2206.06611),
//! SpAdd (arXiv:2112.10223) — as the GPU library labels are for a launch.
//! It does not choose the code: every merge runs one algorithm, a left
//! fold of two-cursor merges over its lists in list order.
//!
//! That fold gives what a list-order accumulation gives, bit for bit, in
//! any semiring: after `i` steps a row's value is `v_0 ⊕ v_1 ⊕ … ⊕ v_i`,
//! added in list order with [`Semiring::add`], and an entry whose value is
//! the annihilator ([`Semiring::is_annihilator`]: exactly `0.0` for
//! plus-times, `+∞` for min-plus, `false` for boolean) is dropped. Because
//! the annihilator is `⊕`'s identity, dropping such an entry between two
//! steps leaves every later sum as it would be, so dropping at every step
//! is dropping at the end. The workspace root's `tests/merge_identity.rs`
//! checks every label against a reference in all three semirings.
//!
//! ```
//! use hipmcl_comm::MergeKernel;
//! use hipmcl_sparse::{Csc, PlusTimes};
//! use hipmcl_summa::merge::merge_with;
//!
//! let s = PlusTimes::<f64>::new();
//! let a = Csc::from_parts(2, 2, vec![0, 1, 2], vec![0, 1], vec![1.0, 2.0]);
//! let b = Csc::from_parts(2, 2, vec![0, 1, 2], vec![0, 1], vec![3.0, -2.0]);
//! let want = Csc::from_parts(2, 2, vec![0, 1, 1], vec![0], vec![4.0]);
//! for kernel in MergeKernel::all() {
//!     assert_eq!(merge_with(s, kernel, &[a.clone(), b.clone()], (2, 2)), want);
//! }
//! ```
//!
//! Every merge is a function of one output column at a time, and one step
//! does it, the emit `MergeEmit`: it folds column `j` of its lists and
//! packs the result through its [`ColumnSink`] into a `CscBuilder`,
//! column-parallel on the rank's pool, reserved at what the sink can keep
//! of each column's inputs and trimmed when done. Under [`Whole`], or
//! without a sink, it keeps every column: the merged slab. The pipeline
//! passes a phase's closing merge through its caller's sink, and the
//! distributed prune's sink keeps only what the prune reads, so that slab
//! never exists. The merge that takes a group of a phase's stage products
//! is the emit of the kernel that forms the group's last one, and forms
//! the other on the spot, so no stage product is built either; its lane
//! task is still submitted where a built product's merge would be. A merge
//! of built slabs feeds its last slab's columns to the emit of the others,
//! as a kernel would.
//!
//! Virtual-time accounting does **not** live here: a merge is an
//! [`Executor`](crate::executor::Executor) task, submitted by the pipeline
//! through `Executor::submit_merge` and timed on the executor's worker
//! timelines like any kernel launch. This module only provides the real
//! merging work, the Algorithm 2 schedule, and the [`MergeSpan`] record
//! `submit_merge` returns and the pipeline surfaces per merge.

use hipmcl_comm::{MachineModel, MergeKernel};
use hipmcl_sparse::{Csc, CscBuilder, Idx, PlusTimes, Semiring, Value};
use hipmcl_spgemm::emit::Emit;
use hipmcl_spgemm::hash::{self, HashScratch};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Mutex;

/// Which merging schedule a SUMMA run uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MergeStrategy {
    /// Defer everything, one k-way merge at the end (original HipMCL).
    Multiway,
    /// Algorithm 2: incremental stack merges on even stages.
    Binary,
}

/// How the kernel label of each individual merge operation is chosen.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum MergeKernelPolicy {
    /// Per merge, the label the machine model rates cheapest for the
    /// merge's fan-in and element count ([`select_merge_kernel`]).
    #[default]
    Auto,
    /// One label for every merge (ablations and baselines).
    Fixed(MergeKernel),
}

/// Picks the cheapest merge kernel label for a `ways`-way merge of
/// `total_elems` elements by evaluating the machine model's cost curves
/// ([`MachineModel::merge_time_with`]) — the documented selection rule:
///
/// * fan-in 2–5 → [`MergeKernel::BrMerge`] (the single-pass
///   k-cursor merge's `0.3 · (k − 1)` beats every
///   alternative until the linear min-scan over the cursor heads
///   catches up);
/// * fan-in ≥ 6 with enough elements → [`MergeKernel::SpAdd`]
///   (fan-in-independent accumulation once `lg k` exceeds the SPA's
///   per-element constant, mirroring the SpGEMM heap/hash crossover);
/// * fan-in ≥ 6 with too few elements to amortize the SPA setup →
///   [`MergeKernel::BrMerge`] while its min-scan stays under the heap's
///   `lg k` (through fan-in ~13), [`MergeKernel::Heap`] beyond
///   (cache-resident cursors, no setup).
///
/// [`MergeKernel::Pairwise`] and [`MergeKernel::Hash`] are dominated by
/// their successors at every `(total, ways)` point and are
/// never auto-selected — they survive as `Fixed(...)` ablation baselines.
/// Ties resolve toward the heap (the listed order). The label only keys
/// the modeled rate; every merge runs the same fold.
pub fn select_merge_kernel(model: &MachineModel, total_elems: u64, ways: usize) -> MergeKernel {
    MergeKernel::all()
        .into_iter()
        .min_by(|a, b| {
            model
                .merge_time_with(*a, total_elems, ways)
                .partial_cmp(&model.merge_time_with(*b, total_elems, ways))
                .expect("merge times are finite")
        })
        .expect("at least one kernel")
}

/// One merge operation as it ran on an executor worker timeline — the
/// per-merge observability record surfaced in `SummaOutput::merge_spans`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MergeSpan {
    /// Virtual time the merge started executing on its lane.
    pub start: f64,
    /// Virtual time the merged slab became available.
    pub end: f64,
    /// The kernel label the task is timed with, chosen from its real input
    /// size.
    pub kernel: MergeKernel,
    /// Fan-in (number of lists merged).
    pub ways: usize,
    /// Total input elements passing through the merge.
    pub elems: u64,
    /// Index of the merge lane (socket) it occupied.
    pub lane: usize,
    /// The least-busy lane at submission (the task's origin queue; equals
    /// `lane` unless the placement rule moved the merge).
    pub origin: usize,
    /// Whether the occupying lane took the task from its origin queue.
    pub stolen: bool,
    /// Wall seconds the real merge compute took on the host, sampled
    /// only under `TimeModel::Measured` (`0.0` under `Modeled`, which
    /// never reads the host clock). Independent of the modeled
    /// [`duration`](Self::duration) on the lane.
    pub measured_s: f64,
    /// The modeled duration exactly as charged to the lane (`end − start`
    /// rounds differently, and the stage timers sum this).
    pub(crate) dur: f64,
}

impl MergeSpan {
    /// Modeled seconds the merge occupied its lane, cross-socket penalty
    /// included.
    pub fn duration(&self) -> f64 {
        self.dur
    }
}

// ---------------------------------------------------------------------------
// The merge
// ---------------------------------------------------------------------------

/// What a merge makes of each output column it finishes. The identity
/// sink, [`Whole`], keeps every column. Any other sink packs each column
/// the moment it is merged into storage sized for what it keeps, with a
/// tally of the rest, so the merged slab itself never exists: the
/// pipeline sinks a phase's closing merge this way, and the distributed
/// prune's sink (`topk::PruneSink`) keeps only what the prune reads.
pub trait ColumnSink<T: Value>: Sync {
    /// What the sink records of a column besides the entries it keeps.
    type Tally: Copy + Default + Send;
    /// At most how many entries of an `n`-entry column it keeps, as far as
    /// it knows beforehand — what a packed slab reserves room for.
    fn room(&self, n: usize) -> usize;
    /// Appends what stays of a finished column, `rows` and `vals`, to `out`
    /// with one push, and returns its tally. `scratch` is the worker's.
    fn pack(
        &self,
        rows: &[Idx],
        vals: &[T],
        scratch: &mut Vec<T>,
        out: &mut CscBuilder<T>,
    ) -> Self::Tally;
}

/// The identity sink: every column whole.
#[derive(Clone, Copy, Debug, Default)]
pub struct Whole;

impl<T: Value> ColumnSink<T> for Whole {
    type Tally = ();
    fn room(&self, n: usize) -> usize {
        n
    }
    fn pack(&self, rows: &[Idx], vals: &[T], _: &mut Vec<T>, out: &mut CscBuilder<T>) {
        out.push_column(rows, vals);
    }
}

/// A slab as a sink left it: the entries it kept, and its tally of every
/// column — what the pipeline hands a phase's hook.
#[derive(Debug)]
pub struct Packed<T: Value, A> {
    /// The kept entries, column by column.
    pub cols: Csc<T>,
    /// One tally per column.
    pub tally: Vec<A>,
}

/// What `sink` packs of every column of `m`: the merge of one slab, which
/// adds nothing, so plus-times serves any element type.
pub fn sink_slab<T: Value, K: ColumnSink<T>>(m: &Csc<T>, sink: &K) -> Packed<T, K::Tally>
where
    PlusTimes<T>: Semiring<Elem = T>,
{
    let shape = (m.nrows(), m.ncols());
    merge_into(PlusTimes::<T>::new(), &[m], shape, Some(sink))
}

/// Merges owned matrices in the given semiring — the one public entry. The
/// kernel label is unused: every label runs the same list-order fold
/// (module docs), so no label can change the result.
pub fn merge_with<S: Semiring>(
    s: S,
    _kernel: MergeKernel,
    mats: &[Csc<S::Elem>],
    shape: (usize, usize),
) -> Csc<S::Elem> {
    match mats {
        // A zero-flops phase produces nothing to merge; the configured
        // output shape keeps the pipeline alive instead of panicking.
        [] => Csc::zero(shape.0, shape.1),
        _ => {
            let mats: Vec<&Csc<S::Elem>> = mats.iter().collect();
            merge_into(s, &mats, shape, None::<&Whole>).cols
        }
    }
}

/// Merges `mats` (all of `shape`) one column at a time, each finished
/// column through `sink` (whole without one), and returns what it packed
/// with its tally of every column: the last input's columns go to the
/// [`MergeEmit`] of the others, as a kernel's columns would.
pub(crate) fn merge_into<S: Semiring, K: ColumnSink<S::Elem>>(
    _: S,
    mats: &[&Csc<S::Elem>],
    shape: (usize, usize),
    sink: Option<&K>,
) -> Packed<S::Elem, K::Tally> {
    for mat in mats {
        assert_eq!((mat.nrows(), mat.ncols()), shape, "merge shape mismatch");
    }
    let (last, inputs) = mats.split_last().expect("a merge has an input");
    let tally = Mutex::new(vec![K::Tally::default(); shape.1]);
    let emit = MergeEmit::<S, K>::new(inputs.to_vec(), None, shape.0, sink, &tally);
    let reserve = (0..shape.1).map(|j| emit.room(j, last.col_nnz(j))).sum();
    let cols = CscBuilder::build(shape.0, shape.1, reserve, emit, |emit, j, out| {
        emit.emit(j, last.col_rows(j), last.col_vals(j), out)
    });
    let tally = tally.into_inner().expect("nothing panics under the lock");
    Packed { cols, tally }
}

/// The merge that takes a kernel's product column by column: each column
/// the kernel finishes is merged with column `j` of `inputs`, then of the
/// `spot` stage, which it forms on the spot, then the kernel's column as
/// the last list, and what the sink keeps of the result goes to the
/// kernel's output, with its tally in `tally[j]` — without a sink, the
/// merged column whole. So neither product is built. A column with nothing
/// to merge it with goes to the sink as it is. This is the one column step
/// of every merge: the pipeline hands the merge that takes a group of a
/// phase's stages one of these ([`Emit`]), and [`merge_into`] feeds one a
/// built input's columns. The result is bit-identical either way: a merged
/// column depends on its inputs' columns alone.
pub(crate) struct MergeEmit<'a, S: Semiring, K: ColumnSink<S::Elem>> {
    inputs: Vec<&'a Csc<S::Elem>>,
    spot: Option<Spot<'a, S::Elem>>,
    nrows: usize,
    sink: Option<&'a K>,
    tally: &'a Mutex<Vec<K::Tally>>,
    scratch: ColumnScratch<S::Elem>,
    spare: Vec<S::Elem>,
    table: HashScratch<S::Elem>,
    formed: (Vec<Idx>, Vec<S::Elem>),
}

/// A stage product a [`MergeEmit`] forms column by column as it merges:
/// `A · B` given `fpc = flops_per_column(a, b)`, with each column's length
/// noted in `counts` — what the launch is charged from.
#[derive(Clone, Copy)]
pub(crate) struct Spot<'a, T: Value> {
    pub a: &'a Csc<T>,
    pub b: &'a Csc<T>,
    pub fpc: &'a [u64],
    pub counts: &'a [AtomicUsize],
}

impl<'a, S: Semiring, K: ColumnSink<S::Elem>> MergeEmit<'a, S, K> {
    /// Merges into `sink` (the merged columns whole without one), its
    /// tallies in `tally`, one per column of a product of `nrows` rows.
    pub(crate) fn new(
        inputs: Vec<&'a Csc<S::Elem>>,
        spot: Option<Spot<'a, S::Elem>>,
        nrows: usize,
        sink: Option<&'a K>,
        tally: &'a Mutex<Vec<K::Tally>>,
    ) -> Self {
        Self {
            inputs,
            spot,
            nrows,
            sink,
            tally,
            scratch: ColumnScratch::default(),
            spare: Vec::new(),
            table: HashScratch::default(),
            formed: (Vec::new(), Vec::new()),
        }
    }
}

impl<S: Semiring, K: ColumnSink<S::Elem>> Clone for MergeEmit<'_, S, K> {
    fn clone(&self) -> Self {
        let (inputs, spot) = (self.inputs.clone(), self.spot);
        Self::new(inputs, spot, self.nrows, self.sink, self.tally)
    }
}

impl<S: Semiring, K: ColumnSink<S::Elem>> Emit<S::Elem> for MergeEmit<'_, S, K> {
    fn room(&self, j: usize, bound: usize) -> usize {
        let inputs: usize = self.inputs.iter().map(|m| m.col_nnz(j)).sum();
        let spot = self.spot.map_or(0, |p| (p.fpc[j] as usize).min(self.nrows));
        let n = bound + inputs + spot;
        self.sink.map_or(n, |k| k.room(n))
    }

    fn emit(&mut self, j: usize, rows: &[Idx], vals: &[S::Elem], out: &mut CscBuilder<S::Elem>) {
        let (f_rows, f_vals) = (&mut self.formed.0, &mut self.formed.1);
        let spot: View<S::Elem> = match self.spot {
            None => (&[], &[]),
            Some(p) => {
                let rows = match hash::shared_column(S::default(), p.a, p.b, j, f_vals) {
                    Some(shared) => shared,
                    None => {
                        let table = &mut self.table;
                        table.open((p.fpc[j] as usize).min(self.nrows), self.nrows);
                        hash::accumulate(S::default(), table, p.a, p.b, j);
                        f_rows.resize(table.len(), 0);
                        f_vals.resize(table.len(), S::Elem::default());
                        table.drain_sorted_into(j, f_rows, f_vals);
                        f_rows
                    }
                };
                p.counts[j].store(rows.len(), Relaxed);
                (rows, f_vals)
            }
        };
        let (kernel_col, both) = ((rows, vals), [spot, (rows, vals)]);
        let last: &[View<S::Elem>] = match self.spot {
            Some(_) => &both,
            None => std::slice::from_ref(&kernel_col),
        };
        let (rows, vals) = match (self.inputs.is_empty(), last) {
            (true, [only]) => *only,
            _ => {
                let w = &mut self.scratch;
                let n = merge_column::<S>(&self.inputs, j, last, w);
                (&w.rows[..n], &w.vals[..n])
            }
        };
        match self.sink {
            Some(sink) => {
                let tally = sink.pack(rows, vals, &mut self.spare, out);
                self.tally.lock().expect("nothing panics under the lock")[j] = tally;
            }
            None => out.push_column(rows, vals),
        }
    }
}

/// K-way merges equally-shaped CSC matrices (kept as a named entry point:
/// the benches call it directly). An empty slice returns an empty matrix
/// of `shape`.
pub fn kway_merge(mats: &[Csc<f64>], shape: (usize, usize)) -> Csc<f64> {
    merge_with(PlusTimes::<f64>::new(), MergeKernel::Heap, mats, shape)
}

/// One worker's buffers for merging one column at a time: the column being
/// assembled and the fold's second buffer, which swap at every step.
#[derive(Clone, Default)]
struct ColumnScratch<T: Value> {
    rows: Vec<Idx>,
    vals: Vec<T>,
    spare: (Vec<Idx>, Vec<T>),
}

/// One input column of a merge: its rows and their values.
type View<'a, T> = (&'a [Idx], &'a [T]);

/// Grows `rows` and `vals` to at least `n` entries (never shrinks).
fn grow<T: Value>(rows: &mut Vec<Idx>, vals: &mut Vec<T>, n: usize) {
    if rows.len() < n {
        rows.resize(n, 0);
        vals.resize(n, T::default());
    }
}

/// Merges column `j` of `mats`, then the columns `last`, as the lists of
/// one merge (fan-in ≥ 2) into `w.rows`/`w.vals`, and returns how many
/// entries it has: a left fold of two-cursor merges in list order, so a
/// row's value accumulates `v_0 ⊕ v_1 ⊕ …` in list order (module docs).
fn merge_column<S: Semiring>(
    mats: &[&Csc<S::Elem>],
    j: usize,
    last: &[View<'_, S::Elem>],
    w: &mut ColumnScratch<S::Elem>,
) -> usize {
    let mut cols = mats
        .iter()
        .map(|m| (m.col_rows(j), m.col_vals(j)))
        .chain(last.iter().copied());
    let ub = cols.clone().map(|c| c.0.len()).sum();
    let (Some(first), Some(second)) = (cols.next(), cols.next()) else {
        panic!("a merge has fan-in >= 2");
    };
    grow(&mut w.rows, &mut w.vals, ub);
    let mut n = merge_two_cursors::<S>(first, second, &mut w.rows, &mut w.vals);
    for col in cols {
        let (rows, vals) = &mut w.spare;
        grow(rows, vals, ub);
        n = merge_two_cursors::<S>((&w.rows[..n], &w.vals[..n]), col, rows, vals);
        std::mem::swap(&mut w.rows, rows);
        std::mem::swap(&mut w.vals, vals);
    }
    n
}

/// Writes `(r, v)` at cursor `w` of `rows`/`vals` and advances it, unless
/// `v` is the annihilator — the drop rule.
#[inline]
fn put<S: Semiring>(rows: &mut [Idx], vals: &mut [S::Elem], w: &mut usize, r: Idx, v: S::Elem) {
    if !S::is_annihilator(v) {
        rows[*w] = r;
        vals[*w] = v;
        *w += 1;
    }
}

/// Two-cursor column merge of `a` then `b` into `rows`/`vals`, returning
/// its length — the step of the fold. A coincident row adds `a`'s value
/// then `b`'s.
#[inline]
fn merge_two_cursors<S: Semiring>(
    (ar, av): (&[Idx], &[S::Elem]),
    (br, bv): (&[Idx], &[S::Elem]),
    rows: &mut [Idx],
    vals: &mut [S::Elem],
) -> usize {
    // Length equalities let the compiler collapse the paired row/val
    // bounds checks in the scan loops below.
    assert_eq!(ar.len(), av.len());
    assert_eq!(br.len(), bv.len());
    assert_eq!(rows.len(), vals.len());
    let mut w = 0usize;
    let (mut i, mut k) = (0, 0);
    // On a strict inequality the leading cursor's whole run below the
    // other head is emitted by a fused linear scan-and-copy: the
    // compare that detects the run end is the compare the copy loop
    // would do anyway, and the stream stays prefetch-friendly (a
    // binary search for the run end adds serially-dependent loads for
    // no saved work, since every element is touched by the copy).
    // Each element still passes the annihilator drop rule.
    while i < ar.len() && k < br.len() {
        match ar[i].cmp(&br[k]) {
            std::cmp::Ordering::Less => {
                let b = br[k];
                while i < ar.len() && ar[i] < b {
                    put::<S>(rows, vals, &mut w, ar[i], av[i]);
                    i += 1;
                }
            }
            std::cmp::Ordering::Greater => {
                let a = ar[i];
                while k < br.len() && br[k] < a {
                    put::<S>(rows, vals, &mut w, br[k], bv[k]);
                    k += 1;
                }
            }
            std::cmp::Ordering::Equal => {
                put::<S>(rows, vals, &mut w, ar[i], S::add(av[i], bv[k]));
                i += 1;
                k += 1;
            }
        }
    }
    while i < ar.len() {
        put::<S>(rows, vals, &mut w, ar[i], av[i]);
        i += 1;
    }
    while k < br.len() {
        put::<S>(rows, vals, &mut w, br[k], bv[k]);
        k += 1;
    }
    w
}

// ---------------------------------------------------------------------------
// Statistics, Algorithm 2 schedule and the stack merger
// ---------------------------------------------------------------------------

/// Statistics of a merging run, feeding Table III and the §VII-C text.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MergeStats {
    /// Largest element count over single merge operations — the peak
    /// memory proxy of Table III.
    pub peak_merge_elems: usize,
    /// Total elements passed through merge operations (work proxy).
    pub total_merged_elems: u64,
    /// Number of merge operations performed.
    pub merge_ops: usize,
    /// Virtual seconds of merge-lane occupancy (the sum of the merge
    /// spans' durations — merges no longer run on a private clock).
    pub merge_time: f64,
    /// Virtual seconds the host blocked on merge completion events.
    pub wait_time: f64,
    /// Wall seconds of real merge compute, summed over the spans'
    /// `measured_s` (zero under `TimeModel::Modeled`).
    pub measured_merge_s: f64,
}

impl MergeStats {
    /// Folds another accumulation into this one: peaks take the max,
    /// everything else adds (one phase's stats absorbed into a run's).
    pub fn absorb(&mut self, other: &MergeStats) {
        self.peak_merge_elems = self.peak_merge_elems.max(other.peak_merge_elems);
        self.total_merged_elems += other.total_merged_elems;
        self.merge_ops += other.merge_ops;
        self.merge_time += other.merge_time;
        self.wait_time += other.wait_time;
        self.measured_merge_s += other.measured_merge_s;
    }
}

/// Algorithm 2's merge trigger: after the `pushed`-th push (1-indexed),
/// how many top-of-stack entries merge. Zero on odd pushes; on even
/// pushes one more than the number of trailing doublings (`pushed = 2^a·b`
/// with `b` odd merges `a + 1` entries), so the stack mirrors merge sort.
pub fn algorithm2_merge_count(pushed: usize) -> usize {
    let mut n = 0usize;
    let mut j = pushed;
    while j != 0 && j.is_multiple_of(2) {
        n += 1;
        j /= 2;
    }
    if n == 0 {
        0
    } else {
        n + 1
    }
}

/// Clock-free Algorithm 2 stack merger: real merging work and element
/// statistics (`peak_merge_elems`, `total_merged_elems`, `merge_ops`)
/// with **no** time accounting — timing belongs to the executor layer.
/// Used by the ablation/bench harnesses; the pipeline drives the same
/// schedule through `Executor::submit_merge` instead. Every merge writes
/// a fresh `Csc` and frees its inputs.
pub struct StackMerger {
    shape: (usize, usize),
    stack: Vec<Csc<f64>>,
    pushed: usize,
    stats: MergeStats,
}

impl StackMerger {
    /// New merger for slabs of the given shape. The model and the label
    /// policy are unused: no durations are charged, and every label runs
    /// the same fold.
    pub fn new(_: MachineModel, _: MergeKernelPolicy, shape: (usize, usize)) -> Self {
        Self {
            shape,
            stack: Vec::new(),
            pushed: 0,
            stats: MergeStats::default(),
        }
    }

    /// Pushes the next stage's slab, running any merges Algorithm 2
    /// triggers.
    pub fn push(&mut self, slab: Csc<f64>) {
        self.stack.push(slab);
        self.pushed += 1;
        let count = algorithm2_merge_count(self.pushed);
        if count > 0 {
            self.merge_top(count);
        }
    }

    /// Final merge of whatever remains; empty input yields an empty
    /// matrix of the configured shape. Also resets the Algorithm 2 push
    /// counter, so the merger can be reused for the next phase's stack.
    pub fn finish(&mut self) -> Csc<f64> {
        if self.stack.len() > 1 {
            self.merge_top(self.stack.len());
        }
        self.pushed = 0;
        self.stack
            .pop()
            .unwrap_or_else(|| Csc::zero(self.shape.0, self.shape.1))
    }

    fn merge_top(&mut self, count: usize) {
        let s = PlusTimes::<f64>::new();
        let at = self.stack.len() - count;
        let tail = self.stack.split_off(at);
        let elems: usize = tail.iter().map(Csc::nnz).sum();
        self.stats.peak_merge_elems = self.stats.peak_merge_elems.max(elems);
        self.stats.total_merged_elems += elems as u64;
        self.stats.merge_ops += 1;
        let tail: Vec<&Csc<f64>> = tail.iter().collect();
        let merged = merge_into(s, &tail, self.shape, None::<&Whole>).cols;
        self.stack.push(merged);
    }

    /// Accumulated element statistics (time fields stay zero).
    pub fn stats(&self) -> MergeStats {
        self.stats
    }

    /// Number of slabs currently on the stack.
    pub fn stack_len(&self) -> usize {
        self.stack.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipmcl_spgemm::testutil::random_csc;

    #[test]
    fn merge_stats_absorb_maxes_peak_and_sums_rest() {
        let mut a = MergeStats {
            peak_merge_elems: 10,
            total_merged_elems: 100,
            merge_ops: 3,
            merge_time: 1.0,
            wait_time: 0.5,
            measured_merge_s: 0.125,
        };
        let b = MergeStats {
            peak_merge_elems: 7,
            total_merged_elems: 50,
            merge_ops: 2,
            merge_time: 0.25,
            wait_time: 1.5,
            measured_merge_s: 0.375,
        };
        a.absorb(&b);
        assert_eq!(a.peak_merge_elems, 10, "peak takes the max");
        assert_eq!(a.total_merged_elems, 150);
        assert_eq!(a.merge_ops, 5);
        assert_eq!(a.merge_time, 1.25);
        assert_eq!(a.wait_time, 2.0);
        assert_eq!(a.measured_merge_s, 0.5);
        // Larger incoming peak wins.
        a.absorb(&MergeStats {
            peak_merge_elems: 99,
            ..MergeStats::default()
        });
        assert_eq!(a.peak_merge_elems, 99);
    }

    fn slabs(n: usize, count: usize) -> Vec<Csc<f64>> {
        (0..count)
            .map(|i| random_csc(n, n, n * 3, 100 + i as u64))
            .collect()
    }

    fn reference_sum(mats: &[Csc<f64>]) -> Csc<f64> {
        mats.iter()
            .skip(1)
            .fold(mats[0].clone(), |acc, m| acc.add_elementwise(m))
    }

    #[test]
    fn kway_merge_matches_elementwise_sum() {
        // Fan-in 20: wider than any grid side the workloads run.
        for k in [1usize, 2, 3, 4, 5, 7, 8, 20] {
            let mats = slabs(12, k);
            let got = kway_merge(&mats, (12, 12));
            got.assert_valid();
            let want = reference_sum(&mats);
            assert!(got.max_abs_diff(&want) < 1e-9, "k={k}");
            assert_eq!(got.nnz(), want.nnz(), "k={k}");
        }
    }

    #[test]
    fn selection_rule_follows_model_crossovers() {
        let m = MachineModel::summit();
        // Fan-in 2–5: the single-pass k-cursor merge.
        for ways in [2usize, 3, 4, 5] {
            assert_eq!(select_merge_kernel(&m, 100_000, ways), MergeKernel::BrMerge);
        }
        // Fan-in ≥ 6 with enough elements: the parallel SpAdd.
        assert_eq!(select_merge_kernel(&m, 100_000, 6), MergeKernel::SpAdd);
        assert_eq!(select_merge_kernel(&m, 100_000, 16), MergeKernel::SpAdd);
        // A tiny merge cannot amortize the SPA setup: the setup-free
        // cursor kernels take over — brmerge while its min-scan stays
        // under lg k, the heap at very high fan-in.
        assert_eq!(select_merge_kernel(&m, 100, 8), MergeKernel::BrMerge);
        assert_eq!(select_merge_kernel(&m, 100, 16), MergeKernel::Heap);
        // The legacy pairwise/hash baselines are never auto-selected.
        for total in [100u64, 10_000, 1_000_000] {
            for ways in [2usize, 3, 4, 8, 16] {
                let k = select_merge_kernel(&m, total, ways);
                assert!(
                    k != MergeKernel::Pairwise && k != MergeKernel::Hash,
                    "dominated kernel {k:?} selected at total={total} ways={ways}"
                );
            }
        }
    }

    #[test]
    fn algorithm2_schedule_matches_paper() {
        // Pushes 2,4,6,8 trigger merges of 2,3,2,4 lists respectively.
        let counts: Vec<usize> = (1..=8).map(algorithm2_merge_count).collect();
        assert_eq!(counts, vec![0, 2, 0, 3, 0, 2, 0, 4]);
    }

    #[test]
    fn stack_merger_follows_algorithm2_and_matches_sum() {
        for k in [1usize, 2, 3, 4, 5, 8] {
            let mats = slabs(10, k);
            let want = reference_sum(&mats);
            let mut sm =
                StackMerger::new(MachineModel::summit(), MergeKernelPolicy::Auto, (10, 10));
            let mut ops = Vec::new();
            for m in &mats {
                let before = sm.stats().merge_ops;
                sm.push(m.clone());
                if sm.stats().merge_ops > before {
                    ops.push(sm.pushed);
                }
            }
            if k == 8 {
                assert_eq!(ops, vec![2, 4, 6, 8]);
                assert_eq!(sm.stack_len(), 1, "8 = 2^3 collapses to one slab");
            }
            let got = sm.finish();
            assert!(got.max_abs_diff(&want) < 1e-9, "k={k}");
        }
    }

    #[test]
    fn stack_merger_empty_finish_returns_zero_shape() {
        let mut sm = StackMerger::new(MachineModel::summit(), MergeKernelPolicy::Auto, (5, 6));
        let out = sm.finish();
        assert_eq!((out.nrows(), out.ncols(), out.nnz()), (5, 6, 0));
    }

    #[test]
    fn binary_peak_memory_beats_multiway_on_overlapping_slabs() {
        // Heavily overlapping patterns: early merges compress, so the
        // binary scheme's largest merge holds fewer elements (Table III).
        let base = random_csc(40, 40, 600, 42);
        let mats: Vec<Csc<f64>> = (0..8)
            .map(|i| {
                let mut m = base.clone();
                for v in &mut m.vals {
                    *v += i as f64 * 0.01;
                }
                m
            })
            .collect();

        let multiway_peak: usize = mats.iter().map(Csc::nnz).sum();
        let mut sm = StackMerger::new(MachineModel::summit(), MergeKernelPolicy::Auto, (40, 40));
        for m in &mats {
            sm.push(m.clone());
        }
        let _ = sm.finish();
        assert!(
            sm.stats().peak_merge_elems < multiway_peak,
            "binary {} vs multiway {}",
            sm.stats().peak_merge_elems,
            multiway_peak
        );
    }
}
