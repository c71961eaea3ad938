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
//! Orthogonally, each individual merge *operation* runs one of five
//! kernels, selected per merge by [`select_merge_kernel`], which
//! evaluates [`MachineModel::merge_time_with`] for the merge's fan-in and
//! element count (the merge-side analogue of the `cf`-based SpGEMM kernel
//! selector):
//!
//! * [`MergeKernel::Heap`] / [`MergeKernel::Pairwise`] /
//!   [`MergeKernel::Hash`] — the original trio, each materializing a
//!   fresh [`Csc`] per merge op (kept as ablation baselines);
//! * [`MergeKernel::BrMerge`] — BRMerge-style single-pass k-cursor
//!   merge (arXiv:2206.06611) appending into a reusable [`SlabBuf`]
//!   checked out of a [`MergeArena`]: per-column upper bounds are
//!   prefix-summed to carve disjoint per-thread regions, columns merge
//!   in parallel (two cursors at fan-in 2, a register-resident min-scan
//!   over k cursor heads above) writing compactly at each region's
//!   cursor, and the result stays staged until materialization — no
//!   per-op allocation or compaction pass;
//! * [`MergeKernel::SpAdd`] — Hussain-style parallel SpAdd
//!   (arXiv:2112.10223): contiguous per-thread column partitions, each
//!   thread accumulating through an epoch-stamped dense sparse
//!   accumulator (`SpaScratch`) sized from the column-nnz upper bracket,
//!   also writing into arena slack.
//!
//! All five produce **bit-identical** output: they accumulate coincident
//! entries strictly in list order with the semiring's `⊕` and drop
//! entries whose final value is the semiring's annihilator (exactly `0.0`
//! for plus-times, `+∞` for min-plus, `false` for boolean), so kernel
//! choice can never change a result — in any semiring (property-tested
//! for plus-times, min-plus and boolean in the workspace root's
//! `tests/merge_identity.rs`). [`merge_with`] is the one entry for all
//! five; [`StackMerger`] and the pipeline reach them through the same
//! crate-private dispatch with a persistent arena:
//!
//! ```
//! use hipmcl_comm::MergeKernel;
//! use hipmcl_sparse::{Csc, PlusTimes};
//! use hipmcl_summa::merge::merge_with;
//!
//! let s = PlusTimes::<f64>::new();
//! let a = Csc::from_parts(2, 2, vec![0, 1, 2], vec![0, 1], vec![1.0, 2.0]);
//! let b = Csc::from_parts(2, 2, vec![0, 2, 2], vec![0, 1], vec![3.0, 4.0]);
//! let want = merge_with(s, MergeKernel::Heap, &[a.clone(), b.clone()], (2, 2));
//! for kernel in MergeKernel::all() {
//!     assert_eq!(merge_with(s, kernel, &[a.clone(), b.clone()], (2, 2)), want);
//! }
//! ```
//!
//! The arena lifecycle: [`MergeArena`] owns a free list of [`SlabBuf`]s
//! plus the shared prefix/count/SPA scratch; every merge within a phase
//! checks a buffer out ([`MergeArena::acquire`]) and returns consumed
//! arena inputs ([`MergeArena::release`]), so a phase's intermediate
//! merges (fan-in above two stages: 3×3 grids and up) recycle buffers.
//! The phase's *final* merged slab is not copied out of its buffer: the
//! buffer becomes the [`Csc`] ([`SlabBuf::into_csc`], compacted in place
//! and trimmed) and leaves the arena for good, so the arena never holds
//! a buffer idle while its content lives on elsewhere. Unless the phase's
//! closing merge has a [`ColumnSink`] other than [`Whole`]: then it writes
//! no slab at all, only what the sink packs of each column. The pipeline holds
//! one arena per rank, created once per SUMMA run — the executor's merge
//! lanes are *modeled* sockets that price a merge's placement, not places
//! the host keeps buffers.
//!
//! Virtual-time accounting does **not** live here: a merge is an
//! [`Executor`](crate::executor::Executor) task, submitted by the pipeline
//! through `Executor::submit_merge` and timed on the executor's worker
//! timelines like any kernel launch. This module only provides the real
//! merging work, the Algorithm 2 schedule, and the [`MergeSpan`] record
//! `submit_merge` returns and the pipeline surfaces per merge.

use hipmcl_comm::{MachineModel, MergeKernel};
use hipmcl_sparse::util::Tournament;
use hipmcl_sparse::{Csc, CscBuilder, Idx, PlusTimes, Semiring, Value};
use rayon::prelude::*;
use std::sync::Mutex;

/// Which merging schedule a SUMMA run uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MergeStrategy {
    /// Defer everything, one k-way merge at the end (original HipMCL).
    Multiway,
    /// Algorithm 2: incremental stack merges on even stages.
    Binary,
}

/// How the kernel of each individual merge operation is chosen.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum MergeKernelPolicy {
    /// Per merge, pick the kernel the machine model rates cheapest for
    /// the merge's fan-in and element count ([`select_merge_kernel`]).
    #[default]
    Auto,
    /// Force one kernel for every merge (ablations and baselines).
    Fixed(MergeKernel),
}

/// Picks the cheapest merge kernel for a `ways`-way merge of
/// `total_elems` elements by evaluating the machine model's cost curves
/// ([`MachineModel::merge_time_with`]) — the documented selection rule:
///
/// * fan-in 2–5 → [`MergeKernel::BrMerge`] (the arena-backed
///   single-pass k-cursor merge's `0.3 · (k − 1)` beats every
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
/// their arena-backed successors at every `(total, ways)` point and are
/// never auto-selected — they survive as `Fixed(...)` ablation baselines.
/// Ties resolve toward the heap (the listed order).
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
    /// The kernel that ran it.
    pub kernel: MergeKernel,
    /// Fan-in (number of lists merged).
    pub ways: usize,
    /// Total input elements passing through the merge.
    pub elems: u64,
    /// Index of the worker lane (socket) it occupied.
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
// Column views and arena buffers
// ---------------------------------------------------------------------------

/// A borrowed CSC-shaped column view — the common input face of every
/// merge kernel, constructible from both an owned [`Csc`] and an
/// arena-resident [`SlabBuf`], so one kernel implementation serves the
/// materialized and the arena paths alike.
#[derive(Clone, Copy)]
pub struct ColsRef<'a, T: Value> {
    nrows: usize,
    nnz: usize,
    /// Column `j` spans `start[j]..end[j]` of `rowidx`/`vals`: the two
    /// overlapping windows of `colptr` for an owned [`Csc`], the staged
    /// runs (slack between chunks) for a [`SlabBuf`].
    start: &'a [usize],
    end: &'a [usize],
    rowidx: &'a [Idx],
    vals: &'a [T],
}

impl<'a, T: Value> ColsRef<'a, T> {
    /// Views an owned CSC matrix.
    pub fn of(m: &'a Csc<T>) -> Self {
        Self {
            nrows: m.nrows(),
            nnz: m.nnz(),
            start: &m.colptr[..m.ncols()],
            end: &m.colptr[1..],
            rowidx: &m.rowidx,
            vals: &m.vals,
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.start.len()
    }

    /// Stored entries.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Where column `j`'s entries live in `rowidx`/`vals`.
    #[inline]
    fn col_span(&self, j: usize) -> (usize, usize) {
        (self.start[j], self.end[j])
    }

    /// Stored entries in column `j`.
    pub fn col_nnz(&self, j: usize) -> usize {
        let (lo, hi) = self.col_span(j);
        hi - lo
    }

    /// Row indices of column `j`.
    pub fn col_rows(&self, j: usize) -> &'a [Idx] {
        let (lo, hi) = self.col_span(j);
        &self.rowidx[lo..hi]
    }

    /// Values of column `j`.
    pub fn col_vals(&self, j: usize) -> &'a [T] {
        let (lo, hi) = self.col_span(j);
        &self.vals[lo..hi]
    }

    /// Materializes the view as an owned (compact) CSC matrix.
    pub fn to_csc(&self) -> Csc<T> {
        let mut colptr = Vec::with_capacity(self.ncols() + 1);
        colptr.push(0);
        let mut rowidx = Vec::with_capacity(self.nnz);
        let mut vals = Vec::with_capacity(self.nnz);
        for j in 0..self.ncols() {
            rowidx.extend_from_slice(self.col_rows(j));
            vals.extend_from_slice(self.col_vals(j));
            colptr.push(rowidx.len());
        }
        Csc::from_parts(self.nrows, self.ncols(), colptr, rowidx, vals)
    }
}

/// A **staged** CSC-shaped buffer owned by a [`MergeArena`]: the output
/// of an arena-backed merge. Each column is sorted, deduplicated and
/// annihilator-free like a [`Csc`] column, but lives at an explicit
/// span (`start[j]..end[j]`) rather than at a prefix-sum
/// position: merge kernels write each parallel chunk's columns
/// compactly from the chunk's base, leaving gaps only *between* chunks
/// (none at all single-threaded). A merge never pays a compaction pass
/// just so the next merge can read it — downstream kernels consume the
/// staged layout directly through [`SlabBuf::as_cols`], and the single
/// compaction happens at materialization ([`SlabBuf::into_csc`]). A
/// buffer released to its arena keeps its length and capacity (raw
/// storage; stale tails are unreachable because `start`/`end` are
/// re-recorded per merge) and serves the next merge it is long enough
/// for without being reallocated or re-zeroed.
#[derive(Debug, Default)]
pub struct SlabBuf<T: Value> {
    nrows: usize,
    ncols: usize,
    nnz: usize,
    start: Vec<usize>,
    end: Vec<usize>,
    rowidx: Vec<Idx>,
    vals: Vec<T>,
}

impl<T: Value> SlabBuf<T> {
    /// Stored entries (excluding staging slack).
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Views the buffer's columns (the merge-kernel input face).
    pub fn as_cols(&self) -> ColsRef<'_, T> {
        ColsRef {
            nrows: self.nrows,
            nnz: self.nnz,
            start: &self.start,
            end: &self.end,
            rowidx: &self.rowidx,
            vals: &self.vals,
        }
    }

    /// Makes the raw storage at least `ub` elements long. A recycled
    /// buffer that is long enough is used as it is (stale content is
    /// unreachable and overwritten per run); otherwise the storage is
    /// obtained zeroed from the allocator. That costs only address space
    /// while glibc maps the block fresh, which it does above its mmap
    /// threshold — and that threshold rises (to 32 MiB) once a large block
    /// is freed. Below it, `calloc` clears reused heap memory, so every
    /// page of the upper bound becomes resident, written by the merge or
    /// not. A sunk merge ([`ColumnSink`]) never asks for one.
    fn ensure_len(&mut self, ub: usize) {
        if self.rowidx.len() < ub {
            // The short storage goes before its replacement comes.
            (self.rowidx, self.vals) = (Vec::new(), Vec::new());
            self.rowidx = vec![Idx::default(); ub];
            self.vals = vec![T::default(); ub];
        }
    }

    /// Records the staged layout after a merge: column `j`'s run of
    /// `counts[j]` entries sits at offset `ub[j]`. Copies the slices —
    /// they are arena scratch the next merge is free to clobber.
    fn set_staged(&mut self, ub: &[usize], counts: &[usize]) {
        self.start.clear();
        self.start.extend_from_slice(ub);
        self.end.clear();
        self.end.extend(ub.iter().zip(counts).map(|(s, c)| s + c));
        self.nnz = counts.iter().sum();
    }

    /// Copies the contents out as an owned, exactly-sized CSC matrix,
    /// leaving the buffer (and its capacity) intact for reuse — how a
    /// test or a probe looks at a staged buffer it goes on merging from.
    pub fn to_csc(&self) -> Csc<T> {
        self.as_cols().to_csc()
    }

    /// Consumes the buffer into a CSC matrix, compacting the staged runs
    /// in place (safe left-to-right: the write cursor never passes a
    /// run's staged start, since `Σ (end − start)[<j] ≤ start[j]`) and
    /// trimming the slack — how a merged slab leaves its arena: the
    /// matrix owns the storage the merge wrote, nothing is copied out
    /// and nothing stays behind.
    pub fn into_csc(mut self) -> Csc<T> {
        let mut colptr = Vec::with_capacity(self.ncols + 1);
        colptr.push(0);
        let mut w = 0usize;
        for j in 0..self.ncols {
            let (s, c) = (self.start[j], self.end[j] - self.start[j]);
            if s != w && c > 0 {
                self.rowidx.copy_within(s..s + c, w);
                self.vals.copy_within(s..s + c, w);
            }
            w += c;
            colptr.push(w);
        }
        self.rowidx.truncate(w);
        self.vals.truncate(w);
        self.rowidx.shrink_to_fit();
        self.vals.shrink_to_fit();
        Csc::from_parts(self.nrows, self.ncols, colptr, self.rowidx, self.vals)
    }
}

/// Per-thread scratch of the parallel SpAdd kernel: an epoch-stamped
/// dense sparse accumulator (SPA). `stamp[r] == epoch` marks row `r` as
/// live in the current column with its entry at `pairs[slot[r]]`;
/// bumping `epoch` clears the whole SPA in O(1). All three vectors are
/// reused across columns, merges and phases.
#[derive(Clone, Debug, Default)]
struct SpaScratch<T: Value> {
    stamp: Vec<u32>,
    slot: Vec<u32>,
    epoch: u32,
    pairs: Vec<(Idx, T)>,
}

impl<T: Value> SpaScratch<T> {
    /// Grows the dense arrays to cover `nrows` rows (never shrinks).
    fn ensure_rows(&mut self, nrows: usize) {
        if self.stamp.len() < nrows {
            self.stamp.resize(nrows, 0);
            self.slot.resize(nrows, 0);
        }
    }

    /// Opens a new column: O(1) clear via epoch bump, with a full reset
    /// at the (astronomically rare) wraparound.
    fn begin_column(&mut self) {
        if self.epoch == u32::MAX {
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.pairs.clear();
    }
}

/// Reusable merge scratch for one rank: a free list of
/// [`SlabBuf`]s plus the shared per-merge scratch (column upper-bound
/// prefix, per-column counts, per-thread SPAs). Acquire/release is LIFO.
/// What the free list holds are the buffers of a phase's *consumed*
/// intermediate merges — a merged slab that is materialized takes its
/// buffer with it — and none of them exceeds twice the largest single
/// merge ([`MergeArena::assert_no_capacity_leak`], debug-asserted on
/// every release). A merge that finds no parked buffer long enough gets
/// storage zeroed by the allocator, which under glibc's defaults is as
/// resident as its upper bound is long ([`SlabBuf`]'s `ensure_len`).
///
/// ```
/// use hipmcl_summa::merge::MergeArena;
///
/// let mut arena: MergeArena<f64> = MergeArena::new();
/// let a = arena.acquire((4, 4));
/// arena.release(a);
/// // The released buffer is recycled, not reallocated.
/// assert_eq!(arena.free_bufs(), 1);
/// let _b = arena.acquire((4, 4));
/// assert_eq!(arena.free_bufs(), 0);
/// ```
#[derive(Debug, Default)]
pub struct MergeArena<T: Value> {
    free: Vec<SlabBuf<T>>,
    ub: Vec<usize>,
    starts: Vec<usize>,
    counts: Vec<usize>,
    spa: Vec<SpaScratch<T>>,
    peak_request: usize,
}

impl<T: Value> MergeArena<T> {
    /// An empty arena; everything is grown lazily by the first merges.
    pub fn new() -> Self {
        Self::default()
    }

    /// Checks a buffer out of the free list (or creates an empty one),
    /// shaped for a `shape` output. A recycled buffer's `rowidx`/`vals`
    /// keep their *length*: they are raw storage the kernels overwrite
    /// per run (stale content is unreachable — reads go through
    /// `start`/`end`, which are reset here).
    pub fn acquire(&mut self, shape: (usize, usize)) -> SlabBuf<T> {
        let mut buf = self.free.pop().unwrap_or_default();
        buf.nrows = shape.0;
        buf.ncols = shape.1;
        buf.nnz = 0;
        buf.start.clear();
        buf.end.clear();
        buf
    }

    /// Returns a consumed buffer to the free list for reuse. In debug
    /// builds this asserts the no-capacity-leak invariant: amortized
    /// `Vec` growth bounds every buffer by twice the largest single
    /// merge request this arena ever served.
    pub fn release(&mut self, buf: SlabBuf<T>) {
        debug_assert!(
            buf.rowidx.capacity() <= self.capacity_bound(),
            "arena buffer capacity {} leaked past the 2×peak bound {}",
            buf.rowidx.capacity(),
            self.capacity_bound(),
        );
        self.free.push(buf);
    }

    /// Largest upper-bound element count any single merge requested from
    /// this arena — the capacity high-water mark the no-leak invariant
    /// is phrased against.
    pub fn peak_request(&self) -> usize {
        self.peak_request
    }

    /// Number of buffers currently parked in the free list.
    pub fn free_bufs(&self) -> usize {
        self.free.len()
    }

    /// Largest element capacity held by any parked buffer.
    pub fn capacity_elems(&self) -> usize {
        self.free
            .iter()
            .map(|b| b.rowidx.capacity())
            .max()
            .unwrap_or(0)
    }

    /// The bound the no-leak invariant allows: amortized doubling means
    /// a `Vec` grown only by requests `≤ peak` stays `< 2 · peak` (with
    /// a small floor for tiny arenas).
    fn capacity_bound(&self) -> usize {
        2 * self.peak_request.max(32)
    }

    /// Asserts (in all build profiles) that no parked buffer or scratch
    /// vector outgrew the 2×-peak bound — reuse across phases must not
    /// ratchet capacity. The pipeline debug-asserts this after every
    /// phase drain; tests call it directly.
    pub fn assert_no_capacity_leak(&self) {
        let bound = self.capacity_bound();
        for b in &self.free {
            assert!(
                b.rowidx.capacity() <= bound && b.vals.capacity() <= bound,
                "parked buffer capacity {} exceeds 2×peak bound {}",
                b.rowidx.capacity().max(b.vals.capacity()),
                bound
            );
        }
        for s in &self.spa {
            assert!(
                s.pairs.capacity() <= bound,
                "SPA pair capacity {} exceeds 2×peak bound {}",
                s.pairs.capacity(),
                bound
            );
        }
    }
}

/// A slab on a merge stack: either a stage product still in its
/// materialized [`Csc`] form (as produced by the SpGEMM kernels) or an
/// arena-resident [`SlabBuf`] written by a previous arena-backed merge.
/// Both expose the same [`ColsRef`] face to the kernels.
#[derive(Debug)]
pub enum MergeSlab<T: Value> {
    /// An owned, exactly-sized CSC matrix.
    Mat(Csc<T>),
    /// An arena buffer with slack capacity, to be released after use.
    Buf(SlabBuf<T>),
}

impl<T: Value> MergeSlab<T> {
    /// Stored entries.
    pub fn nnz(&self) -> usize {
        match self {
            MergeSlab::Mat(m) => m.nnz(),
            MergeSlab::Buf(b) => b.nnz(),
        }
    }

    /// The kernels' input view.
    pub fn as_cols(&self) -> ColsRef<'_, T> {
        match self {
            MergeSlab::Mat(m) => ColsRef::of(m),
            MergeSlab::Buf(b) => b.as_cols(),
        }
    }

    /// Materializes into an owned CSC. An arena buffer becomes the
    /// matrix ([`SlabBuf::into_csc`]) and does not return to its arena.
    pub fn into_csc(self) -> Csc<T> {
        match self {
            MergeSlab::Mat(m) => m,
            MergeSlab::Buf(b) => b.into_csc(),
        }
    }

    /// Releases an arena-resident slab back to `arena`; materialized
    /// slabs just drop.
    pub fn recycle(self, arena: &mut MergeArena<T>) {
        if let MergeSlab::Buf(b) = self {
            arena.release(b);
        }
    }
}

// ---------------------------------------------------------------------------
// Kernels
// ---------------------------------------------------------------------------

/// What a merge makes of each output column it finishes. The identity
/// sink, [`Whole`], keeps every column as the kernel wrote it — the arena
/// kernels into their upper-bound buffer. Any other sink packs each
/// column the moment it is merged into storage sized for what it keeps,
/// with a tally of the rest, so the merged slab itself never exists: the
/// pipeline sinks a phase's closing merge this way, and the distributed
/// prune's sink (`topk::PruneSink`) keeps only what the prune reads.
pub trait ColumnSink<T: Value>: Sync {
    /// What the sink records of a column besides the entries it keeps.
    type Tally: Copy + Default + Send;
    /// Whether the sink keeps every column whole, where its kernel wrote it.
    const WHOLE: bool = false;
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
    const WHOLE: bool = true;
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

impl<T: Value> MergeSlab<T> {
    /// The slab through `sink`: itself under the identity sink, otherwise
    /// [`sink_slab`] of it — the closing step of a phase whose one product
    /// needed no merge.
    pub(crate) fn packed<K: ColumnSink<T>>(self, sink: &K) -> Packed<T, K::Tally> {
        if !K::WHOLE {
            return sink_slab(self.as_cols(), sink);
        }
        let tally = vec![K::Tally::default(); self.as_cols().ncols()];
        Packed {
            cols: self.into_csc(),
            tally,
        }
    }
}

/// What `sink` packs of every column of `m`: the sunk merge of one matrix.
pub fn sink_slab<T: Value, K: ColumnSink<T>>(m: ColsRef<'_, T>, sink: &K) -> Packed<T, K::Tally> {
    let bounds = (0..m.ncols()).map(|j| m.col_nnz(j));
    sink_columns(m.nrows(), m.ncols(), bounds, sink, (), |(), j, emit| {
        emit(m.col_rows(j), m.col_vals(j))
    })
}

/// Runs the selected merge kernel in the given semiring — the one public
/// entry for merging owned matrices. All five kernels accumulate
/// coincident entries strictly in list order with [`Semiring::add`] and
/// drop entries whose final value is the annihilator
/// ([`Semiring::is_annihilator`]), so for any semiring the kernel choice
/// never changes the result. The arena kernels run against a throwaway
/// arena here; the pipeline and [`StackMerger`] keep a persistent one.
pub fn merge_with<S: Semiring>(
    s: S,
    kernel: MergeKernel,
    mats: &[Csc<S::Elem>],
    shape: (usize, usize),
) -> Csc<S::Elem> {
    match mats {
        // A zero-flops phase produces nothing to merge; the configured
        // output shape keeps the pipeline alive instead of panicking.
        [] => Csc::zero(shape.0, shape.1),
        [one] => {
            assert_eq!((one.nrows(), one.ncols()), shape, "merge shape mismatch");
            one.clone()
        }
        _ => {
            let refs: Vec<ColsRef<'_, S::Elem>> = mats.iter().map(ColsRef::of).collect();
            let arena = &mut MergeArena::new();
            merge_into(s, kernel, &refs, shape, arena, &Whole)
                .0
                .into_csc()
        }
    }
}

/// The one kernel dispatch: merges `mats` (fan-in ≥ 2, all of `shape`)
/// with `kernel`, each finished column through `sink`, and returns the
/// result with the sink's tally of every column. Under the identity sink
/// the arena kernels write into a buffer checked out of `arena` and leave
/// it staged; every other case packs through [`sink_columns`], one column
/// of the kernel at a time.
pub(crate) fn merge_into<S: Semiring, K: ColumnSink<S::Elem>>(
    s: S,
    kernel: MergeKernel,
    mats: &[ColsRef<'_, S::Elem>],
    shape: (usize, usize),
    arena: &mut MergeArena<S::Elem>,
    sink: &K,
) -> (MergeSlab<S::Elem>, Vec<K::Tally>) {
    for mat in mats {
        assert_eq!((mat.nrows(), mat.ncols()), shape, "merge shape mismatch");
    }
    let slab = match kernel {
        MergeKernel::BrMerge if K::WHOLE => MergeSlab::Buf(brmerge_into(s, mats, shape, arena)),
        MergeKernel::SpAdd if K::WHOLE => MergeSlab::Buf(spadd_into(s, mats, shape, arena)),
        _ => {
            // What each output column can hold at most: its inputs.
            let bounds = (0..shape.1).map(|j| mats.iter().map(|m| m.col_nnz(j)).sum());
            let scratch = ColumnScratch::default();
            let packed = sink_columns(shape.0, shape.1, bounds, sink, scratch, |w, j, emit| {
                let n = merge_column::<S>(kernel, mats, j, w);
                emit(&w.rows[..n], &w.vals[..n])
            });
            return (MergeSlab::Mat(packed.cols), packed.tally);
        }
    };
    (slab, vec![K::Tally::default(); shape.1])
}

/// Builds an `nrows × ncols` matrix of what `sink` keeps of each column
/// `column(scratch, j, emit)` finishes and hands to `emit`, with the sink's
/// tally of every column; `bounds` are the columns' most entries. Column
/// parallel, on one clone of `scratch` per worker ([`CscBuilder::build`]).
fn sink_columns<T: Value, K: ColumnSink<T>, W: Clone + Send>(
    nrows: usize,
    ncols: usize,
    bounds: impl Iterator<Item = usize>,
    sink: &K,
    scratch: W,
    column: impl Fn(&mut W, usize, &mut dyn FnMut(&[Idx], &[T])) + Sync + Send,
) -> Packed<T, K::Tally> {
    let reserve = bounds.map(|n| sink.room(n)).sum();
    let tally = Mutex::new(vec![K::Tally::default(); ncols]);
    let cols = CscBuilder::build(
        nrows,
        ncols,
        reserve,
        (scratch, Vec::new()),
        |(w, spare), j, out| {
            column(w, j, &mut |rows, vals| {
                let t = sink.pack(rows, vals, spare, out);
                tally.lock().expect("nothing panics under the lock")[j] = t;
            })
        },
    );
    let tally = tally.into_inner().expect("nothing panics under the lock");
    Packed { cols, tally }
}

/// K-way merges equally-shaped CSC matrices with the heap kernel (kept as
/// a named entry point: the exact symbolic estimator and the benches call
/// it directly). An empty slice returns an empty matrix of `shape`.
pub fn kway_merge(mats: &[Csc<f64>], shape: (usize, usize)) -> Csc<f64> {
    merge_with(PlusTimes::<f64>::new(), MergeKernel::Heap, mats, shape)
}

/// One worker's buffers for merging one column at a time, whatever the
/// kernel: the column being assembled, pairwise's second buffer, the heap's
/// tournament, the SpAdd accumulator and the k-cursor merge's cursors.
#[derive(Clone, Default)]
struct ColumnScratch<'m, T: Value> {
    rows: Vec<Idx>,
    vals: Vec<T>,
    spare: (Vec<Idx>, Vec<T>),
    tournament: Tournament,
    spa: SpaScratch<T>,
    cursors: Cursors<'m, T>,
}

/// Grows `rows` and `vals` to at least `n` entries (never shrinks).
fn grow<T: Value>(rows: &mut Vec<Idx>, vals: &mut Vec<T>, n: usize) {
    if rows.len() < n {
        rows.resize(n, 0);
        vals.resize(n, T::default());
    }
}

/// Merges column `j` of `mats` (fan-in ≥ 2) with `kernel` into
/// `w.rows`/`w.vals` and returns how many entries it has.
fn merge_column<'m, S: Semiring>(
    kernel: MergeKernel,
    mats: &[ColsRef<'m, S::Elem>],
    j: usize,
    w: &mut ColumnScratch<'m, S::Elem>,
) -> usize {
    let ub: usize = mats.iter().map(|m| m.col_nnz(j)).sum();
    match kernel {
        MergeKernel::Heap => heap_column::<S>(mats, j, &mut w.tournament, &mut w.rows, &mut w.vals),
        MergeKernel::Hash => hash_column::<S>(mats, j, &mut w.rows, &mut w.vals),
        // The left fold keeps the accumulation order identical to the
        // heap's list-order tie-breaking: after i folds the accumulator
        // holds `v_0 ⊕ v_1 ⊕ … ⊕ v_i` exactly as the heap combines it.
        MergeKernel::Pairwise => {
            let col = |m: &ColsRef<'m, S::Elem>| (m.col_rows(j), m.col_vals(j));
            grow(&mut w.rows, &mut w.vals, ub);
            let mut n =
                merge_two_cursors::<S>(col(&mats[0]), col(&mats[1]), &mut w.rows, &mut w.vals);
            for m in &mats[2..] {
                let (rows, vals) = &mut w.spare;
                grow(rows, vals, ub);
                n = merge_two_cursors::<S>((&w.rows[..n], &w.vals[..n]), col(m), rows, vals);
                std::mem::swap(&mut w.rows, rows);
                std::mem::swap(&mut w.vals, vals);
            }
            n
        }
        MergeKernel::BrMerge => {
            grow(&mut w.rows, &mut w.vals, ub);
            let (rows, vals) = (&mut w.rows[..ub], &mut w.vals[..ub]);
            brmerge_column::<S>(mats, j, &mut w.cursors, rows, vals)
        }
        MergeKernel::SpAdd => {
            grow(&mut w.rows, &mut w.vals, ub);
            w.spa.ensure_rows(mats[0].nrows());
            let (rows, vals) = (&mut w.rows[..ub], &mut w.vals[..ub]);
            spadd_column::<S>(mats, j, &mut w.spa, rows, vals)
        }
    }
}

/// Merges column `j` across all matrices in ascending `(row, list)` order
/// into `rows`/`vals` and returns its length, with `tournament` over the
/// lists' heads.
fn heap_column<S: Semiring>(
    mats: &[ColsRef<'_, S::Elem>],
    j: usize,
    tournament: &mut Tournament,
    rows: &mut Vec<Idx>,
    vals: &mut Vec<S::Elem>,
) -> usize {
    // Drops a just-finished entry if it accumulated to the annihilator
    // (plus-times: cancelled to zero).
    fn drop_annihilated<S: Semiring>(rows: &mut Vec<Idx>, vals: &mut Vec<S::Elem>) {
        if vals.last().is_some_and(|&v| S::is_annihilator(v)) {
            rows.pop();
            vals.pop();
        }
    }
    rows.clear();
    vals.clear();
    tournament.merge(
        mats.iter().map(|m| m.col_span(j)),
        |l, pos| mats[l].rowidx[pos],
        |r, l, pos| {
            let v = mats[l].vals[pos];
            if rows.last() == Some(&r) {
                let acc = vals.last_mut().expect("rows and vals grow together");
                *acc = S::add(*acc, v);
            } else {
                drop_annihilated::<S>(rows, vals);
                rows.push(r);
                vals.push(v);
            }
        },
    );
    drop_annihilated::<S>(rows, vals);
    rows.len()
}

/// Hash-accumulates column `j` across all matrices, strictly in list
/// order, then sorts by row and drops annihilator entries, into
/// `rows`/`vals`; returns the column's length.
fn hash_column<S: Semiring>(
    mats: &[ColsRef<'_, S::Elem>],
    j: usize,
    rows: &mut Vec<Idx>,
    vals: &mut Vec<S::Elem>,
) -> usize {
    use std::collections::HashMap;
    let cap: usize = mats.iter().map(|m| m.col_nnz(j)).sum();
    let mut slot: HashMap<Idx, usize> = HashMap::with_capacity(cap);
    let mut entries: Vec<(Idx, S::Elem)> = Vec::with_capacity(cap);
    for mat in mats {
        for (&r, &v) in mat.col_rows(j).iter().zip(mat.col_vals(j)) {
            match slot.entry(r) {
                std::collections::hash_map::Entry::Occupied(e) => {
                    let at = *e.get();
                    entries[at].1 = S::add(entries[at].1, v);
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(entries.len());
                    entries.push((r, v));
                }
            }
        }
    }
    entries.sort_unstable_by_key(|&(r, _)| r);
    entries.retain(|&(_, v)| !S::is_annihilator(v));
    rows.clear();
    vals.clear();
    for (r, v) in entries {
        rows.push(r);
        vals.push(v);
    }
    rows.len()
}

// ---------------------------------------------------------------------------
// Arena-backed kernels (BRMerge + parallel SpAdd)
// ---------------------------------------------------------------------------

/// One thread's contiguous slice of the upper-bound staging area: columns
/// `cols`, whose elements occupy `rows`/`vals` (offset by `base` in the
/// global upper-bound layout). Within its slice a chunk writes columns
/// **compactly** from offset 0 — the upper bound only sizes the slice —
/// recording each column's produced start offset (global) in `starts`
/// and its size in `counts`. Compact-within-chunk staging means the
/// write traffic of a merge is its actual output, not the upper bound,
/// and a single-chunk merge comes out fully compact.
struct ColChunk<'s, T> {
    cols: std::ops::Range<usize>,
    base: usize,
    rows: &'s mut [Idx],
    vals: &'s mut [T],
    starts: &'s mut [usize],
    counts: &'s mut [usize],
}

/// Carves the staging buffers into per-thread chunks along column
/// boundaries of the upper-bound prefix `ub`.
fn carve_chunks<'s, T>(
    ncols: usize,
    nchunks: usize,
    ub: &[usize],
    mut rows: &'s mut [Idx],
    mut vals: &'s mut [T],
    mut starts: &'s mut [usize],
    mut counts: &'s mut [usize],
) -> Vec<ColChunk<'s, T>> {
    let mut out = Vec::with_capacity(nchunks);
    let mut c0 = 0;
    for w in 0..nchunks {
        let c1 = ((w + 1) * ncols) / nchunks;
        let elems = ub[c1] - ub[c0];
        let (r, rr) = rows.split_at_mut(elems);
        let (v, vr) = vals.split_at_mut(elems);
        let (s, sr) = starts.split_at_mut(c1 - c0);
        let (c, cr) = counts.split_at_mut(c1 - c0);
        out.push(ColChunk {
            cols: c0..c1,
            base: ub[c0],
            rows: r,
            vals: v,
            starts: s,
            counts: c,
        });
        rows = rr;
        vals = vr;
        starts = sr;
        counts = cr;
        c0 = c1;
    }
    out
}

/// Number of column partitions for the parallel arena kernels: one per
/// rayon worker, never more than there are columns.
fn partition_count(ncols: usize) -> usize {
    rayon::current_num_threads().max(1).min(ncols.max(1))
}

/// Appends `(r, v)` at write cursor `w` unless `v` is the annihilator —
/// the shared drop rule, applied to staged arena writes.
#[inline]
fn put_staged<S: Semiring>(
    rows: &mut [Idx],
    vals: &mut [S::Elem],
    w: &mut usize,
    r: Idx,
    v: S::Elem,
) {
    if !S::is_annihilator(v) {
        rows[*w] = r;
        vals[*w] = v;
        *w += 1;
    }
}

/// Two-cursor column merge into staged output — the fan-in-2 fast path
/// of [`brmerge_into`].
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
    // Each element still passes the annihilator drop rule, preserving
    // bit-identity with the heap kernel.
    while i < ar.len() && k < br.len() {
        match ar[i].cmp(&br[k]) {
            std::cmp::Ordering::Less => {
                let b = br[k];
                while i < ar.len() && ar[i] < b {
                    put_staged::<S>(rows, vals, &mut w, ar[i], av[i]);
                    i += 1;
                }
            }
            std::cmp::Ordering::Greater => {
                let a = ar[i];
                while k < br.len() && br[k] < a {
                    put_staged::<S>(rows, vals, &mut w, br[k], bv[k]);
                    k += 1;
                }
            }
            std::cmp::Ordering::Equal => {
                put_staged::<S>(rows, vals, &mut w, ar[i], S::add(av[i], bv[k]));
                i += 1;
                k += 1;
            }
        }
    }
    while i < ar.len() {
        put_staged::<S>(rows, vals, &mut w, ar[i], av[i]);
        i += 1;
    }
    while k < br.len() {
        put_staged::<S>(rows, vals, &mut w, br[k], bv[k]);
        k += 1;
    }
    w
}

/// k-cursor column merge into staged output: one linear scan over the
/// cursor heads per step (cheaper than a heap for the small fan-ins this
/// kernel is selected at), accumulating coincident rows in list order.
/// `head[i]` caches cursor i's current row — `Idx::MAX` when exhausted
/// (a safe sentinel: row indices are < nrows < `Idx::MAX`) — so the scan
/// is a tight compare loop over a small array. The scan also tracks the
/// runner-up row: when a single cursor owns the minimum, its whole run
/// of rows below the runner-up is emitted without re-scanning the heads
/// (the BRMerge run-copy idea), which collapses the per-element cost to
/// one compare on low-overlap inputs. Each emitted element still passes
/// the annihilator drop rule, so the output stays bit-identical to the
/// heap kernel even for inputs carrying explicit annihilators.
#[inline]
fn merge_k_cursors<S: Semiring>(
    cur: &[(&[Idx], &[S::Elem])],
    pos: &mut [usize],
    head: &mut [Idx],
    rows: &mut [Idx],
    vals: &mut [S::Elem],
) -> usize {
    let k = cur.len();
    assert_eq!(rows.len(), vals.len());
    for i in 0..k {
        assert_eq!(cur[i].0.len(), cur[i].1.len());
        pos[i] = 0;
        head[i] = cur[i].0.first().copied().unwrap_or(Idx::MAX);
    }
    merge_k_cursors_body::<S>(cur, pos, head, rows, vals, k)
}

/// Fixed-fan-in front end of [`merge_k_cursors`]: `pos`/`head` are
/// const-sized arrays the compiler keeps in registers and the min-scan
/// fully unrolls, which is worth ~10% on the stack merger's dominant
/// 3- and 4-way merges. Same algorithm, bit-identical output.
#[inline]
fn merge_k_cursors_fixed<S: Semiring, const K: usize>(
    cur: &[(&[Idx], &[S::Elem])],
    rows: &mut [Idx],
    vals: &mut [S::Elem],
) -> usize {
    assert_eq!(cur.len(), K);
    assert_eq!(rows.len(), vals.len());
    let mut pos = [0usize; K];
    let mut head = [Idx::MAX; K];
    for i in 0..K {
        assert_eq!(cur[i].0.len(), cur[i].1.len());
        head[i] = cur[i].0.first().copied().unwrap_or(Idx::MAX);
    }
    merge_k_cursors_body::<S>(cur, &mut pos, &mut head, rows, vals, K)
}

#[inline(always)]
fn merge_k_cursors_body<S: Semiring>(
    cur: &[(&[Idx], &[S::Elem])],
    pos: &mut [usize],
    head: &mut [Idx],
    rows: &mut [Idx],
    vals: &mut [S::Elem],
    k: usize,
) -> usize {
    let mut w = 0usize;
    loop {
        // One pass: minimum, its owner, and the runner-up row. A tie for
        // the minimum leaves `min2 == min`, flagging coincident heads.
        let mut min = head[0];
        let mut arg = 0usize;
        let mut min2 = Idx::MAX;
        for (i, &h) in head.iter().enumerate().take(k).skip(1) {
            if h < min {
                min2 = min;
                min = h;
                arg = i;
            } else if h < min2 {
                min2 = h;
            }
        }
        if min == Idx::MAX {
            break;
        }
        if min < min2 {
            // Unique owner: every row of cursor `arg` below `min2` is
            // absent from all other lists — emit the run with a fused
            // linear scan-and-copy (the run-end compare doubles as the
            // copy-loop condition; no binary search).
            let (r, v) = cur[arg];
            let mut p = pos[arg];
            while p < r.len() && r[p] < min2 {
                put_staged::<S>(rows, vals, &mut w, r[p], v[p]);
                p += 1;
            }
            pos[arg] = p;
            head[arg] = r.get(p).copied().unwrap_or(Idx::MAX);
        } else {
            // Coincident heads: accumulate in list order.
            let mut acc: Option<S::Elem> = None;
            for i in 0..k {
                if head[i] == min {
                    let (r, v) = cur[i];
                    let x = v[pos[i]];
                    acc = Some(match acc {
                        None => x,
                        Some(a) => S::add(a, x),
                    });
                    pos[i] += 1;
                    head[i] = r.get(pos[i]).copied().unwrap_or(Idx::MAX);
                }
            }
            put_staged::<S>(rows, vals, &mut w, min, acc.unwrap());
        }
    }
    w
}

/// BRMerge-style merge of `mats` (fan-in ≥ 2) into an arena buffer, in
/// **one pass** (`merge_staged`): each column's sorted runs are
/// cursor-merged — a two-cursor merge at fan-in 2, a linear min-scan over
/// k cursors above that. Coincident rows accumulate strictly in list
/// order, so the result is bit-identical to the heap/pairwise kernels.
/// The output stays staged (no compaction pass — downstream merges read
/// the runs directly; only materialization compacts the inter-chunk
/// gaps). The returned buffer belongs to `arena`; release or materialize
/// it when done.
pub fn brmerge_into<S: Semiring>(
    _s: S,
    mats: &[ColsRef<'_, S::Elem>],
    shape: (usize, usize),
    arena: &mut MergeArena<S::Elem>,
) -> SlabBuf<S::Elem> {
    let mut cursors = vec![Cursors::default(); partition_count(shape.1)];
    merge_staged(
        mats,
        shape,
        arena,
        &mut cursors,
        |cursors, j, rows, vals| brmerge_column::<S>(mats, j, cursors, rows, vals),
    )
}

/// Merges `mats` into a buffer checked out of `arena`, column-parallel:
/// prefix-sums the per-column upper bounds (`ub_j = Σ_l nnz_l(j)`) to carve
/// disjoint per-thread regions, and each thread writes its columns
/// compactly from its region's base — so write traffic is the actual
/// output, not the upper bound — column `j` by `column(scratch, j, rows,
/// vals)`, which merges it into `rows`/`vals` of its upper bound and
/// returns its length. One of `scratch` per thread; the hot loop never
/// allocates.
fn merge_staged<T: Value, W: Send>(
    mats: &[ColsRef<'_, T>],
    shape: (usize, usize),
    arena: &mut MergeArena<T>,
    scratch: &mut [W],
    column: impl Fn(&mut W, usize, &mut [Idx], &mut [T]) -> usize + Sync,
) -> SlabBuf<T> {
    let n = shape.1;
    let mut out = arena.acquire(shape);
    let MergeArena {
        ub,
        starts,
        counts,
        peak_request,
        ..
    } = arena;
    ub.clear();
    ub.reserve(n + 1);
    ub.push(0);
    let mut run = 0usize;
    for j in 0..n {
        run += mats.iter().map(|m| m.col_nnz(j)).sum::<usize>();
        ub.push(run);
    }
    *peak_request = (*peak_request).max(run);
    out.ensure_len(run);
    starts.clear();
    starts.resize(n, 0);
    counts.clear();
    counts.resize(n, 0);

    let nchunks = partition_count(n);
    let chunks = carve_chunks(
        n,
        nchunks,
        ub,
        &mut out.rowidx,
        &mut out.vals,
        starts,
        counts,
    );
    let ub = &*ub;
    chunks
        .into_par_iter()
        .zip(scratch[..nchunks].par_iter_mut())
        .for_each(|(ch, scratch)| {
            let mut cursor = 0usize;
            for j in ch.cols.clone() {
                let width = ub[j + 1] - ub[j];
                let rows = &mut ch.rows[cursor..cursor + width];
                let vals = &mut ch.vals[cursor..cursor + width];
                let w = column(scratch, j, rows, vals);
                ch.starts[j - ch.cols.start] = ch.base + cursor;
                ch.counts[j - ch.cols.start] = w;
                cursor += w;
            }
        });
    out.set_staged(starts, counts);
    out
}

/// The k-cursor merge's state for one worker: the cursors' columns,
/// positions and head rows.
#[derive(Clone, Default)]
struct Cursors<'m, T> {
    cur: Vec<(&'m [Idx], &'m [T])>,
    pos: Vec<usize>,
    head: Vec<Idx>,
}

/// Column `j` of [`brmerge_into`]: merges it across `mats` into `rows` and
/// `vals`, which hold at least its upper bound, and returns its length.
fn brmerge_column<'m, S: Semiring>(
    mats: &[ColsRef<'m, S::Elem>],
    j: usize,
    Cursors { cur, pos, head }: &mut Cursors<'m, S::Elem>,
    rows: &mut [Idx],
    vals: &mut [S::Elem],
) -> usize {
    let k = mats.len();
    assert!(k >= 2, "brmerge needs fan-in >= 2");
    debug_assert!(
        (mats[0].nrows() as u64) < Idx::MAX as u64,
        "Idx::MAX sentinel"
    );
    if k == 2 {
        let col = |m: &ColsRef<'m, S::Elem>| (m.col_rows(j), m.col_vals(j));
        return merge_two_cursors::<S>(col(&mats[0]), col(&mats[1]), rows, vals);
    }
    cur.clear();
    cur.extend(mats.iter().map(|m| (m.col_rows(j), m.col_vals(j))));
    // Auto only selects this kernel at fan-in <= 5, so the
    // register-resident fixed variants cover the hot path;
    // the slice-backed loop serves Fixed(BrMerge) beyond.
    match k {
        3 => merge_k_cursors_fixed::<S, 3>(cur, rows, vals),
        4 => merge_k_cursors_fixed::<S, 4>(cur, rows, vals),
        5 => merge_k_cursors_fixed::<S, 5>(cur, rows, vals),
        _ => {
            pos.resize(k, 0);
            head.resize(k, 0);
            merge_k_cursors::<S>(cur, pos, head, rows, vals)
        }
    }
}

/// Hussain-style parallel SpAdd of `mats` (fan-in ≥ 2) into an arena
/// buffer (`merge_staged`): each thread accumulates its columns through
/// an epoch-stamped dense SPA, kept in `arena` across merges, strictly in
/// list order, then sorts each column by row, drops annihilators, and
/// writes it compactly at its chunk's write cursor; the result stays
/// staged (inter-chunk gaps only) until materialization.
pub fn spadd_into<S: Semiring>(
    _s: S,
    mats: &[ColsRef<'_, S::Elem>],
    shape: (usize, usize),
    arena: &mut MergeArena<S::Elem>,
) -> SlabBuf<S::Elem> {
    assert!(mats.len() >= 2, "spadd needs fan-in >= 2");
    let mut spa = std::mem::take(&mut arena.spa);
    if spa.len() < partition_count(shape.1) {
        spa.resize_with(partition_count(shape.1), SpaScratch::default);
    }
    let out = merge_staged(mats, shape, arena, &mut spa, |spa, j, rows, vals| {
        spa.ensure_rows(shape.0);
        spadd_column::<S>(mats, j, spa, rows, vals)
    });
    arena.spa = spa;
    out
}

/// Column `j` of [`spadd_into`]: accumulates it across `mats` through
/// `spa` (covering every row), then writes it sorted, annihilators dropped,
/// into `rows` and `vals`, which hold at least its upper bound; returns its
/// length.
fn spadd_column<S: Semiring>(
    mats: &[ColsRef<'_, S::Elem>],
    j: usize,
    spa: &mut SpaScratch<S::Elem>,
    rows: &mut [Idx],
    vals: &mut [S::Elem],
) -> usize {
    spa.begin_column();
    for mat in mats {
        for (&r, &v) in mat.col_rows(j).iter().zip(mat.col_vals(j)) {
            let ri = r as usize;
            if spa.stamp[ri] == spa.epoch {
                let at = spa.slot[ri] as usize;
                spa.pairs[at].1 = S::add(spa.pairs[at].1, v);
            } else {
                spa.stamp[ri] = spa.epoch;
                spa.slot[ri] = spa.pairs.len() as u32;
                spa.pairs.push((r, v));
            }
        }
    }
    spa.pairs.sort_unstable_by_key(|&(r, _)| r);
    let mut w = 0usize;
    for &(r, v) in &spa.pairs {
        put_staged::<S>(rows, vals, &mut w, r, v);
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
/// schedule through `Executor::submit_merge` instead. The merger owns a
/// [`MergeArena`], so under the default `Auto` policy its intermediate
/// merges stay arena-resident ([`MergeSlab::Buf`]) and only
/// [`StackMerger::finish`] materializes a `Csc`.
pub struct StackMerger {
    model: MachineModel,
    policy: MergeKernelPolicy,
    shape: (usize, usize),
    stack: Vec<MergeSlab<f64>>,
    arena: MergeArena<f64>,
    pushed: usize,
    stats: MergeStats,
}

impl StackMerger {
    /// New merger for slabs of the given shape. The model only feeds the
    /// `Auto` kernel selection rule; no durations are charged.
    pub fn new(model: MachineModel, policy: MergeKernelPolicy, shape: (usize, usize)) -> Self {
        Self {
            model,
            policy,
            shape,
            stack: Vec::new(),
            arena: MergeArena::new(),
            pushed: 0,
            stats: MergeStats::default(),
        }
    }

    /// Pushes the next stage's slab, running any merges Algorithm 2
    /// triggers.
    pub fn push(&mut self, slab: Csc<f64>) {
        self.stack.push(MergeSlab::Mat(slab));
        self.pushed += 1;
        let count = algorithm2_merge_count(self.pushed);
        if count > 0 {
            self.merge_top(count);
        }
    }

    /// Final merge of whatever remains; empty input yields an empty
    /// matrix of the configured shape. The single materialization of the
    /// arena path happens here: the last merge's buffer becomes the
    /// matrix. Also resets the Algorithm 2 push counter, so the merger —
    /// and what its arena recycled — can be reused for the next phase's
    /// stack.
    pub fn finish(&mut self) -> Csc<f64> {
        if self.stack.len() > 1 {
            self.merge_top(self.stack.len());
        }
        self.pushed = 0;
        match self.stack.pop() {
            Some(slab) => slab.into_csc(),
            None => Csc::zero(self.shape.0, self.shape.1),
        }
    }

    fn merge_top(&mut self, count: usize) {
        let s = PlusTimes::<f64>::new();
        let at = self.stack.len() - count;
        let tail: Vec<MergeSlab<f64>> = self.stack.split_off(at);
        let elems: usize = tail.iter().map(MergeSlab::nnz).sum();
        let kernel = match self.policy {
            MergeKernelPolicy::Fixed(k) => k,
            MergeKernelPolicy::Auto => select_merge_kernel(&self.model, elems as u64, count),
        };
        self.stats.peak_merge_elems = self.stats.peak_merge_elems.max(elems);
        self.stats.total_merged_elems += elems as u64;
        self.stats.merge_ops += 1;
        let merged = {
            let refs: Vec<ColsRef<'_, f64>> = tail.iter().map(MergeSlab::as_cols).collect();
            merge_into(s, kernel, &refs, self.shape, &mut self.arena, &Whole).0
        };
        for slab in tail {
            slab.recycle(&mut self.arena);
        }
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

    /// The merger's arena (peak/capacity observability for the probes).
    pub fn arena(&self) -> &MergeArena<f64> {
        &self.arena
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
        for k in [1usize, 2, 3, 4, 7, 8] {
            let mats = slabs(12, k);
            let got = kway_merge(&mats, (12, 12));
            got.assert_valid();
            let want = reference_sum(&mats);
            assert!(got.max_abs_diff(&want) < 1e-9, "k={k}");
            assert_eq!(got.nnz(), want.nnz(), "k={k}");
        }
    }

    #[test]
    fn all_kernels_match_elementwise_sum() {
        for k in [2usize, 3, 5, 8] {
            let mats = slabs(10, k);
            let want = reference_sum(&mats);
            for kernel in hipmcl_comm::MergeKernel::all() {
                let got = merge_with(PlusTimes::<f64>::new(), kernel, &mats, (10, 10));
                got.assert_valid();
                assert!(got.max_abs_diff(&want) < 1e-9, "{kernel:?} k={k}");
                assert_eq!(got.nnz(), want.nnz(), "{kernel:?} k={k}");
            }
        }
    }

    #[test]
    fn selection_rule_follows_model_crossovers() {
        let m = MachineModel::summit();
        // Fan-in 2–5: the arena-backed single-pass k-cursor merge.
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
    fn arena_reuses_buffers_without_capacity_leak() {
        let s = PlusTimes::<f64>::new();
        let mut arena = MergeArena::new();
        // Many merges of varying size through one arena: capacity must
        // stay bounded by twice the largest single request.
        for round in 0..20 {
            let k = 2 + round % 4;
            let mats = slabs(16, k);
            let refs: Vec<ColsRef<'_, f64>> = mats.iter().map(ColsRef::of).collect();
            let buf = if k == 2 || k == 3 {
                brmerge_into(s, &refs, (16, 16), &mut arena)
            } else {
                spadd_into(s, &refs, (16, 16), &mut arena)
            };
            let want = reference_sum(&mats);
            assert!(buf.to_csc().max_abs_diff(&want) < 1e-9, "round={round}");
            arena.release(buf);
        }
        assert!(arena.peak_request() > 0);
        arena.assert_no_capacity_leak();
        assert!(
            arena.capacity_elems() <= 2 * arena.peak_request().max(32),
            "steady-state capacity {} vs peak request {}",
            arena.capacity_elems(),
            arena.peak_request()
        );
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
    fn stack_merger_arena_stays_bounded() {
        let mut sm = StackMerger::new(MachineModel::summit(), MergeKernelPolicy::Auto, (20, 20));
        for m in slabs(20, 16) {
            sm.push(m);
        }
        let _ = sm.finish();
        assert!(sm.arena().peak_request() > 0, "auto path used the arena");
        sm.arena().assert_no_capacity_leak();
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
