//! What a kernel does with each output column it finishes.
//!
//! Every local SpGEMM kernel of the workspace — the CPU hash, heap and SPA
//! kernels, which every device launch in `hipmcl-gpu` runs too — is a
//! per-column producer: it computes output column `j` in a worker's buffers
//! and hands it to an [`Emit`], which pushes what it makes of the column to
//! the [`CscBuilder`] the kernel returns. [`Push`] appends every column
//! unchanged, so the kernel returns the product. An emit that merges each
//! column into something else the moment it is finished — the merge that
//! takes a SUMMA phase's stage products in `hipmcl-summa` — makes the
//! kernel return that instead, and the product never exists.

use crate::hash::{append, Column};
use hipmcl_sparse::{CscBuilder, Idx, Value};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// The one column hook of every kernel. Each worker runs its own clone, so
/// what an emit owns is per worker; each column reaches one of them once.
pub trait Emit<T: Value>: Clone + Send {
    /// At most how many entries the output takes for column `j` of a
    /// product that holds at most `bound` there — what the kernel reserves.
    fn room(&self, j: usize, bound: usize) -> usize;

    /// Pushes what it makes of finished column `j`, `rows` and `vals`, to
    /// `out`, with one push.
    fn emit(&mut self, j: usize, rows: &[Idx], vals: &[T], out: &mut CscBuilder<T>);

    /// [`emit`](Self::emit) for column `j` from the hash kernel's loop; one
    /// still in the accumulator is drained into the worker's `buf` first.
    fn emit_column(
        &mut self,
        col: Column<'_, T>,
        j: usize,
        out: &mut CscBuilder<T>,
        (rows, vals): &mut (Vec<Idx>, Vec<T>),
    ) {
        match col {
            Column::Table(table) => {
                rows.resize(table.len(), 0);
                vals.resize(table.len(), T::default());
                table.drain_sorted_into(j, rows, vals);
                self.emit(j, rows, vals, out);
            }
            Column::Formed(rows, vals) => self.emit(j, rows, vals, out),
        }
    }
}

/// Every column unchanged: the kernel returns the product.
#[derive(Clone, Copy, Debug, Default)]
pub struct Push;

impl<T: Value> Emit<T> for Push {
    fn room(&self, _: usize, bound: usize) -> usize {
        bound
    }

    fn emit(&mut self, _: usize, rows: &[Idx], vals: &[T], out: &mut CscBuilder<T>) {
        out.push_column(rows, vals);
    }

    /// Drains the accumulator straight into the output.
    fn emit_column(
        &mut self,
        col: Column<'_, T>,
        j: usize,
        out: &mut CscBuilder<T>,
        _: &mut (Vec<Idx>, Vec<T>),
    ) {
        append(col, j, out);
    }
}

/// An emit that notes how many entries each product column has before
/// handing it on: what a launch's modeled bookkeeping reads, whatever the
/// kernel's output became. The counters publish nothing else and are read
/// once the kernel returned, after its workers joined, so they are
/// relaxed.
#[derive(Clone, Debug)]
pub struct Counted<'c, E> {
    inner: E,
    counts: &'c [AtomicUsize],
}

impl<'c, E> Counted<'c, E> {
    /// `inner`, with column `j`'s length noted in `counts[j]`.
    pub fn new(inner: E, counts: &'c [AtomicUsize]) -> Self {
        Self { inner, counts }
    }
}

impl<T: Value, E: Emit<T>> Emit<T> for Counted<'_, E> {
    fn room(&self, j: usize, bound: usize) -> usize {
        self.inner.room(j, bound)
    }

    fn emit(&mut self, j: usize, rows: &[Idx], vals: &[T], out: &mut CscBuilder<T>) {
        self.counts[j].store(rows.len(), Relaxed);
        self.inner.emit(j, rows, vals, out);
    }

    fn emit_column(
        &mut self,
        col: Column<'_, T>,
        j: usize,
        out: &mut CscBuilder<T>,
        buf: &mut (Vec<Idx>, Vec<T>),
    ) {
        let len = match &col {
            Column::Table(table) => table.len(),
            Column::Formed(rows, _) => rows.len(),
        };
        self.counts[j].store(len, Relaxed);
        self.inner.emit_column(col, j, out, buf);
    }
}

/// `n` zeroed column counters for [`Counted`].
pub fn counters(n: usize) -> Vec<AtomicUsize> {
    (0..n).map(|_| AtomicUsize::new(0)).collect()
}

/// What the counters of `cols` add up to.
pub fn counted(counts: &[AtomicUsize], cols: Range<usize>) -> usize {
    counts[cols].iter().map(|c| c.load(Relaxed)).sum()
}

/// What `emit` reserves for columns `cols` of a product with `fpc` flops
/// per column and `nrows` rows: each column's [`Emit::room`] at its bound
/// `min(flops_j, nrows)`.
pub fn reserve<T: Value>(
    emit: &impl Emit<T>,
    cols: Range<usize>,
    fpc: &[u64],
    nrows: usize,
) -> usize {
    cols.map(|j| emit.room(j, (fpc[j] as usize).min(nrows)))
        .sum()
}
