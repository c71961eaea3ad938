//! Compressed sparse column (CSC) storage.
//!
//! CSC is the primary compute format of the MCL pipeline: the matrix is
//! column stochastic and every kernel (normalization, pruning, selection,
//! inflation, column-by-column SpGEMM) walks columns. Rows within a column
//! are kept sorted by row index — several kernels (heap SpGEMM, two-way
//! merges) rely on that invariant, and [`Csc::assert_valid`] checks it.

use crate::semiring::{PlusTimes, Semiring, Value};
use crate::triples::Triples;
use crate::util::{even_chunk, is_strictly_increasing};
use crate::Idx;
use rayon::prelude::*;
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Mutex;

/// Sparse matrix in compressed sparse column form.
///
/// Invariants (checked by [`Csc::assert_valid`], enforced by constructors):
/// * `colptr.len() == ncols + 1`, `colptr[0] == 0`, monotone non-decreasing,
///   `colptr[ncols] == nnz`.
/// * Within each column, row indices are strictly increasing (no duplicates).
/// * All row indices `< nrows`.
#[derive(Clone, Debug, PartialEq)]
pub struct Csc<T> {
    nrows: usize,
    ncols: usize,
    /// `colptr[j]..colptr[j+1]` is the index range of column `j`.
    pub colptr: Vec<usize>,
    /// Row index of each nonzero, sorted within each column.
    pub rowidx: Vec<Idx>,
    /// Value of each nonzero.
    pub vals: Vec<T>,
}

impl<T: Value> Csc<T> {
    /// Creates an empty `nrows × ncols` matrix.
    pub fn zero(nrows: usize, ncols: usize) -> Self {
        Self {
            nrows,
            ncols,
            colptr: vec![0; ncols + 1],
            rowidx: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// Same structure, values mapped through `f` — how a matrix moves
    /// between semiring element types (e.g. weights → reachability bits).
    /// Stored entries are preserved even if `f` maps them to the target
    /// semiring's annihilator; follow with a merge or rebuild to drop
    /// them.
    pub fn map_values<U: Value>(&self, f: impl Fn(T) -> U) -> Csc<U> {
        Csc {
            nrows: self.nrows,
            ncols: self.ncols,
            colptr: self.colptr.clone(),
            rowidx: self.rowidx.clone(),
            vals: self.vals.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Identity matrix of size `n` in the given semiring: diagonal of
    /// `S::ONE`, everything else absent (the annihilator).
    pub fn identity_in<S: Semiring<Elem = T>>(_s: S, n: usize) -> Self {
        Self {
            nrows: n,
            ncols: n,
            colptr: (0..=n).collect(),
            rowidx: (0..n as Idx).collect(),
            vals: vec![S::ONE; n],
        }
    }

    /// Builds from raw parts, validating invariants.
    pub fn from_parts(
        nrows: usize,
        ncols: usize,
        colptr: Vec<usize>,
        rowidx: Vec<Idx>,
        vals: Vec<T>,
    ) -> Self {
        Self::try_from_parts(nrows, ncols, colptr, rowidx, vals)
            .unwrap_or_else(|e| panic!("invalid CSC: {e}"))
    }

    /// Fallible [`Csc::from_parts`]: the constructor for *untrusted*
    /// input (wire decoding), returning the violated invariant instead
    /// of panicking.
    pub fn try_from_parts(
        nrows: usize,
        ncols: usize,
        colptr: Vec<usize>,
        rowidx: Vec<Idx>,
        vals: Vec<T>,
    ) -> Result<Self, &'static str> {
        let m = Self {
            nrows,
            ncols,
            colptr,
            rowidx,
            vals,
        };
        m.validate()?;
        Ok(m)
    }

    /// Converts from COO, collapsing duplicate entries with the given
    /// semiring's addition. `O(nnz + nrows + ncols)`.
    pub fn from_triples_in<S: Semiring<Elem = T>>(s: S, t: &Triples<T>) -> Self {
        let mut t = t.clone();
        t.sum_duplicates_in(s);
        Self::from_sorted_dedup_triples(&t)
    }

    /// Converts from COO known to hold no duplicate coordinates (e.g.
    /// re-blocked entries of an already-valid matrix). Sorts column-major
    /// and builds structurally — no semiring needed since nothing can
    /// collapse.
    pub fn from_nodup_triples(t: &Triples<T>) -> Self {
        let mut t = t.clone();
        t.sort_column_major();
        Self::from_sorted_dedup_triples(&t)
    }

    /// Converts from COO that is already column-major sorted with no
    /// duplicate coordinates (e.g. the output of
    /// [`Triples::sum_duplicates_in`]). Avoids the extra sort.
    pub fn from_sorted_dedup_triples(t: &Triples<T>) -> Self {
        let mut colptr = vec![0usize; t.ncols() + 1];
        for &c in &t.cols {
            colptr[c as usize + 1] += 1;
        }
        for j in 0..t.ncols() {
            colptr[j + 1] += colptr[j];
        }
        let m = Self {
            nrows: t.nrows(),
            ncols: t.ncols(),
            colptr,
            rowidx: t.rows.clone(),
            vals: t.vals.clone(),
        };
        m.assert_valid();
        m
    }

    /// Converts to COO (column-major order).
    pub fn to_triples(&self) -> Triples<T> {
        let mut t = Triples::with_capacity(self.nrows, self.ncols, self.nnz());
        for j in 0..self.ncols {
            for k in self.colptr[j]..self.colptr[j + 1] {
                t.push(self.rowidx[k], j as Idx, self.vals[k]);
            }
        }
        t
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored nonzeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Number of nonzeros in column `j`.
    #[inline]
    pub fn col_nnz(&self, j: usize) -> usize {
        self.colptr[j + 1] - self.colptr[j]
    }

    /// Row indices of column `j` (sorted).
    #[inline]
    pub fn col_rows(&self, j: usize) -> &[Idx] {
        &self.rowidx[self.colptr[j]..self.colptr[j + 1]]
    }

    /// The structure without the values, as a symbolic pass reads it.
    pub fn pattern(&self) -> Pattern<'_> {
        Pattern {
            nrows: self.nrows,
            colptr: &self.colptr,
            rowidx: &self.rowidx,
        }
    }

    /// Values of column `j`, parallel to [`Csc::col_rows`].
    #[inline]
    pub fn col_vals(&self, j: usize) -> &[T] {
        &self.vals[self.colptr[j]..self.colptr[j + 1]]
    }

    /// Mutable values of column `j`.
    #[inline]
    pub fn col_vals_mut(&mut self, j: usize) -> &mut [T] {
        &mut self.vals[self.colptr[j]..self.colptr[j + 1]]
    }

    /// Iterates `(row, col, val)` in column-major order.
    pub fn iter(&self) -> impl Iterator<Item = (Idx, Idx, T)> + '_ {
        (0..self.ncols).flat_map(move |j| {
            self.col_rows(j)
                .iter()
                .zip(self.col_vals(j))
                .map(move |(&r, &v)| (r, j as Idx, v))
        })
    }

    /// Value at `(i, j)` if stored. Binary search within the column.
    pub fn get(&self, i: usize, j: usize) -> Option<T> {
        let rows = self.col_rows(j);
        rows.binary_search(&(i as Idx))
            .ok()
            .map(|k| self.col_vals(j)[k])
    }

    /// Transpose via counting sort on row indices — `O(nnz + nrows)`.
    /// The result's columns (original rows) come out sorted.
    pub fn transposed(&self) -> Self {
        let mut colptr = vec![0usize; self.nrows + 1];
        for &r in &self.rowidx {
            colptr[r as usize + 1] += 1;
        }
        for i in 0..self.nrows {
            colptr[i + 1] += colptr[i];
        }
        let mut cursor = colptr.clone();
        let mut rowidx = vec![0 as Idx; self.nnz()];
        let mut vals = vec![T::default(); self.nnz()];
        for j in 0..self.ncols {
            for k in self.colptr[j]..self.colptr[j + 1] {
                let r = self.rowidx[k] as usize;
                let dst = cursor[r];
                cursor[r] += 1;
                rowidx[dst] = j as Idx;
                vals[dst] = self.vals[k];
            }
        }
        Self {
            nrows: self.ncols,
            ncols: self.nrows,
            colptr,
            rowidx,
            vals,
        }
    }

    /// Extracts columns `range` as a new matrix with columns relabelled from
    /// zero. `O(cols + nnz of slice)`. Used by phased SUMMA to take `b`
    /// columns of the B operand at a time.
    pub fn column_slice(&self, range: std::ops::Range<usize>) -> Self {
        let lo = self.colptr[range.start];
        let hi = self.colptr[range.end];
        let colptr = self.colptr[range.start..=range.end]
            .iter()
            .map(|&p| p - lo)
            .collect();
        Self {
            nrows: self.nrows,
            ncols: range.len(),
            colptr,
            rowidx: self.rowidx[lo..hi].to_vec(),
            vals: self.vals[lo..hi].to_vec(),
        }
    }

    /// Horizontal concatenation of column blocks (inverse of
    /// [`Csc::column_slice`] partitioning). All blocks must share `nrows`.
    pub fn hcat(blocks: &[Self]) -> Self {
        assert!(!blocks.is_empty());
        let nrows = blocks[0].nrows;
        assert!(blocks.iter().all(|b| b.nrows == nrows));
        let ncols: usize = blocks.iter().map(|b| b.ncols).sum();
        let nnz: usize = blocks.iter().map(|b| b.nnz()).sum();
        let mut colptr = Vec::with_capacity(ncols + 1);
        colptr.push(0usize);
        let mut rowidx = Vec::with_capacity(nnz);
        let mut vals = Vec::with_capacity(nnz);
        for b in blocks {
            let base = *colptr.last().unwrap();
            colptr.extend(b.colptr[1..].iter().map(|&p| base + p));
            rowidx.extend_from_slice(&b.rowidx);
            vals.extend_from_slice(&b.vals);
        }
        Self {
            nrows,
            ncols,
            colptr,
            rowidx,
            vals,
        }
    }

    /// Extracts the columns listed in `cols` (strictly increasing old
    /// indices) as a new matrix with columns relabelled `0..cols.len()`:
    /// new column `j` is old column `cols[j]`. Generalizes
    /// [`Csc::column_slice`] to non-contiguous selections (the benchmark's
    /// layer pass samples operand columns with it). `O(cols + nnz of the
    /// selection)`.
    pub fn select_cols(&self, cols: &[usize]) -> Self {
        debug_assert!(crate::util::is_strictly_increasing(cols));
        if let Some(&last) = cols.last() {
            assert!(last < self.ncols, "selected column {last} out of range");
        }
        let mut colptr = Vec::with_capacity(cols.len() + 1);
        colptr.push(0usize);
        let nnz: usize = cols.iter().map(|&j| self.col_nnz(j)).sum();
        let mut rowidx = Vec::with_capacity(nnz);
        let mut vals = Vec::with_capacity(nnz);
        for &j in cols {
            rowidx.extend_from_slice(self.col_rows(j));
            vals.extend_from_slice(self.col_vals(j));
            colptr.push(rowidx.len());
        }
        Self {
            nrows: self.nrows,
            ncols: cols.len(),
            colptr,
            rowidx,
            vals,
        }
    }

    /// Approximate heap footprint in bytes.
    pub fn bytes(&self) -> usize {
        self.colptr.len() * std::mem::size_of::<usize>()
            + self.rowidx.len() * std::mem::size_of::<Idx>()
            + self.vals.len() * std::mem::size_of::<T>()
    }

    /// Checks the structural invariants; panics with a description on
    /// violation. Cheap enough to run in tests and after every kernel.
    pub fn assert_valid(&self) {
        if let Err(e) = self.validate() {
            panic!("invalid CSC: {e}");
        }
    }

    /// Checks the structural invariants without panicking — total over
    /// arbitrary field contents, including dims and pointer arrays that
    /// never came from a constructor (a corrupt or hostile frame). Every
    /// access is length-guarded, so this cannot itself index out of
    /// bounds or overflow.
    pub fn validate(&self) -> Result<(), &'static str> {
        if self
            .ncols
            .checked_add(1)
            .is_none_or(|n| self.colptr.len() != n)
        {
            return Err("colptr length != ncols + 1");
        }
        if self.colptr[0] != 0 {
            return Err("colptr[0] != 0");
        }
        if self.rowidx.len() != self.vals.len() {
            return Err("rowidx/vals length mismatch");
        }
        if *self.colptr.last().expect("length checked") != self.rowidx.len() {
            return Err("colptr end != nnz");
        }
        if self.colptr.windows(2).any(|w| w[0] > w[1]) {
            return Err("colptr not monotone");
        }
        // colptr[0] == 0, monotone, end == nnz ⇒ every column range is
        // in bounds of rowidx/vals from here on.
        for j in 0..self.ncols {
            let rows = &self.rowidx[self.colptr[j]..self.colptr[j + 1]];
            if !is_strictly_increasing(rows) {
                return Err("rows not sorted+unique within a column");
            }
            if let Some(&last) = rows.last() {
                if last as usize >= self.nrows {
                    return Err("row index out of bounds");
                }
            }
        }
        Ok(())
    }

    /// Elementwise semiring sum over the union of the two nonzero patterns.
    pub fn add_elementwise_in<S: Semiring<Elem = T>>(&self, _s: S, other: &Self) -> Self {
        assert_eq!(self.nrows, other.nrows);
        assert_eq!(self.ncols, other.ncols);
        let mut t = Triples::with_capacity(self.nrows, self.ncols, self.nnz() + other.nnz());
        for j in 0..self.ncols {
            let (ra, va) = (self.col_rows(j), self.col_vals(j));
            let (rb, vb) = (other.col_rows(j), other.col_vals(j));
            let (mut a, mut b) = (0usize, 0usize);
            while a < ra.len() || b < rb.len() {
                let take_a = b >= rb.len() || (a < ra.len() && ra[a] < rb[b]);
                let take_both = a < ra.len() && b < rb.len() && ra[a] == rb[b];
                if take_both {
                    let v = S::add(va[a], vb[b]);
                    if !S::is_annihilator(v) {
                        t.push(ra[a], j as Idx, v);
                    }
                    a += 1;
                    b += 1;
                } else if take_a {
                    t.push(ra[a], j as Idx, va[a]);
                    a += 1;
                } else {
                    t.push(rb[b], j as Idx, vb[b]);
                    b += 1;
                }
            }
        }
        Self::from_sorted_dedup_triples(&t)
    }

    /// Maximum absolute difference between two matrices viewed as dense,
    /// useful for convergence checks and numerical test assertions.
    pub fn max_abs_diff(&self, other: &Self) -> f64 {
        assert_eq!(self.nrows, other.nrows);
        assert_eq!(self.ncols, other.ncols);
        let mut worst = 0.0f64;
        for j in 0..self.ncols {
            let (ra, va) = (self.col_rows(j), self.col_vals(j));
            let (rb, vb) = (other.col_rows(j), other.col_vals(j));
            let (mut a, mut b) = (0usize, 0usize);
            while a < ra.len() || b < rb.len() {
                let d = if b >= rb.len() || (a < ra.len() && ra[a] < rb[b]) {
                    let d = va[a].to_f64().abs();
                    a += 1;
                    d
                } else if a >= ra.len() || rb[b] < ra[a] {
                    let d = vb[b].to_f64().abs();
                    b += 1;
                    d
                } else {
                    let d = (va[a].to_f64() - vb[b].to_f64()).abs();
                    a += 1;
                    b += 1;
                    d
                };
                worst = worst.max(d);
            }
        }
        worst
    }
}

/// A borrowed CSC structure, [`Csc::pattern`]: no values.
#[derive(Clone, Copy, Debug)]
pub struct Pattern<'a> {
    /// Number of rows.
    pub nrows: usize,
    /// `colptr[j]..colptr[j+1]` is the index range of column `j`.
    pub colptr: &'a [usize],
    /// Row index of each nonzero, sorted within each column.
    pub rowidx: &'a [Idx],
}

impl<'a> Pattern<'a> {
    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.colptr.len() - 1
    }

    /// Row indices of column `j` (sorted).
    #[inline]
    pub fn col_rows(&self, j: usize) -> &'a [Idx] {
        &self.rowidx[self.colptr[j]..self.colptr[j + 1]]
    }
}

/// A CSC matrix under construction, column by column: what a
/// column-parallel kernel that learns a column's size by computing it (the
/// SpGEMM kernels, the materializing merge kernels) writes into.
/// Every element is written once, into the arrays the [`Csc`] will own.
#[derive(Debug)]
pub struct CscBuilder<T> {
    nrows: usize,
    colptr: Vec<usize>,
    rowidx: Vec<Idx>,
    vals: Vec<T>,
}

/// Most column blocks [`CscBuilder::build`] cuts — the pool's own cut, so
/// a run of heavy columns leaves the rest to the other threads.
const MAX_BLOCKS: usize = 64;

impl<T: Value> CscBuilder<T> {
    /// Room for `ncols` columns and, if the allocator grants it, `nnz`
    /// entries — address space until written. A product that outgrows its
    /// room, or was refused a bound far beyond memory, grows as it goes.
    fn with_capacity(nrows: usize, ncols: usize, nnz: usize) -> Self {
        let mut colptr = Vec::with_capacity(ncols + 1);
        colptr.push(0);
        let (mut rowidx, mut vals) = (Vec::new(), Vec::new());
        let _ = rowidx.try_reserve_exact(nnz);
        let _ = vals.try_reserve_exact(nnz);
        Self {
            nrows,
            colptr,
            rowidx,
            vals,
        }
    }

    /// Appends a finished column: strictly increasing rows, their values.
    pub fn push_column(&mut self, rows: &[Idx], vals: &[T]) {
        assert_eq!(rows.len(), vals.len(), "one value per row");
        self.rowidx.extend_from_slice(rows);
        self.vals.extend_from_slice(vals);
        self.colptr.push(self.rowidx.len());
    }

    /// Appends a column of exactly `n` entries that `fill` writes in place
    /// — for a kernel that drains an accumulator of known size.
    pub fn push_column_with(&mut self, n: usize, fill: impl FnOnce(&mut [Idx], &mut [T])) {
        let at = self.rowidx.len();
        self.rowidx.resize(at + n, 0);
        self.vals.resize(at + n, T::default());
        fill(&mut self.rowidx[at..], &mut self.vals[at..]);
        self.colptr.push(at + n);
    }

    /// Appends every column of `block`, which this builder's columns end
    /// where `block`'s begin, and frees it.
    fn append(&mut self, block: Self) {
        let base = self.rowidx.len();
        (self.colptr).extend(block.colptr[1..].iter().map(|&p| base + p));
        self.rowidx.extend_from_slice(&block.rowidx);
        self.vals.extend_from_slice(&block.vals);
    }

    /// The matrix, its arrays trimmed to what was written, validated.
    fn finish(mut self) -> Csc<T> {
        self.rowidx.shrink_to_fit();
        self.vals.shrink_to_fit();
        let ncols = self.colptr.len() - 1;
        Csc::from_parts(self.nrows, ncols, self.colptr, self.rowidx, self.vals)
    }

    /// Builds an `nrows × ncols` matrix column-parallel: `column(scratch,
    /// j, out)` appends column `j` to `out` with one `push_column*` call,
    /// using one clone of `scratch` per thread. The result has room for
    /// `reserve` entries — what the caller knows of its size beforehand,
    /// address space until written — and is trimmed when done.
    ///
    /// On a pool of width 1 the columns go straight into the result. On a
    /// wider one they are cut into contiguous blocks, each filled in order
    /// into a builder of its own that grows as it goes, and the blocks are
    /// joined in block order *as they finish*: a finished block parks, and
    /// whoever finds the result at rest and the block it waits for parked
    /// appends that block — outside the lock, the others filling theirs
    /// meanwhile — frees it and looks again. What is live beyond the
    /// result is the blocks being filled and those waiting for a slower
    /// one before them. The cut never shows in the result.
    pub fn build<W, F>(nrows: usize, ncols: usize, reserve: usize, scratch: W, column: F) -> Csc<T>
    where
        W: Clone + Send,
        F: Fn(&mut W, usize, &mut Self) + Sync + Send,
    {
        let fill = |scratch: &mut W, cols: Range<usize>, out: &mut Self| {
            let want = out.colptr.len() + cols.len();
            cols.for_each(|j| column(scratch, j, out));
            assert_eq!(out.colptr.len(), want, "one push per column");
        };
        let nblocks = match rayon::current_num_threads() {
            1 => 1,
            _ => ncols.clamp(1, MAX_BLOCKS),
        };
        let mut out = Self::with_capacity(nrows, ncols, reserve);
        if nblocks == 1 {
            let mut scratch = scratch;
            fill(&mut scratch, 0..ncols, &mut out);
            return out.finish();
        }
        // The result so far — `None` while a thread is appending to it —
        // and the finished blocks that wait for one before them, by first
        // column. Nothing but the hand-over runs under the lock: a column
        // that panics does so outside it, and the pool hands the panic to
        // the caller.
        let joined = Mutex::new((Some(out), BTreeMap::new()));
        let lock = || joined.lock().expect("nothing panics under the lock");
        (0..nblocks)
            .into_par_iter()
            .for_each_with(scratch, |scratch, b| {
                let cols = even_chunk(ncols, nblocks, b);
                let mut block = Self::with_capacity(nrows, cols.len(), 0);
                fill(scratch, cols.clone(), &mut block);
                let mut guard = lock();
                guard.1.insert(cols.start, block);
                // Whoever finds the result at rest and its next block
                // parked appends that block, while the others go on
                // filling theirs, and looks again. Every block holds a
                // column, so the number of columns joined names the block
                // that comes next.
                while let Some(mut out) = guard.0.take() {
                    let Some(next) = guard.1.remove(&(out.colptr.len() - 1)) else {
                        guard.0 = Some(out);
                        break;
                    };
                    drop(guard);
                    out.append(next);
                    guard = lock();
                    guard.0 = Some(out);
                }
            });
        let (out, parked) = joined.into_inner().expect("nothing panics under the lock");
        assert!(parked.is_empty(), "every block joined");
        out.expect("at rest once every thread has left").finish()
    }
}

/// Plus-times shorthands for numeric element types — the MCL default.
/// Each forwards to its `*_in` counterpart with [`PlusTimes`].
impl<T: Value> Csc<T>
where
    PlusTimes<T>: Semiring<Elem = T>,
{
    /// Numeric identity matrix of size `n` (ones on the diagonal).
    pub fn identity(n: usize) -> Self {
        Self::identity_in(PlusTimes::new(), n)
    }

    /// Converts from COO, collapsing duplicates with numeric `+`.
    pub fn from_triples(t: &Triples<T>) -> Self {
        Self::from_triples_in(PlusTimes::new(), t)
    }

    /// Elementwise numeric sum over the pattern union.
    pub fn add_elementwise(&self, other: &Self) -> Self {
        self.add_elementwise_in(PlusTimes::new(), other)
    }
}

impl Csc<f64> {
    /// Dense `nrows × ncols` representation in column-major order. Only for
    /// tests and tiny examples.
    pub fn to_dense(&self) -> Vec<f64> {
        let mut d = vec![0.0; self.nrows * self.ncols];
        for (r, c, v) in self.iter() {
            d[c as usize * self.nrows + r as usize] = v;
        }
        d
    }

    /// Builds from a dense column-major array, skipping zeros.
    pub fn from_dense(nrows: usize, ncols: usize, data: &[f64]) -> Self {
        assert_eq!(data.len(), nrows * ncols);
        let mut t = Triples::new(nrows, ncols);
        for j in 0..ncols {
            for i in 0..nrows {
                let v = data[j * nrows + i];
                if v != 0.0 {
                    t.push(i as Idx, j as Idx, v);
                }
            }
        }
        Self::from_sorted_dedup_triples(&t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csc<f64> {
        // [ 2 0 0 4 ]
        // [ 0 3 0 0 ]
        // [ 5 1 0 0 ]
        let mut t = Triples::new(3, 4);
        t.push(0, 0, 2.0);
        t.push(2, 0, 5.0);
        t.push(1, 1, 3.0);
        t.push(2, 1, 1.0);
        t.push(0, 3, 4.0);
        Csc::from_triples(&t)
    }

    #[test]
    fn from_triples_builds_valid_csc() {
        let m = sample();
        m.assert_valid();
        assert_eq!(m.nnz(), 5);
        assert_eq!(m.col_nnz(0), 2);
        assert_eq!(m.col_nnz(2), 0);
        assert_eq!(m.get(2, 1), Some(1.0));
        assert_eq!(m.get(1, 0), None);
    }

    #[test]
    fn from_triples_sums_duplicates() {
        let mut t = Triples::new(2, 2);
        t.push(1, 1, 1.5);
        t.push(1, 1, 2.5);
        let m = Csc::from_triples(&t);
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.get(1, 1), Some(4.0));
    }

    /// The assembly the builder replaced: one `(rows, vals)` pair per
    /// column, copied into a matrix.
    fn from_columns(nrows: usize, cols: &[(Vec<Idx>, Vec<f64>)]) -> Csc<f64> {
        let mut colptr = vec![0];
        let (mut rowidx, mut vals) = (Vec::new(), Vec::new());
        for (r, v) in cols {
            rowidx.extend_from_slice(r);
            vals.extend_from_slice(v);
            colptr.push(rowidx.len());
        }
        Csc::from_parts(nrows, cols.len(), colptr, rowidx, vals)
    }

    #[test]
    fn builder_assembles_pushed_and_filled_columns() {
        let mut b = CscBuilder::with_capacity(4, 3, 0);
        b.push_column(&[1, 3], &[1.0, 2.0]);
        b.push_column(&[], &[]);
        b.push_column_with(1, |rows, vals| (rows[0], vals[0]) = (0, 5.0));
        let m = b.finish();
        let cols = [
            (vec![1, 3], vec![1.0, 2.0]),
            (vec![], vec![]),
            (vec![0], vec![5.0]),
        ];
        assert_eq!(m, from_columns(4, &cols));
        assert_eq!(m.rowidx.capacity(), 3, "trimmed");
    }

    #[test]
    fn block_joined_build_is_from_columns_then_hcat() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(23);
        let nrows = 40;
        // Zero columns, fewer columns than threads, one full cut, and more
        // columns than the pool cuts blocks; a run of empty columns long
        // enough that whole blocks are empty.
        for ncols in [0usize, 2, 64, 150, 333] {
            let cols: Vec<(Vec<Idx>, Vec<f64>)> = (0..ncols)
                .map(|j| {
                    let fill = if (60..130).contains(&j) || rng.gen_bool(0.3) {
                        0.0
                    } else {
                        rng.gen_range(0.0..0.6)
                    };
                    let rows: Vec<Idx> = (0..nrows as Idx).filter(|_| rng.gen_bool(fill)).collect();
                    let vals = rows.iter().map(|_| rng.gen_range(-1.0..1.0)).collect();
                    (rows, vals)
                })
                .collect();
            let want = from_columns(nrows, &cols);
            for width in [1, 3] {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(width)
                    .build()
                    .unwrap();
                let nblocks = if width == 1 {
                    1
                } else {
                    ncols.clamp(1, MAX_BLOCKS)
                };
                let blocks: Vec<Csc<f64>> = (0..nblocks)
                    .map(|b| from_columns(nrows, &cols[even_chunk(ncols, nblocks, b)]))
                    .collect();
                assert_eq!(Csc::hcat(&blocks), want);
                // Reserving nothing, the exact size, too much and more
                // than any allocator grants all build the same matrix,
                // trimmed.
                for reserve in [0usize, 1, 2, usize::MAX >> 8] {
                    let got = pool.install(|| {
                        CscBuilder::build(
                            nrows,
                            ncols,
                            reserve.saturating_mul(want.nnz()),
                            (),
                            |(), j, out| match j % 2 {
                                0 => out.push_column(&cols[j].0, &cols[j].1),
                                _ => out.push_column_with(cols[j].0.len(), |rows, vals| {
                                    rows.copy_from_slice(&cols[j].0);
                                    vals.copy_from_slice(&cols[j].1);
                                }),
                            },
                        )
                    });
                    assert_eq!(got, want, "{ncols} columns, width {width}");
                    assert_eq!(got.rowidx.capacity(), got.nnz());
                    assert_eq!(got.vals.capacity(), got.nnz());
                }
            }
        }
    }

    #[test]
    fn a_first_block_that_finishes_last_joins_every_block_parked_behind_it() {
        use std::sync::Condvar;
        use std::thread::ThreadId;
        /// The threads that have run out of blocks. A thread drops its
        /// scratch when the pool has no block left to hand it, after it
        /// parked the last one it filled.
        static DONE: (Mutex<Vec<ThreadId>>, Condvar) = (Mutex::new(Vec::new()), Condvar::new());
        #[derive(Clone)]
        struct Scratch;
        impl Drop for Scratch {
            fn drop(&mut self) {
                if let Ok(mut done) = DONE.0.lock() {
                    done.push(std::thread::current().id());
                    DONE.1.notify_all();
                }
            }
        }
        // 150 columns in 64 blocks; column `j` holds rows `j % 7 .. 7`.
        let (nrows, ncols) = (7, 150);
        let push = |j: usize, out: &mut CscBuilder<f64>| {
            let rows: Vec<Idx> = (j as Idx % 7..7).collect();
            let vals: Vec<f64> = rows.iter().map(|&r| (j * 7) as f64 + r as f64).collect();
            out.push_column(&rows, &vals);
        };
        let pool = |width| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(width)
                .build()
                .unwrap()
        };
        let want =
            pool(1).install(|| CscBuilder::build(nrows, ncols, 0, (), |(), j, out| push(j, out)));
        // Whoever fills block 0 stays in column 0 until the other thread
        // is out of blocks: blocks 1..64 are all parked by then, and the
        // join runs when block 0, the one they wait for, arrives last.
        let got = pool(2).install(|| {
            CscBuilder::build(nrows, ncols, 0, Scratch, |_, j, out| {
                if j == 0 {
                    let me = std::thread::current().id();
                    let others_left = |done: &mut Vec<ThreadId>| done.iter().all(|&t| t == me);
                    drop(DONE.1.wait_while(DONE.0.lock().unwrap(), others_left));
                }
                push(j, out)
            })
        });
        assert_eq!(got, want);
        assert_eq!(got.ncols(), ncols);
    }

    #[test]
    #[should_panic(expected = "one push per column")]
    fn a_column_pushed_twice_is_caught() {
        CscBuilder::<f64>::build(3, 2, 0, (), |(), _, out| {
            out.push_column(&[], &[]);
            out.push_column(&[], &[]);
        });
    }

    #[test]
    fn roundtrip_triples() {
        let m = sample();
        let back = Csc::from_triples(&m.to_triples());
        assert_eq!(m, back);
    }

    #[test]
    fn transpose_involution() {
        let m = sample();
        let tt = m.transposed().transposed();
        assert_eq!(m, tt);
        m.transposed().assert_valid();
    }

    #[test]
    fn transpose_values_move() {
        let m = sample().transposed();
        assert_eq!(m.get(1, 2), Some(1.0));
        assert_eq!(m.get(3, 0), Some(4.0));
    }

    #[test]
    fn column_slice_and_hcat_roundtrip() {
        let m = sample();
        let a = m.column_slice(0..2);
        let b = m.column_slice(2..4);
        assert_eq!(a.ncols(), 2);
        assert_eq!(b.ncols(), 2);
        let glued = Csc::hcat(&[a, b]);
        assert_eq!(glued, m);
    }

    #[test]
    fn select_cols_matches_column_slice_on_contiguous_ranges() {
        let m = sample();
        assert_eq!(m.select_cols(&[1, 2]), m.column_slice(1..3));
        assert_eq!(m.select_cols(&[0, 1, 2, 3]), m);
        let empty = m.select_cols(&[]);
        empty.assert_valid();
        assert_eq!(empty.ncols(), 0);
        assert_eq!(empty.nnz(), 0);
    }

    #[test]
    fn select_cols_relabels_through_the_index_map() {
        let m = sample();
        let keep = [0usize, 2, 3];
        let s = m.select_cols(&keep);
        s.assert_valid();
        assert_eq!(s.ncols(), 3);
        // New column j is old column keep[j], entry for entry.
        for (new, &old) in keep.iter().enumerate() {
            assert_eq!(s.col_rows(new), m.col_rows(old), "col {old}");
            assert_eq!(s.col_vals(new), m.col_vals(old), "col {old}");
        }
    }

    #[test]
    fn identity_is_identity() {
        let i = Csc::<f64>::identity(3);
        i.assert_valid();
        let m = sample();
        // m * I should equal m; spot-check via dense mult.
        let d = m.to_dense();
        assert_eq!(d.len(), 12);
        assert_eq!(i.get(2, 2), Some(1.0));
        assert_eq!(i.nnz(), 3);
    }

    #[test]
    fn add_elementwise_unions_patterns() {
        let a = sample();
        let mut t = Triples::new(3, 4);
        t.push(0, 0, -2.0); // cancels a's (0,0)
        t.push(2, 2, 9.0); // new entry
        let b = Csc::from_triples(&t);
        let s = a.add_elementwise(&b);
        s.assert_valid();
        assert_eq!(s.get(0, 0), None, "cancellation drops entry");
        assert_eq!(s.get(2, 2), Some(9.0));
        assert_eq!(s.get(2, 0), Some(5.0));
    }

    #[test]
    fn dense_roundtrip() {
        let m = sample();
        let d = m.to_dense();
        let back = Csc::from_dense(3, 4, &d);
        assert_eq!(m, back);
    }

    #[test]
    fn max_abs_diff_detects_difference() {
        let a = sample();
        let mut b = sample();
        assert_eq!(a.max_abs_diff(&b), 0.0);
        b.vals[3] += 0.25;
        assert!((a.max_abs_diff(&b) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn zero_matrix() {
        let z = Csc::<f64>::zero(5, 7);
        z.assert_valid();
        assert_eq!(z.nnz(), 0);
        assert_eq!(z.ncols(), 7);
    }
}
