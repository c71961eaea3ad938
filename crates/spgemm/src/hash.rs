//! Hash-assisted column-by-column SpGEMM (Nagasaka, Matsuoka, Azad, Buluç —
//! ICPP Workshops 2018, arXiv:1804.01698), the CPU kernel the paper
//! integrates in §VI.
//!
//! One pass: [`multiply_cols_with`] walks the output columns, accumulates
//! each in the worker's [`HashScratch`] opened at the column's bound
//! `min(flops_j, nrows)`, and appends the drained column to a
//! [`CscBuilder`] that reserved the product's bound — or whatever the
//! caller's `emit` makes of it: the serial MCL iteration appends it pruned
//! and inflated, and `multiply_emit` hands it to an [`Emit`], the hook
//! every kernel of the workspace shares. Nothing is counted before it is
//! computed: the key-only pass of the two-phase formulation survives only
//! as the exact count of [`crate::symbolic`], on this module's stamps. The
//! accumulator's storage only grows, and it finds a row's slot in one of
//! two ways ([`Addressing`]), chosen from the operands alone:
//!
//! * **direct** while one slot per row of `A` fits a cache-resident budget
//!   ([`DIRECT_BUDGET_BYTES`]): the slot is the row id — no hashing, no
//!   probing, no key compare. Occupancy is a two-level bitmap, so the drain
//!   walks set bits, which is ascending row order, and clears only the words
//!   it finds; the symbolic pass needs no drain and keeps a generation stamp
//!   per row instead (one store and a branch-free count per product).
//! * **hashed** above the budget — the hypersparse blocks §VI adopts hash
//!   accumulation for — and for products bounded under one output row per
//!   4096 rows of `A`: an open-addressing table opened per column at the
//!   smallest power of two that holds the column's bound at ≤ 50 % load,
//!   so the hot table tracks the column, not the largest column the worker
//!   ever saw; the drained column is radix-sorted (MCL merges and prunes
//!   sorted columns).
//!
//! Either way accumulation is `O(1)` expected per product — no `lg` factor —
//! which is why this kernel beats heaps when the compression factor
//! `cf = flops/nnz(C)` is large, the regime of the expensive MCL iterations.
//!
//! A column whose `A_{*k}`, `k ∈ B_{*j}`, all have one row pattern — every
//! column of a clustered MCL iterate from iteration 2 on — needs no table:
//! [`shared_column`] forms it as an axpy chain over the shared rows.
//!
//! Every output entry folds its products in ascending position `l` within
//! `B_{*j}`; addressing, table size, pass count and the shared-pattern path
//! never touch that order, so values are bit-identical to the heap kernel.

use crate::analysis::{flops_per_column, nnz_bound};
use crate::emit::{Emit, Push};
use hipmcl_sparse::{Csc, CscBuilder, Idx, PlusTimes, Semiring, Value};
use std::ops::Range;

const EMPTY: Idx = Idx::MAX;

/// How an accumulator finds a key's slot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Addressing {
    /// Slot = key: no hashing, no probing, no key compare, one slot per key
    /// of the universe.
    Direct,
    /// Fibonacci-hashed linear probing into a table sized for the column.
    #[default]
    Hashed,
}

/// Bytes of direct-addressed value slots one worker may own: half a common
/// private L2, so the slots stay cache-resident next to the operands
/// (EXPERIMENTS.md, "Direct or hashed": direct wins 1.2–2.4× wherever the
/// slots fit, and on this host's 2 MiB L2 well beyond).
pub const DIRECT_BUDGET_BYTES: usize = 512 << 10;

/// Keys one word of [`HashScratch`]'s bitmap summary spans. A column with
/// fewer keys than its universe has summary words pays a walk and a cache
/// line per key where a table of its own size is a line or two: hashed
/// wins below one key per span (same sweep, uniform columns of 1–16 keys).
const SUMMARY_SPAN: usize = 64 * 64;

impl Addressing {
    /// The mode for a column of about `n` distinct keys below `universe`
    /// with values of type `T`: direct while one slot per possible key fits
    /// [`DIRECT_BUDGET_BYTES`] and the column is not hypersparse in its
    /// universe.
    pub fn of<T>(n: usize, universe: usize) -> Self {
        let fits = universe.saturating_mul(std::mem::size_of::<T>()) <= DIRECT_BUDGET_BYTES;
        if fits && n.saturating_mul(SUMMARY_SPAN) >= universe {
            Addressing::Direct
        } else {
            Addressing::Hashed
        }
    }
}

/// Direct-addressed key counter of the exact counts (`crate::symbolic`):
/// `marks[key] == gen` says the current term of the current column has the
/// key, `marks[key] > base` that some term of the column has. One store and
/// two branch-free counts per key; nothing to reset between columns until
/// the generations wrap.
#[derive(Clone, Default)]
pub(crate) struct Stamps {
    marks: Vec<u8>,
    gen: u8,
}

impl Stamps {
    /// One output column of a sum of terms: adds the number of distinct
    /// keys of each term's key lists to `per_term`, and returns that of
    /// their union. Every key is below `universe`; panics on one outside
    /// it, or on 255 terms or more.
    pub(crate) fn count_terms<'a, C: Iterator<Item = &'a [Idx]>>(
        &mut self,
        universe: usize,
        terms: impl Iterator<Item = C>,
        per_term: &mut [usize],
    ) -> usize {
        let n = per_term.len();
        assert!(
            n < u8::MAX as usize,
            "{n} terms: a column stamps at most 254"
        );
        if self.marks.len() < universe {
            self.marks.resize(universe, 0);
        }
        if self.gen as usize + n > u8::MAX as usize {
            self.marks.fill(0);
            self.gen = 0;
        }
        let (marks, base) = (&mut self.marks[..universe], self.gen);
        let mut union = 0;
        for (t, (columns, count)) in terms.zip(per_term.iter_mut()).enumerate() {
            let gen = base + 1 + t as u8;
            for keys in columns {
                for &key in keys {
                    let mark = &mut marks[key as usize];
                    *count += (*mark != gen) as usize;
                    union += (*mark <= base) as usize;
                    *mark = gen;
                }
            }
        }
        self.gen = base + n as u8;
        union
    }
}

/// Linear-probing key set reused across columns by one worker.
/// Between columns every slot is `EMPTY`, so any power-of-two prefix of
/// the storage is a valid empty table: [`KeySet::open`] only picks the
/// size, and grows the storage when a column needs more than any before.
#[derive(Clone, Default)]
struct KeySet {
    keys: Vec<Idx>,
    /// Slots touched by the current column, for O(touched) reset.
    touched: Vec<u32>,
    mask: usize,
    /// `64 − lg(mask + 1)`: Fibonacci hashing keeps the product's top bits.
    shift: u32,
}

impl KeySet {
    /// Opens an empty table for a column of at most `n` distinct keys:
    /// `2^k ≥ 2n` slots, so a column that keeps its promise never loads it
    /// past 50 %. Nagasaka's `2^k > n` probes at up to 100 % load, 20–40 %
    /// slower here, and `2^k ≥ 4n` leaves L1
    /// (EXPERIMENTS.md, "Two-phase local SpGEMM").
    fn open(&mut self, n: usize) {
        assert!(self.touched.is_empty(), "previous column was not drained");
        let size = (2 * n).next_power_of_two().max(2);
        if self.keys.len() < size {
            self.keys.resize(size, EMPTY);
        }
        self.mask = size - 1;
        self.shift = 64 - size.trailing_zeros();
    }

    /// Finds `key`'s slot, claiming an empty one on first touch; the flag
    /// is `true` on insert.
    #[inline]
    fn probe(&mut self, key: Idx) -> (usize, bool) {
        // Fibonacci hashing: the top bits of `key · 2^64/φ` place runs of
        // consecutive row ids at golden-ratio spacing, almost collision-free.
        let mut s = ((key as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize;
        loop {
            let k = self.keys[s];
            if k == key {
                return (s, false);
            }
            if k == EMPTY {
                // A full table would make the next miss probe forever.
                assert!(
                    self.touched.len() < self.mask,
                    "column has more distinct rows than its table was opened for"
                );
                self.keys[s] = key;
                self.touched.push(s as u32);
                return (s, true);
            }
            s = (s + 1) & self.mask;
        }
    }

    /// Clears touched slots in `O(touched)`.
    fn reset(&mut self) {
        for &s in &self.touched {
            self.keys[s as usize] = EMPTY;
        }
        self.touched.clear();
    }
}

/// Sorts `key << 32 | slot` words by their (distinct) keys: short inputs as
/// whole words by the standard sort, the rest by LSD radix passes over the
/// bytes some key uses — `O(n)` where comparing pays `lg n` unpredictable
/// branches per word, a third of the hash kernels' time at low `cf`.
fn sort_by_key(words: &mut Vec<u64>, spare: &mut Vec<u64>) {
    if words.len() < 64 {
        return words.sort_unstable();
    }
    let used = words.iter().fold(0, |m, &w| m | w) >> 32;
    spare.resize(words.len(), 0);
    for shift in (32..64).step_by(8).take_while(|s| used >> (s - 32) != 0) {
        let digit = |w: u64| (w >> shift) as usize & 0xFF;
        let mut next = [0usize; 256];
        words.iter().for_each(|&w| next[digit(w)] += 1);
        let mut start = 0;
        for n in &mut next {
            start += std::mem::replace(n, start);
        }
        for &w in words.iter() {
            spare[next[digit(w)]] = w;
            next[digit(w)] += 1;
        }
        std::mem::swap(words, spare);
    }
}

/// Accumulator reused across columns by one worker, in either addressing
/// mode: one value per slot, found by key ([`Addressing::Direct`]) or by a
/// `KeySet` probe ([`Addressing::Hashed`]). The one accumulator of the
/// workspace — the CPU hash and SPA kernels, every device launch in
/// `hipmcl-gpu` and the stage products a SUMMA phase forms column by
/// column all run on it.
///
/// Between columns the key set is empty and every bitmap word is zero, so
/// any prefix of the storage is a valid empty accumulator: opening only
/// picks mode and size, and grows what a column needs more of than any
/// before.
#[derive(Clone, Default)]
pub struct HashScratch<T> {
    mode: Addressing,
    universe: usize,
    vals: Vec<T>,
    /// Hashed: slot finder, and the drain's `key << 32 | slot` words with
    /// the radix sort's spare.
    set: KeySet,
    order: Vec<u64>,
    spare: Vec<u64>,
    /// Direct: one occupancy bit per key, one bit per nonzero word of
    /// `bits` — the drain walks set bits, which is ascending key order, and
    /// clears only the words it finds — and the number of bits set.
    bits: Vec<u64>,
    summary: Vec<u64>,
    len: usize,
}

impl<T: Value> HashScratch<T> {
    /// Opens an empty accumulator for a column of at most `n` distinct keys
    /// below `universe`, addressed as [`Addressing::of`] says. Panics if the
    /// previous column was not drained.
    pub fn open(&mut self, n: usize, universe: usize) {
        self.open_as(Addressing::of::<T>(n, universe), n, universe);
    }

    /// [`HashScratch::open`] with the addressing mode given.
    pub fn open_as(&mut self, mode: Addressing, n: usize, universe: usize) {
        assert!(self.is_empty(), "previous column was not drained");
        (self.mode, self.universe) = (mode, universe);
        let slots = match mode {
            Addressing::Direct => {
                let words = universe.div_ceil(64);
                if self.bits.len() < words {
                    self.bits.resize(words, 0);
                    self.summary.resize(words.div_ceil(64), 0);
                }
                universe
            }
            Addressing::Hashed => {
                self.set.open(n);
                self.set.keys.len()
            }
        };
        if self.vals.len() < slots {
            // Placeholder only: every slot's value is overwritten on first
            // touch, so no semiring identity is needed here.
            self.vals.resize(slots, T::default());
        }
    }

    /// Accumulates every `(key, val)` of `entries` into `key`'s slot with
    /// the semiring's addition, in order, inserting on first touch. Panics
    /// (direct) on a key outside the universe, (hashed) if the column turns
    /// out to have more distinct keys than it was opened for.
    #[inline]
    pub fn extend<S: Semiring<Elem = T>>(
        &mut self,
        _sr: S,
        entries: impl IntoIterator<Item = (Idx, T)>,
    ) {
        match self.mode {
            Addressing::Direct => {
                // Slices as long as the universe: indexing is the key check.
                let slots = &mut self.vals[..self.universe];
                let bits = &mut self.bits[..self.universe.div_ceil(64)];
                for (key, val) in entries {
                    let slot = &mut slots[key as usize];
                    let w = key as usize >> 6;
                    let (word, bit) = (bits[w], 1u64 << (key & 63));
                    if word & bit != 0 {
                        *slot = S::add(*slot, val);
                    } else {
                        *slot = val;
                        bits[w] = word | bit;
                        self.summary[w >> 6] |= 1 << (w & 63);
                        self.len += 1;
                    }
                }
            }
            Addressing::Hashed => {
                for (key, val) in entries {
                    let (s, inserted) = self.set.probe(key);
                    self.vals[s] = if inserted {
                        val
                    } else {
                        S::add(self.vals[s], val)
                    };
                }
            }
        }
    }

    /// Number of distinct keys currently stored.
    pub fn len(&self) -> usize {
        self.set.touched.len() + self.len
    }

    /// `true` if no key is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drains `(key, val)` pairs sorted by key into the output slices of
    /// column `col` and resets the accumulator. Panics if the slices are not
    /// exactly [`HashScratch::len`] long — a wrong count must not become a
    /// malformed column. `col` only labels the panic.
    pub fn drain_sorted_into(&mut self, col: usize, rows: &mut [Idx], vals: &mut [T]) {
        assert!(
            rows.len() == self.len() && vals.len() == self.len(),
            "column {col}: count {} but {} distinct rows accumulated",
            rows.len(),
            self.len()
        );
        match self.mode {
            Addressing::Direct => {
                let mut out = rows.iter_mut().zip(vals);
                let nsummary = self.universe.div_ceil(64).div_ceil(64);
                for (i, summary) in self.summary[..nsummary].iter_mut().enumerate() {
                    let mut nonzero = std::mem::take(summary);
                    while nonzero != 0 {
                        let w = i << 6 | nonzero.trailing_zeros() as usize;
                        nonzero &= nonzero - 1;
                        let mut word = std::mem::take(&mut self.bits[w]);
                        while word != 0 {
                            let key = w << 6 | word.trailing_zeros() as usize;
                            word &= word - 1;
                            let (r, v) = out.next().expect("as many slots as bits set");
                            (*r, *v) = (key as Idx, self.vals[key]);
                        }
                    }
                }
                self.len = 0;
            }
            Addressing::Hashed => {
                let keys = &self.set.keys;
                self.order.clear();
                self.order.extend(
                    (self.set.touched.iter()).map(|&s| (keys[s as usize] as u64) << 32 | s as u64),
                );
                sort_by_key(&mut self.order, &mut self.spare);
                for (i, &w) in self.order.iter().enumerate() {
                    rows[i] = (w >> 32) as Idx;
                    vals[i] = self.vals[w as u32 as usize];
                }
                self.set.reset();
            }
        }
    }
}

/// Multiplies `C = A · B` with hash accumulation in the given semiring, in
/// one pass.
pub fn multiply_in<S: Semiring>(s: S, a: &Csc<S::Elem>, b: &Csc<S::Elem>) -> Csc<S::Elem> {
    multiply_emit(s, a, b, 0..b.ncols(), &flops_per_column(a, b), None, Push)
}

/// [`multiply_in`] with the numeric plus-times semiring — MCL's default.
pub fn multiply<T: Value>(a: &Csc<T>, b: &Csc<T>) -> Csc<T>
where
    PlusTimes<T>: Semiring<Elem = T>,
{
    multiply_in(PlusTimes::new(), a, b)
}

/// The one addressing mode of a product with `fpc` flops per column and
/// `nrows` rows, from the mean column's bound: a direct column among hashed
/// ones would find its slots evicted.
fn mode_of<T>(fpc: &[u64], nrows: usize) -> Addressing {
    let mean = nnz_bound(fpc, nrows).div_ceil(fpc.len().max(1));
    Addressing::of::<T>(mean, nrows)
}

/// [`multiply_in`] given `fpc`, with the addressing mode given instead of
/// derived from the operands.
pub fn multiply_as<S: Semiring>(
    mode: Addressing,
    sr: S,
    a: &Csc<S::Elem>,
    b: &Csc<S::Elem>,
    fpc: &[u64],
) -> Csc<S::Elem> {
    multiply_emit(sr, a, b, 0..b.ncols(), fpc, Some(mode), Push)
}

/// Columns `cols` of `A · B`, each opened at its bound `min(flops_j, nrows)`
/// in `mode` (by default the product's, from `fpc[cols]`) and handed to
/// `emit` when finished, with room reserved for what `emit` keeps. `fpc` is
/// `flops_per_column(a, b)`.
pub(crate) fn multiply_emit<S: Semiring, E: Emit<S::Elem>>(
    sr: S,
    a: &Csc<S::Elem>,
    b: &Csc<S::Elem>,
    cols: Range<usize>,
    fpc: &[u64],
    mode: Option<Addressing>,
    mut emit: E,
) -> Csc<S::Elem> {
    assert_eq!(fpc.len(), b.ncols(), "one flops entry per output column");
    let nrows = a.nrows();
    let mode = mode.unwrap_or_else(|| mode_of::<S::Elem>(&fpc[cols.clone()], nrows));
    let reserve = crate::emit::reserve(&emit, cols.clone(), fpc, nrows);
    let open = |table: &mut HashScratch<S::Elem>, j: usize| {
        table.open_as(mode, (fpc[j] as usize).min(nrows), nrows)
    };
    let mut buf = (Vec::new(), Vec::new());
    multiply_cols_with(sr, a, b, cols, reserve, open, move |col, j, out| {
        emit.emit_column(col, j, out, &mut buf)
    })
}

/// A finished output column: still in the worker's accumulator, or formed
/// by [`shared_column`] as rows and values.
pub enum Column<'a, T> {
    /// Accumulated, not yet drained.
    Table(&'a mut HashScratch<T>),
    /// Rows and values, in ascending row order.
    Formed(&'a [Idx], &'a [T]),
}

/// What the column loop does with a finished column unless told
/// otherwise: appends it to `out` as it is, draining the accumulator.
pub fn append<T: Value>(col: Column<'_, T>, j: usize, out: &mut CscBuilder<T>) {
    match col {
        Column::Table(table) => out.push_column_with(table.len(), |rows, vals| {
            table.drain_sorted_into(j, rows, vals)
        }),
        Column::Formed(rows, vals) => out.push_column(rows, vals),
    }
}

/// The one-pass column loop of every hash kernel in the workspace (this
/// module's, the SPA kernel, every device launch in `hipmcl-gpu`, the
/// serial MCL iteration): columns `cols` of `A · B` as an `nrows(A) ×
/// cols.len()` matrix with room reserved for `reserve` entries.
/// `open(table, j)` opens the worker's accumulator for output column `j`
/// unless [`shared_column`] forms the column without one — `open` owns
/// table size and addressing; a table opened too small panics there.
/// `emit(column, j, out)` then pushes what it makes of the finished column
/// to `out`, once: [`append`] pushes it unchanged. Each worker runs its
/// own clone of `emit`, so what `emit` owns — buffers a column is drained
/// into, say — is per worker.
pub fn multiply_cols_with<S: Semiring>(
    sr: S,
    a: &Csc<S::Elem>,
    b: &Csc<S::Elem>,
    cols: Range<usize>,
    reserve: usize,
    open: impl Fn(&mut HashScratch<S::Elem>, usize) + Sync + Send,
    emit: impl FnMut(Column<'_, S::Elem>, usize, &mut CscBuilder<S::Elem>) + Clone + Send,
) -> Csc<S::Elem> {
    assert_eq!(a.ncols(), b.nrows(), "inner dimensions must agree");
    CscBuilder::build(
        a.nrows(),
        cols.len(),
        reserve,
        (HashScratch::default(), Vec::new(), emit),
        |(table, formed, emit), j, out| {
            let j = cols.start + j;
            if let Some(rows) = shared_column(sr, a, b, j, formed) {
                return emit(Column::Formed(rows, formed), j, out);
            }
            open(table, j);
            accumulate(sr, table, a, b, j);
            emit(Column::Table(table), j, out);
        },
    )
}

/// Column `j` of `A ⊗ B` without a table when every `A_{*k}` that `B_{*j}`
/// reads has one nonempty row pattern `R`, which it returns: `vals` becomes
/// `A_{*k₀} ⊗ b_{k₀j}`, then `⊕ A_{*k} ⊗ b_{kj}` in ascending position —
/// [`accumulate`]'s fold, entry by entry. `None` for any other column,
/// rejected by length, first and last row, then an exact compare.
pub fn shared_column<'a, S: Semiring>(
    _: S,
    a: &'a Csc<S::Elem>,
    b: &Csc<S::Elem>,
    j: usize,
    vals: &mut Vec<S::Elem>,
) -> Option<&'a [Idx]> {
    let (ks, bvs) = (b.col_rows(j), b.col_vals(j));
    let rows = a.col_rows(*ks.first()? as usize);
    let ends = (*rows.first()?, *rows.last()?);
    let same_ends = |&k: &Idx| {
        let r = a.col_rows(k as usize);
        r.len() == rows.len() && (r[0], r[r.len() - 1]) == ends
    };
    if !ks.iter().all(same_ends) || !ks.iter().all(|&k| a.col_rows(k as usize) == rows) {
        return None;
    }
    vals.clear();
    let (k0, b0) = (ks[0] as usize, bvs[0]);
    vals.extend(a.col_vals(k0).iter().map(|&av| S::mul(av, b0)));
    for (&k, &bv) in ks.iter().zip(bvs).skip(1) {
        for (c, &av) in vals.iter_mut().zip(a.col_vals(k as usize)) {
            *c = S::add(*c, S::mul(av, bv));
        }
    }
    Some(rows)
}

/// The column body of every hash kernel: folds column `j` of `A ⊗ B` into
/// `table`, opened for it, one product `a_ik ⊗ b_kj` at a time in
/// ascending position `l` within `B_{*j}` — the order that fixes every
/// value.
pub fn accumulate<S: Semiring>(
    sr: S,
    table: &mut HashScratch<S::Elem>,
    a: &Csc<S::Elem>,
    b: &Csc<S::Elem>,
    j: usize,
) {
    for (&k, &bv) in b.col_rows(j).iter().zip(b.col_vals(j)) {
        let k = k as usize;
        let scaled = a.col_vals(k).iter().map(|&av| S::mul(av, bv));
        table.extend(sr, a.col_rows(k).iter().copied().zip(scaled));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{dense_reference, random_csc};
    use std::sync::{Condvar, Mutex};
    use std::thread::ThreadId;
    use Addressing::{Direct, Hashed};

    const PT: PlusTimes<f64> = PlusTimes::new();

    /// Drains `s` into fresh vectors.
    fn drained(s: &mut HashScratch<f64>) -> (Vec<Idx>, Vec<f64>) {
        let (mut rows, mut vals) = (vec![0; s.len()], vec![0.0; s.len()]);
        s.drain_sorted_into(0, &mut rows, &mut vals);
        (rows, vals)
    }

    #[test]
    fn the_rule_is_bytes_of_slots_and_keys_per_summary_word() {
        let fits = DIRECT_BUDGET_BYTES / 8;
        assert_eq!(Addressing::of::<f64>(fits, fits), Direct);
        assert_eq!(Addressing::of::<f64>(fits + 1, fits + 1), Hashed);
        assert_eq!(Addressing::of::<bool>(8 * fits, 8 * fits), Direct);
        assert_eq!(Addressing::of::<bool>(8 * fits + 1, 8 * fits + 1), Hashed);
        assert_eq!(Addressing::of::<f64>(0, SUMMARY_SPAN), Hashed);
        assert_eq!(Addressing::of::<f64>(1, SUMMARY_SPAN), Direct);
        assert_eq!(Addressing::of::<f64>(1, SUMMARY_SPAN + 1), Hashed);
        assert_eq!(Addressing::of::<f64>(2, 2 * SUMMARY_SPAN), Direct);
    }

    #[test]
    fn extend_accumulates_in_both_modes() {
        for mode in [Direct, Hashed] {
            let mut s = HashScratch::<f64>::default();
            s.open_as(mode, 4, 8);
            s.extend(PT, [(7, 1.0), (3, 2.0)]);
            s.extend(PT, [(7, 0.5)]);
            assert_eq!(s.len(), 2);
            assert_eq!(drained(&mut s), (vec![3, 7], vec![2.0, 1.5]));
            assert!(s.is_empty(), "drain resets");
        }
    }

    #[test]
    fn radix_order_equals_comparison_order() {
        // Keys of 1–4 bytes; 63/64 straddle the cutoff.
        let steps = [5, 3, 131, 70_001, 2_000_003u64];
        for (n, step) in [63, 64, 500, 3000, 2000].into_iter().zip(steps) {
            let mut words: Vec<u64> = (0..n).map(|i| (i * 7919 % n * step) << 32 | i).collect();
            let mut want = words.clone();
            want.sort_unstable();
            sort_by_key(&mut words, &mut Vec::new());
            assert_eq!(words, want, "n = {n}, step = {step}");
        }
    }

    #[test]
    fn key_set_counts_distinct() {
        let mut s = KeySet::default();
        s.open(8);
        assert!(s.probe(1).1);
        assert!(s.probe(2).1);
        assert!(!s.probe(1).1);
        assert_eq!(s.touched.len(), 2);
    }

    #[test]
    fn stamps_count_distinct_across_generation_wraps() {
        let mut s = Stamps::default();
        let count = |s: &mut Stamps, universe, cols: &[&[Idx]]| {
            s.count_terms(universe, std::iter::once(cols.iter().copied()), &mut [0])
        };
        for _ in 0..600 {
            assert_eq!(count(&mut s, 6, &[&[0, 3, 5], &[3, 4]]), 4);
        }
        // A wider universe later: stale marks below it must not count.
        assert_eq!(count(&mut s, 9, &[&[8, 0]]), 2);
    }

    #[test]
    fn stamps_count_terms_and_their_union_across_generation_wraps() {
        let mut s = Stamps::default();
        let terms: [&[&[Idx]]; 3] = [&[&[0, 3], &[3]], &[&[3, 5]], &[&[1]]];
        for _ in 0..300 {
            let mut per_term = [0; 3];
            let columns = terms.iter().map(|t| t.iter().copied());
            let union = s.count_terms(6, columns, &mut per_term);
            assert_eq!((per_term, union), ([2, 2, 1], 4));
        }
    }

    #[test]
    fn table_shrinks_and_grows_per_column() {
        // A big column, then a small one in a prefix of the same storage,
        // then a bigger one: each sees an empty table of its own size.
        let mut s = HashScratch::<f64>::default();
        for n in [300usize, 3, 1000] {
            s.open_as(Hashed, n, 7000);
            assert_eq!(s.set.mask + 1, (2 * n).next_power_of_two());
            s.extend(PT, (0..n as Idx).flat_map(|k| [(k * 7, 1.0); 2]));
            let (rows, vals) = drained(&mut s);
            assert!(rows.windows(2).all(|w| w[0] < w[1]));
            assert!(vals.iter().all(|&v| v == 2.0));
        }
        assert_eq!(s.set.keys.len(), 2048, "storage only grows");
        assert!(s.set.keys.iter().all(|&k| k == EMPTY));
    }

    #[test]
    fn direct_drain_is_ascending_at_every_word_edge() {
        // Universes around one bitmap word and one summary word, the last
        // key of each, and a wide universe after a narrow one and back.
        let mut s = HashScratch::<f64>::default();
        for universe in [63usize, 64, 65, 4095, 4096, 4097, 1, 70_000, 64] {
            s.open_as(Direct, 0, universe);
            let keys: Vec<Idx> = (0..universe as Idx).rev().step_by(61).collect();
            s.extend(PT, keys.iter().map(|&k| (k, 1.0)));
            s.extend(PT, keys.iter().map(|&k| (k, k as f64)));
            assert_eq!(s.len(), keys.len());
            let (rows, vals) = drained(&mut s);
            assert_eq!(rows, keys.iter().rev().copied().collect::<Vec<_>>());
            assert_eq!(rows[rows.len() - 1] as usize, universe - 1);
            assert!(rows.iter().zip(&vals).all(|(&r, &v)| v == 1.0 + r as f64));
            assert!(
                s.bits.iter().chain(&s.summary).all(|&w| w == 0),
                "drain resets"
            );
        }
    }

    #[test]
    #[should_panic(expected = "more distinct rows")]
    fn overfull_table_panics_instead_of_spinning() {
        let mut s = HashScratch::<f64>::default();
        s.open_as(Hashed, 3, 8); // 8 slots: the eighth key would fill the table
        s.extend(PT, (0..8).map(|k| (k, 1.0)));
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn direct_key_outside_the_universe_panics() {
        let mut s = HashScratch::<f64>::default();
        s.open_as(Direct, 1, 4096);
        drained(&mut s);
        // Storage reaches 4095, the universe does not.
        s.open_as(Direct, 1, 100);
        s.extend(PT, [(100, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn symbolic_direct_key_outside_the_universe_panics() {
        let mut s = Stamps::default();
        s.count_terms(4096, std::iter::once([].into_iter()), &mut [0]);
        s.count_terms(100, std::iter::once([&[100][..]].into_iter()), &mut [0]);
    }

    /// The submitting thread of the run in progress, and whether a worker
    /// has reached the marked column yet.
    static GATE: (Mutex<(Option<ThreadId>, bool)>, Condvar) =
        (Mutex::new((None, false)), Condvar::new());
    const MARK: f64 = 7.0;

    /// `(+, ×)` on `f64` that keeps the submitting thread inside its first
    /// product until another thread multiplies by [`MARK`]: the column of
    /// `B` holding the mark provably runs on a pool worker.
    #[derive(Clone, Copy, Debug, Default)]
    struct Gated;

    impl Semiring for Gated {
        type Elem = f64;
        const ZERO: f64 = 0.0;
        const ONE: f64 = 1.0;
        fn add(a: f64, b: f64) -> f64 {
            a + b
        }
        fn mul(a: f64, b: f64) -> f64 {
            let (state, opened) = &GATE;
            let mut st = state.lock().unwrap();
            let submitter = st.0 == Some(std::thread::current().id());
            if b == MARK {
                assert!(!submitter, "the marked column ran on the submitter");
                st.1 = true;
                opened.notify_all();
            } else if submitter {
                drop(opened.wait_while(st, |st| !st.1).unwrap());
            }
            a * b
        }
    }

    /// A column that outgrows the table it was opened with fails the
    /// accumulator's own assertion inside the parallel body. Here that body
    /// runs on a worker, so the message must cross to the submitting thread
    /// intact.
    #[test]
    fn an_assertion_raised_on_a_worker_panics_on_the_caller_with_the_kernels_message() {
        // `I · B`, every column of `B` holding rows {0, 2}; the last one,
        // many blocks away from where the submitter starts, is marked and
        // opens a table that cannot hold it.
        let n = 65;
        let a = Csc::<f64>::identity(4);
        let mut t = hipmcl_sparse::Triples::new(4, n);
        for j in 0..n {
            let v = if j == n - 1 { MARK } else { 1.0 };
            t.push(0, j as Idx, v);
            t.push(2, j as Idx, v);
        }
        let b = Csc::from_triples(&t);
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(2)
            .build()
            .unwrap();
        // A hashed table of two slots takes one key; a direct universe of
        // two rows has no row 2.
        for (mode, universe, message) in [
            (
                Hashed,
                4,
                "more distinct rows than its table was opened for",
            ),
            (Direct, 2, "index out of bounds"),
        ] {
            *GATE.0.lock().unwrap() = (Some(std::thread::current().id()), false);
            let kernel = || {
                let open = |table: &mut HashScratch<f64>, j| match j {
                    j if j == n - 1 => table.open_as(mode, 0, universe),
                    _ => table.open_as(mode, 2, 4),
                };
                multiply_cols_with(Gated, &a, &b, 0..n, 0, open, append)
            };
            let caught = pool
                .install(|| std::panic::catch_unwind(std::panic::AssertUnwindSafe(kernel)))
                .expect_err("an overfull table must panic");
            let got = (caught.downcast_ref::<String>().map(String::as_str))
                .or(caught.downcast_ref::<&str>().copied())
                .expect("a message");
            assert!(got.contains(message), "{got:?} lacks {message:?}");
        }
    }

    /// `A` (16 × 8) in three blocks of columns, each with one pattern of
    /// every other row: {0, 2, 4, 6} but column 3 near-shared at
    /// {0, 3, 4, 6}, {8, 10, 12} but column 6 empty, {14}. `B` (8 × 7)
    /// reads them so that columns 0 (one block) and 2 (one entry) share a
    /// pattern, while 1 (the near-shared column), 3 (the empty one), 4
    /// (nothing), 5 (two blocks) and 6 (the empty one alone) do not.
    fn clique_blocks() -> (Csc<f64>, Csc<f64>) {
        let patterns: [&[Idx]; 8] = [
            &[0, 2, 4, 6],
            &[0, 2, 4, 6],
            &[0, 2, 4, 6],
            &[0, 3, 4, 6],
            &[8, 10, 12],
            &[8, 10, 12],
            &[],
            &[14],
        ];
        let mut ta = hipmcl_sparse::Triples::new(16, 8);
        for (k, rows) in patterns.iter().enumerate() {
            for &r in rows.iter() {
                ta.push(r, k as Idx, 0.1 + (r as f64 * 0.37 + k as f64 * 0.71) % 1.0);
            }
        }
        let reads: [&[Idx]; 7] = [&[0, 1, 2], &[0, 3], &[5], &[4, 6], &[], &[1, 7], &[6]];
        let mut tb = hipmcl_sparse::Triples::new(8, 7);
        for (j, ks) in reads.iter().enumerate() {
            for &k in ks.iter() {
                tb.push(k, j as Idx, 1.3 - (k as f64 * 0.53 + j as f64 * 0.29) % 1.0);
            }
        }
        (Csc::from_triples(&ta), Csc::from_triples(&tb))
    }

    /// The columns of the fixture that share a pattern.
    const SHARED: [usize; 2] = [0, 2];

    #[test]
    fn shared_pattern_columns_are_bit_identical_to_the_table_in_three_semirings() {
        fn agree<S: Semiring>(s: S, a: &Csc<S::Elem>, b: &Csc<S::Elem>) {
            let shared =
                (0..b.ncols()).filter(|&j| shared_column(s, a, b, j, &mut vec![]).is_some());
            assert_eq!(shared.collect::<Vec<_>>(), SHARED);
            let bits = |c: Csc<S::Elem>| {
                let vals: Vec<u64> = c.vals.iter().map(|v| v.to_f64().to_bits()).collect();
                (c.colptr, c.rowidx, vals)
            };
            let want = bits(crate::heap::multiply_in(s, a, b));
            let fpc = flops_per_column(a, b);
            assert_eq!(bits(multiply_in(s, a, b)), want, "hash");
            for mode in [Direct, Hashed] {
                assert_eq!(bits(multiply_as(mode, s, a, b, &fpc)), want, "{mode:?}");
            }
        }
        let (a, b) = clique_blocks();
        agree(PT, &a, &b);
        agree(hipmcl_sparse::MinPlus, &a, &b);
        let pattern = |m: &Csc<f64>| m.map_values(|v| v > 0.0);
        agree(hipmcl_sparse::Boolean, &pattern(&a), &pattern(&b));
    }

    #[test]
    fn shared_pattern_columns_never_open_the_table() {
        let (a, b) = clique_blocks();
        let fpc = flops_per_column(&a, &b);
        let open = |table: &mut HashScratch<f64>, j: usize| {
            assert!(!SHARED.contains(&j), "column {j} opened a table");
            table.open((fpc[j] as usize).min(16), 16);
        };
        let got = multiply_cols_with(PT, &a, &b, 0..b.ncols(), 0, open, append);
        assert_eq!(got, crate::heap::multiply(&a, &b));
        assert!(SHARED.iter().all(|&j| got.col_nnz(j) > 0));
    }

    #[test]
    fn identity_times_identity() {
        let i = Csc::<f64>::identity(5);
        assert_eq!(multiply(&i, &i), i);
    }

    #[test]
    fn matches_dense_reference() {
        let a = random_csc(10, 8, 30, 1);
        let b = random_csc(8, 6, 24, 2);
        let c = multiply(&a, &b);
        c.assert_valid();
        assert!(c.max_abs_diff(&dense_reference(&a, &b)) < 1e-9);
    }

    #[test]
    fn direct_hashed_and_heap_agree() {
        let a = random_csc(30, 30, 300, 9);
        let fpc = flops_per_column(&a, &a);
        let want = crate::heap::multiply(&a, &a);
        let counts: Vec<usize> = (0..want.ncols()).map(|j| want.col_nnz(j)).collect();
        assert_eq!(crate::symbolic::output_counts(&a, &a), counts);
        for mode in [Direct, Hashed] {
            assert_eq!(multiply_as(mode, PT, &a, &a, &fpc), want);
        }
    }

    #[test]
    fn empty_matrices() {
        let a = Csc::<f64>::zero(3, 4);
        let b = Csc::<f64>::zero(4, 2);
        let c = multiply(&a, &b);
        assert_eq!(c.nnz(), 0);
    }
}
