//! Hash-assisted column-by-column SpGEMM (Nagasaka, Matsuoka, Azad, Buluç —
//! ICPP Workshops 2018, arXiv:1804.01698), the CPU kernel the paper
//! integrates in §VI.
//!
//! Two phases, each run exactly once per product:
//! [`symbolic_counts_with_flops`] counts the distinct rows of every output
//! column (keys only, no values), and [`multiply_with_counts_in`] fills a
//! CSC allocated from those counts. Each worker owns one open-addressing
//! table whose storage only grows and which is opened per column at the
//! smallest power of two that holds the column at ≤ 50 % load: at most
//! `min(flops_j, nrows)` keys in the symbolic phase, exactly `counts[j]` in
//! the numeric one — so the hot table tracks the column, not the largest
//! column the worker ever saw. Accumulation is `O(1)` expected per product
//! — no `lg` factor — which is why hash beats heaps when the compression
//! factor `cf = flops/nnz(C)` is large, the regime of the expensive MCL
//! iterations. The drained column is radix-sorted (MCL merges and prunes
//! sorted columns).
//!
//! Every output entry folds its products in ascending position `l` within
//! `B_{*j}`; table size and pass count never touch that order, so values
//! are bit-identical to the heap and SPA kernels.

use crate::analysis::flops_per_column;
use crate::assemble::build_csc_parallel_scratch;
use hipmcl_sparse::{Csc, Idx, PlusTimes, Semiring, Value};
use rayon::prelude::*;

const EMPTY: Idx = Idx::MAX;

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
    /// past 50 %. (Nagasaka's `2^k > n` probes at up to 100 % load, 20–40 %
    /// slower here; `2^k ≥ 4n` leaves L1 in the symbolic pass: EXPERIMENTS.md.)
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

/// Linear-probing accumulation table reused across columns by one worker:
/// a key set plus one value per slot and reused drain buffers. The one
/// hash accumulator of the workspace — the CPU hash kernel and the
/// `nsparse` analogue in `hipmcl-gpu` both run on it.
#[derive(Clone, Default)]
pub struct HashScratch<T> {
    set: KeySet,
    vals: Vec<T>,
    /// Drain buffers: `key << 32 | slot` words and the radix sort's spare.
    order: Vec<u64>,
    spare: Vec<u64>,
}

impl<T: Value> HashScratch<T> {
    /// Opens an empty table for a column of at most `n` distinct keys.
    /// Panics if the previous column was not drained.
    pub fn open(&mut self, n: usize) {
        self.set.open(n);
        if self.vals.len() < self.set.keys.len() {
            // Placeholder only: every slot's value is overwritten on first
            // touch, so no semiring identity is needed here.
            self.vals.resize(self.set.keys.len(), T::default());
        }
    }

    /// Accumulates `val` into `key`'s slot with the semiring's addition,
    /// inserting on first touch. Panics if the column turns out to have
    /// more distinct keys than it was opened for.
    #[inline]
    pub fn upsert<S: Semiring<Elem = T>>(&mut self, _sr: S, key: Idx, val: T) {
        let (s, inserted) = self.set.probe(key);
        self.vals[s] = if inserted {
            val
        } else {
            S::add(self.vals[s], val)
        };
    }

    /// Number of distinct keys currently stored.
    pub fn len(&self) -> usize {
        self.set.touched.len()
    }

    /// `true` if no key is stored.
    pub fn is_empty(&self) -> bool {
        self.set.touched.is_empty()
    }

    /// Drains `(key, val)` pairs sorted by key into the output slices of
    /// column `col` and resets the table. Panics if the slices are not
    /// exactly [`HashScratch::len`] long — a wrong count must not become a
    /// malformed column. `col` only labels the panic (`hipmcl_gpu`'s
    /// row-wise `hashgpu` passes its row id).
    pub fn drain_sorted_into(&mut self, col: usize, rows: &mut [Idx], vals: &mut [T]) {
        assert!(
            rows.len() == self.len() && vals.len() == self.len(),
            "column {col}: count {} but {} distinct rows accumulated",
            rows.len(),
            self.len()
        );
        let keys = &self.set.keys;
        self.order.clear();
        self.order
            .extend((self.set.touched.iter()).map(|&s| (keys[s as usize] as u64) << 32 | s as u64));
        sort_by_key(&mut self.order, &mut self.spare);
        for (i, &w) in self.order.iter().enumerate() {
            rows[i] = (w >> 32) as Idx;
            vals[i] = self.vals[w as u32 as usize];
        }
        self.set.reset();
    }
}

/// Multiplies `C = A · B` with hash accumulation in the given semiring:
/// one symbolic pass, one numeric pass.
pub fn multiply_in<S: Semiring>(s: S, a: &Csc<S::Elem>, b: &Csc<S::Elem>) -> Csc<S::Elem> {
    let fpc = flops_per_column(a, b);
    multiply_with_flops_in(s, a, b, &fpc)
}

/// [`multiply_in`] with the numeric plus-times semiring — MCL's default.
pub fn multiply<T: Value>(a: &Csc<T>, b: &Csc<T>) -> Csc<T>
where
    PlusTimes<T>: Semiring<Elem = T>,
{
    multiply_in(PlusTimes::new(), a, b)
}

/// [`multiply_in`] when the per-column flops are already known.
pub fn multiply_with_flops_in<S: Semiring>(
    sr: S,
    a: &Csc<S::Elem>,
    b: &Csc<S::Elem>,
    fpc: &[u64],
) -> Csc<S::Elem> {
    multiply_with_counts_in(sr, a, b, &symbolic_counts_with_flops(a, b, fpc))
}

/// The numeric phase alone: fills `C = A · B` given `counts[j] =
/// nnz(C_{*j})` from [`symbolic_counts_with_flops`] (structural counts —
/// entries that cancel to the semiring zero are kept). Panics on a count
/// that does not match the column it describes.
pub fn multiply_with_counts_in<S: Semiring>(
    sr: S,
    a: &Csc<S::Elem>,
    b: &Csc<S::Elem>,
    counts: &[usize],
) -> Csc<S::Elem> {
    assert_eq!(a.ncols(), b.nrows(), "inner dimensions must agree");
    assert_eq!(counts.len(), b.ncols(), "one count per output column");
    build_csc_parallel_scratch(
        a.nrows(),
        b.ncols(),
        counts,
        HashScratch::<S::Elem>::default(),
        |scratch, j, rows_out, vals_out| {
            scratch.open(rows_out.len());
            for (&k, &bv) in b.col_rows(j).iter().zip(b.col_vals(j)) {
                let k = k as usize;
                for (&r, &av) in a.col_rows(k).iter().zip(a.col_vals(k)) {
                    scratch.upsert(sr, r, S::mul(av, bv));
                }
            }
            scratch.drain_sorted_into(j, rows_out, vals_out);
        },
    )
}

/// The symbolic phase alone: exact `nnz(C_{*j})` per output column of
/// `A · B`, given the per-column flops. Hash-based, `O(flops)`, no values
/// touched — the one symbolic pass every two-phase kernel and the exact
/// memory estimator share.
pub fn symbolic_counts_with_flops<T: Value>(a: &Csc<T>, b: &Csc<T>, fpc: &[u64]) -> Vec<usize> {
    assert_eq!(a.ncols(), b.nrows(), "inner dimensions must agree");
    assert_eq!(fpc.len(), b.ncols(), "one flops entry per output column");
    let nrows = a.nrows();
    (0..b.ncols())
        .into_par_iter()
        .map_with(KeySet::default(), |set, j| {
            set.open((fpc[j] as usize).min(nrows));
            for &k in b.col_rows(j) {
                for &r in a.col_rows(k as usize) {
                    set.probe(r);
                }
            }
            let n = set.touched.len();
            set.reset();
            n
        })
        .collect()
}

/// [`symbolic_counts_with_flops`], computing the flops first.
pub fn symbolic_counts<T: Value>(a: &Csc<T>, b: &Csc<T>) -> Vec<usize> {
    symbolic_counts_with_flops(a, b, &flops_per_column(a, b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{dense_reference, random_csc};

    #[test]
    fn scratch_upsert_accumulates() {
        let mut s = HashScratch::<f64>::default();
        s.open(4);
        s.upsert(PlusTimes::<f64>::new(), 7, 1.0);
        s.upsert(PlusTimes::<f64>::new(), 3, 2.0);
        s.upsert(PlusTimes::<f64>::new(), 7, 0.5);
        assert_eq!(s.len(), 2);
        let mut rows = vec![0; 2];
        let mut vals = vec![0.0; 2];
        s.drain_sorted_into(0, &mut rows, &mut vals);
        assert_eq!(rows, vec![3, 7]);
        assert_eq!(vals, vec![2.0, 1.5]);
        assert!(s.is_empty(), "drain resets");
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
    fn table_shrinks_and_grows_per_column() {
        // A big column, then a small one in a prefix of the same storage,
        // then a bigger one: each sees an empty table of its own size.
        let pt = PlusTimes::<f64>::new();
        let mut s = HashScratch::<f64>::default();
        for n in [300usize, 3, 1000] {
            s.open(n);
            assert_eq!(s.set.mask + 1, (2 * n).next_power_of_two());
            for k in 0..n as Idx {
                s.upsert(pt, k * 7, 1.0);
                s.upsert(pt, k * 7, 1.0);
            }
            let (mut rows, mut vals) = (vec![0; n], vec![0.0; n]);
            s.drain_sorted_into(0, &mut rows, &mut vals);
            assert!(rows.windows(2).all(|w| w[0] < w[1]));
            assert!(vals.iter().all(|&v| v == 2.0));
        }
        assert_eq!(s.set.keys.len(), 2048, "storage only grows");
        assert!(s.set.keys.iter().all(|&k| k == EMPTY));
    }

    #[test]
    #[should_panic(expected = "more distinct rows")]
    fn overfull_table_panics_instead_of_spinning() {
        let mut s = HashScratch::<f64>::default();
        s.open(3); // 8 slots: the eighth key would fill the table
        for k in 0..8u32 {
            s.upsert(PlusTimes::<f64>::new(), k, 1.0);
        }
    }

    #[test]
    #[should_panic(expected = "column 1: count 3 but 2 distinct rows")]
    fn count_too_large_panics() {
        let a = Csc::<f64>::identity(4);
        let mut t = hipmcl_sparse::Triples::new(4, 2);
        t.push(0, 1, 1.0);
        t.push(2, 1, 1.0);
        let b = Csc::from_triples(&t);
        let _ = multiply_with_counts_in(PlusTimes::<f64>::new(), &a, &b, &[0, 3]);
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
    fn matches_heap_kernel() {
        let a = random_csc(30, 30, 300, 9);
        assert_eq!(multiply(&a, &a), crate::heap::multiply(&a, &a));
    }

    #[test]
    fn symbolic_counts_match_numeric() {
        let a = random_csc(20, 20, 120, 4);
        let counts = symbolic_counts(&a, &a);
        let c = multiply(&a, &a);
        let got: Vec<usize> = (0..c.ncols()).map(|j| c.col_nnz(j)).collect();
        assert_eq!(counts, got);
    }

    #[test]
    fn empty_matrices() {
        let a = Csc::<f64>::zero(3, 4);
        let b = Csc::<f64>::zero(4, 2);
        let c = multiply(&a, &b);
        assert_eq!(c.nnz(), 0);
    }
}
