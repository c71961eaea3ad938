//! Shared two-phase output assembly for the column-parallel SpGEMM kernels.
//!
//! Phase 1 (symbolic or counting) yields per-column output sizes; this
//! module turns them into a column pointer array and lets the numeric phase
//! fill disjoint per-column output slices in parallel without extra
//! allocation or copying.

use hipmcl_sparse::csc::counts_to_colptr;
use hipmcl_sparse::util::split_by_colptr;
use hipmcl_sparse::{Csc, Idx, Value};
use rayon::prelude::*;

/// Builds a CSC matrix by filling each column's slice in parallel.
///
/// `counts[j]` must be the exact number of entries `fill` writes for column
/// `j`. `fill(scratch, j, rows, vals)` receives the column's output slices
/// (length `counts[j]`) and must write all of them, with strictly
/// increasing rows — and must panic rather than return if `counts[j]` turns
/// out wrong. `scratch` is cloned once per worker (rayon `for_each_with`),
/// so hash tables, heaps and dense accumulators are reused across the
/// columns a worker processes instead of being reallocated per column —
/// the Nagasaka CPU-SpGEMM trick of one long-lived table per thread.
pub fn build_csc_parallel_scratch<T, S, F>(
    nrows: usize,
    ncols: usize,
    counts: &[usize],
    scratch: S,
    fill: F,
) -> Csc<T>
where
    T: Value,
    S: Clone + Send,
    F: Fn(&mut S, usize, &mut [Idx], &mut [T]) + Sync + Send,
{
    debug_assert_eq!(counts.len(), ncols);
    let colptr = counts_to_colptr(counts);
    let nnz = colptr[ncols];
    let mut rowidx = vec![0 as Idx; nnz];
    let mut vals = vec![T::default(); nnz];

    let row_chunks = split_by_colptr(&mut rowidx, &colptr);
    let val_chunks = split_by_colptr(&mut vals, &colptr);
    row_chunks
        .into_par_iter()
        .zip_eq(val_chunks)
        .enumerate()
        .for_each_with(scratch, |s, (j, (rows, vals))| fill(s, j, rows, vals));

    Csc::from_parts(nrows, ncols, colptr, rowidx, vals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipmcl_sparse::Semiring;
    use std::sync::{Condvar, Mutex};
    use std::thread::ThreadId;

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

    /// A wrong count — too large or too small — is reported by the kernel's
    /// own assertion inside the parallel body. Here that body runs on a
    /// worker, so the message must cross to the submitting thread intact.
    #[test]
    fn a_wrong_count_found_on_a_worker_panics_on_the_caller_with_the_kernels_message() {
        use crate::hash::Addressing::{Direct, Hashed};
        // `I · B`, every column of `B` holding rows {0, 2}; the last one,
        // many blocks away from where the submitter starts, is marked and
        // has the wrong count.
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
        for wrong in [3, 1] {
            let mut counts = vec![2; n];
            counts[n - 1] = wrong;
            let hash_message = format!("column 64: count {wrong} but 2 distinct rows");

            type Kernel<'a> = &'a (dyn Fn() -> Csc<f64> + Sync);
            let kernels: [(Kernel<'_>, &str); 3] = [
                (
                    &|| crate::hash::multiply_with_counts_as(Direct, Gated, &a, &b, &counts),
                    &hash_message,
                ),
                (
                    &|| crate::hash::multiply_with_counts_as(Hashed, Gated, &a, &b, &counts),
                    &hash_message,
                ),
                (
                    &|| crate::heap::multiply_with_counts_in(Gated, &a, &b, &counts),
                    "column 64: count does not match",
                ),
            ];
            // Too small, the hashed table overflows before the drain can
            // compare counts; that side pins the heap kernel alone.
            let pinned = if wrong > 2 {
                &kernels[..]
            } else {
                &kernels[2..]
            };
            for &(kernel, message) in pinned {
                *GATE.0.lock().unwrap() = (Some(std::thread::current().id()), false);
                let caught = pool
                    .install(|| std::panic::catch_unwind(std::panic::AssertUnwindSafe(kernel)))
                    .expect_err("a wrong count must panic");
                let got = caught
                    .downcast_ref::<String>()
                    .expect("a formatted message");
                assert!(got.contains(message), "{got:?} lacks {message:?}");
            }
        }
    }

    #[test]
    fn build_csc_parallel_scratch_fills_columns() {
        // 3 columns with 1, 0, 2 entries.
        let m: Csc<f64> =
            build_csc_parallel_scratch(4, 3, &[1, 0, 2], (), |(), j, rows, vals| match j {
                0 => {
                    rows[0] = 2;
                    vals[0] = 5.0;
                }
                2 => {
                    rows.copy_from_slice(&[0, 3]);
                    vals.copy_from_slice(&[1.0, 2.0]);
                }
                _ => {}
            });
        m.assert_valid();
        assert_eq!(m.get(2, 0), Some(5.0));
        assert_eq!(m.get(3, 2), Some(2.0));
        assert_eq!(m.nnz(), 3);
    }
}
