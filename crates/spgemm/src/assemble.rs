//! Shared two-phase output assembly for the column-parallel SpGEMM kernels.
//!
//! Phase 1 (symbolic or counting) yields per-column output sizes; this
//! module turns them into a column pointer array and lets the numeric phase
//! fill disjoint per-column output slices in parallel without extra
//! allocation or copying.

use hipmcl_sparse::csc::counts_to_colptr;
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

/// Splits `data` into `colptr.len() - 1` disjoint mutable chunks.
fn split_by_colptr<'a, T>(data: &'a mut [T], colptr: &[usize]) -> Vec<&'a mut [T]> {
    let mut chunks = Vec::with_capacity(colptr.len() - 1);
    let mut rest = data;
    let mut pos = 0usize;
    for w in colptr.windows(2) {
        let len = w[1] - w[0];
        debug_assert_eq!(w[0], pos);
        let (head, tail) = rest.split_at_mut(len);
        chunks.push(head);
        rest = tail;
        pos += len;
    }
    chunks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_by_colptr_disjoint_cover() {
        let mut data = vec![0u32; 6];
        let colptr = vec![0usize, 2, 2, 6];
        let chunks = split_by_colptr(&mut data, &colptr);
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks[0].len(), 2);
        assert_eq!(chunks[1].len(), 0);
        assert_eq!(chunks[2].len(), 4);
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
