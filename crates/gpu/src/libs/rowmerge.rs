//! `rmerge2` analogue: SpGEMM by iterative row merging
//! (Gremse, Küpper, Naumann — SIAM J. Sci. Comput. 2018).
//!
//! rmerge2 forms each output row `C_{i*} = Σ_k a_ik · B_{k*}` by repeatedly
//! merging *pairs* of sorted scaled rows — a balanced binary merge tree —
//! instead of accumulating into a table. On `Cᵀ = Bᵀ·Aᵀ` that is each
//! output column `C_{*j} = Σ_k A_{*k} · b_kj` from sorted scaled columns
//! of `A`, which is what runs here. Merging is branch-predictable and
//! memory-lean (rmerge2's selling point: "memory-efficient"), but the tree
//! revisits elements `lg(nnz(B_{*j}))` times, so its advantage fades as
//! `cf` grows; the paper measures it at ~1.1× `cpu-hash` overall and best
//! among the GPU libraries only at small `cf`.

use super::ColOut;
use hipmcl_sparse::{Csc, Semiring};
use rayon::prelude::*;
use std::ops::Range;

/// Columns `cols` of `A · B` by per-column binary merge trees, in the
/// given semiring.
pub(crate) fn multiply_in<S: Semiring>(
    s: S,
    a: &Csc<S::Elem>,
    b: &Csc<S::Elem>,
    cols: Range<usize>,
) -> Csc<S::Elem> {
    let out: Vec<ColOut<S::Elem>> = cols
        .into_par_iter()
        .map(|j| merge_column(s, a, b, j))
        .collect();
    Csc::from_columns(a.nrows(), out)
}

/// Builds output column `j` by a balanced tree of two-way merges.
fn merge_column<S: Semiring>(
    s: S,
    a: &Csc<S::Elem>,
    b: &Csc<S::Elem>,
    j: usize,
) -> ColOut<S::Elem> {
    // Leaves: the selected A columns, scaled by the B entry.
    let mut lists: Vec<ColOut<S::Elem>> = (b.col_rows(j).iter())
        .zip(b.col_vals(j))
        .map(|(&k, &bv)| {
            let k = k as usize;
            let rows = a.col_rows(k).to_vec();
            let vals = a.col_vals(k).iter().map(|&av| S::mul(av, bv)).collect();
            (rows, vals)
        })
        .filter(|(r, _): &ColOut<S::Elem>| !r.is_empty())
        .collect();

    // Balanced reduction: merge adjacent pairs until one list remains.
    while lists.len() > 1 {
        let mut next = Vec::with_capacity(lists.len().div_ceil(2));
        let mut it = lists.into_iter();
        while let Some(first) = it.next() {
            match it.next() {
                Some(second) => next.push(merge_two(s, &first, &second)),
                None => next.push(first),
            }
        }
        lists = next;
    }
    lists.pop().unwrap_or_default()
}

/// Two-way merge of sorted `(rows, vals)` runs, combining equal rows with
/// the semiring's addition.
fn merge_two<S: Semiring>(_s: S, x: &ColOut<S::Elem>, y: &ColOut<S::Elem>) -> ColOut<S::Elem> {
    let (xr, xv) = x;
    let (yr, yv) = y;
    let mut rows = Vec::with_capacity(xr.len() + yr.len());
    let mut vals = Vec::with_capacity(xr.len() + yr.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < xr.len() || j < yr.len() {
        let take_x = j >= yr.len() || (i < xr.len() && xr[i] < yr[j]);
        let take_both = i < xr.len() && j < yr.len() && xr[i] == yr[j];
        if take_both {
            rows.push(xr[i]);
            vals.push(S::add(xv[i], yv[j]));
            i += 1;
            j += 1;
        } else if take_x {
            rows.push(xr[i]);
            vals.push(xv[i]);
            i += 1;
        } else {
            rows.push(yr[j]);
            vals.push(yv[j]);
            j += 1;
        }
    }
    (rows, vals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipmcl_sparse::PlusTimes;
    use hipmcl_spgemm::testutil::random_csc;
    type C = ColOut<f64>;

    fn multiply(a: &Csc<f64>, b: &Csc<f64>) -> Csc<f64> {
        multiply_in(PlusTimes::<f64>::new(), a, b, 0..b.ncols())
    }

    #[test]
    fn merge_two_disjoint() {
        let x: C = (vec![1, 5], vec![1.0, 2.0]);
        let y: C = (vec![2, 9], vec![3.0, 4.0]);
        let (r, v) = merge_two(PlusTimes::<f64>::new(), &x, &y);
        assert_eq!(r, vec![1, 2, 5, 9]);
        assert_eq!(v, vec![1.0, 3.0, 2.0, 4.0]);
    }

    #[test]
    fn merge_two_overlapping_sums() {
        let x: C = (vec![1, 3], vec![1.0, 1.0]);
        let y: C = (vec![1, 3], vec![0.5, 0.25]);
        let (r, v) = merge_two(PlusTimes::<f64>::new(), &x, &y);
        assert_eq!(r, vec![1, 3]);
        assert_eq!(v, vec![1.5, 1.25]);
    }

    #[test]
    fn merge_two_with_empty() {
        let x: C = (vec![], vec![]);
        let y: C = (vec![7], vec![1.0]);
        assert_eq!(
            merge_two(PlusTimes::<f64>::new(), &x, &y),
            (vec![7], vec![1.0])
        );
    }

    #[test]
    fn matches_reference() {
        let a = random_csc(16, 13, 70, 10);
        let b = random_csc(13, 17, 65, 11);
        let got = multiply(&a, &b);
        let want = hipmcl_spgemm::hash::multiply(&a, &b);
        got.assert_valid();
        assert_eq!(got.colptr, want.colptr);
        assert_eq!(got.rowidx, want.rowidx);
        assert!(got.max_abs_diff(&want) < 1e-9);
    }

    #[test]
    fn identity_on_either_side() {
        // I·B: every leaf holds a single entry; B·I: every tree is one leaf.
        let b = random_csc(6, 6, 18, 13);
        let i = Csc::identity(6);
        assert_eq!(multiply(&i, &b), b);
        assert_eq!(multiply(&b, &i), b);
    }
}
