//! Every merge returns what a reference returns, bit for bit, in every
//! semiring and under every kernel label: coincident entries fold strictly
//! in list order with the semiring's `⊕`, and an entry whose final value is
//! the annihilator is dropped. So the per-merge label — `Auto`'s or a fixed
//! one — can never change a result. The reference below accumulates each
//! row in a `BTreeMap` per column; the merges are reached through the
//! public entries only: `merge_with` and `StackMerger`.

use hipmcl::comm::{MachineModel, MergeKernel};
use hipmcl::sparse::{Boolean, Csc, Idx, MinPlus, PlusTimes, Semiring};
use hipmcl::spgemm::testutil::random_csc;
use hipmcl::summa::merge::{algorithm2_merge_count, merge_with, MergeKernelPolicy, StackMerger};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::BTreeMap;

fn slabs(n: usize, count: usize) -> Vec<Csc<f64>> {
    (0..count)
        .map(|i| random_csc(n, n, n * 3, 100 + i as u64))
        .collect()
}

/// The reference merge of `mats` (fan-in ≥ 2): each column's rows
/// accumulated with `S::add` strictly in list order, then every entry
/// whose value is the annihilator dropped.
fn reference<S: Semiring>(mats: &[Csc<S::Elem>], shape: (usize, usize)) -> Csc<S::Elem> {
    let (mut colptr, mut rowidx, mut vals) = (vec![0], Vec::new(), Vec::new());
    for j in 0..shape.1 {
        let mut col: BTreeMap<Idx, S::Elem> = BTreeMap::new();
        for m in mats {
            for (&r, &v) in m.col_rows(j).iter().zip(m.col_vals(j)) {
                col.entry(r)
                    .and_modify(|acc| *acc = S::add(*acc, v))
                    .or_insert(v);
            }
        }
        for (r, v) in col.into_iter().filter(|&(_, v)| !S::is_annihilator(v)) {
            rowidx.push(r);
            vals.push(v);
        }
        colptr.push(rowidx.len());
    }
    Csc::from_parts(shape.0, shape.1, colptr, rowidx, vals)
}

/// Random stage-product sets with deliberate cancellation: signs
/// alternate by slab so partial sums can hit exact zero, and `with_cancel`
/// appends the exact negation of one of the slabs' patterns.
fn product_set(n: usize, k: usize, seed: u64, with_cancel: bool) -> Vec<Csc<f64>> {
    let mut mats = slabs(n, k);
    for m in mats.iter_mut().skip(1).step_by(2) {
        m.vals.iter_mut().for_each(|v| *v = -*v);
    }
    if with_cancel {
        let mut neg = random_csc(n, n, n * 3, 100 + (seed % k as u64));
        neg.vals.iter_mut().for_each(|v| *v = -*v);
        mats.push(neg);
    }
    mats
}

/// Asserts `merge_with` under every label equals the reference on `mats`
/// — `Csc: PartialEq` compares `colptr`, `rowidx` and `vals` exactly —
/// and returns the reference.
fn assert_merges_match<S: Semiring>(
    s: S,
    mats: &[Csc<S::Elem>],
    shape: (usize, usize),
) -> Result<Csc<S::Elem>, TestCaseError> {
    let want = reference::<S>(mats, shape);
    want.assert_valid();
    for kernel in MergeKernel::all() {
        prop_assert_eq!(&want, &merge_with(s, kernel, mats, shape), "{:?}", kernel);
    }
    Ok(want)
}

/// Asserts `StackMerger` equals the reference taken along Algorithm 2's
/// schedule: each merge it triggers, and the k-way finish of what is left,
/// is the reference merge of the stack's top entries in stack order.
fn assert_stack_matches(mats: &[Csc<f64>], shape: (usize, usize)) -> Result<(), TestCaseError> {
    let merge_top = |stack: &mut Vec<Csc<f64>>, count: usize| {
        let tail = stack.split_off(stack.len() - count);
        stack.push(reference::<PlusTimes<f64>>(&tail, shape));
    };
    let mut want = Vec::new();
    for (i, m) in mats.iter().enumerate() {
        want.push(m.clone());
        match algorithm2_merge_count(i + 1) {
            0 => {}
            count => merge_top(&mut want, count),
        }
    }
    if want.len() > 1 {
        let count = want.len();
        merge_top(&mut want, count);
    }
    for policy in [MergeKernelPolicy::Auto]
        .into_iter()
        .chain(MergeKernel::all().map(MergeKernelPolicy::Fixed))
    {
        let mut sm = StackMerger::new(MachineModel::summit(), policy, shape);
        mats.iter().for_each(|m| sm.push(m.clone()));
        prop_assert_eq!(want.last(), Some(&sm.finish()), "{:?}", policy);
    }
    Ok(())
}

proptest! {
    /// Plus-times: values AND sparsity structure agree, including entries
    /// removed by exact-zero cancellation — also at fan-in 3 with the
    /// merged result as an input, and through the Algorithm 2 stack.
    #[test]
    fn merge_kernels_are_bit_identical(
        n in 4usize..24,
        k in 2usize..=20,
        seed in 0u64..32,
        with_cancel in any::<bool>(),
    ) {
        let s = PlusTimes::<f64>::new();
        let mats = product_set(n, k, seed, with_cancel);
        let merged = assert_merges_match(s, &mats, (n, n))?;
        let fed = [merged, mats[0].clone(), mats[1].clone()];
        assert_merges_match(s, &fed, (n, n))?;
        assert_stack_matches(&mats, (n, n))?;
    }

    /// Min-plus: `⊕` is `min`, the annihilator `+∞`. One slab carries
    /// explicit `+∞` entries: positions where *every* contribution is
    /// `+∞` must be dropped, while positions that also receive a finite
    /// value must keep the finite minimum.
    #[test]
    fn merge_kernels_bit_identical_under_min_plus(
        n in 4usize..24,
        k in 2usize..=20,
        seed in 0u64..32,
        with_cancel in any::<bool>(),
    ) {
        let mut mats = slabs(n, k);
        if with_cancel {
            mats.push(random_csc(n, n, n * 3, 500 + seed).map_values(|_| f64::INFINITY));
        }
        let merged = assert_merges_match(MinPlus, &mats, (n, n))?;
        prop_assert!(
            merged.vals.iter().all(|v| v.is_finite()),
            "accumulated +∞ entries must be dropped, not stored"
        );
    }

    /// Boolean: `⊕` is `∨`, the annihilator `false`; explicit stored
    /// `false` entries must vanish unless some list contributes `true` at
    /// that position.
    #[test]
    fn merge_kernels_bit_identical_under_boolean(
        n in 4usize..24,
        k in 2usize..=20,
        seed in 0u64..32,
        with_cancel in any::<bool>(),
    ) {
        let mut mats: Vec<Csc<bool>> = slabs(n, k)
            .iter()
            .map(|m| m.map_values(|v| v > 1.0))
            .collect();
        if with_cancel {
            mats.push(random_csc(n, n, n * 3, 700 + seed).map_values(|_| false));
        }
        let merged = assert_merges_match(Boolean, &mats, (n, n))?;
        prop_assert!(
            merged.vals.iter().all(|&v| v),
            "an OR-accumulation can only store true entries"
        );
    }
}

/// Also for matrices without columns, or with every column empty.
#[test]
fn every_kernel_returns_an_empty_matrix_of_the_shape_for_an_empty_slice() {
    let empty = [vec![], vec![Csc::zero(7, 0); 3], vec![Csc::zero(7, 9); 3]];
    for (mats, shape) in empty.iter().zip([(7, 9), (7, 0), (7, 9)]) {
        for kernel in MergeKernel::all() {
            let merged = merge_with(PlusTimes::<f64>::new(), kernel, mats, shape);
            merged.assert_valid();
            assert_eq!((merged.nrows(), merged.ncols()), shape, "{kernel:?}");
            assert_eq!(merged.nnz(), 0, "{kernel:?}");
        }
    }
}

#[test]
fn exact_cancellation_drops_every_entry() {
    let a = random_csc(8, 8, 20, 1);
    let b = a.map_values(|v| -v);
    for kernel in MergeKernel::all() {
        let merged = merge_with(
            PlusTimes::<f64>::new(),
            kernel,
            &[a.clone(), b.clone()],
            (8, 8),
        );
        assert_eq!(merged.nnz(), 0, "{kernel:?}");
    }
}

/// Algorithm 2's schedule and accumulation order are label-independent:
/// the `Auto` stack produces the exact matrix every fixed label produces.
#[test]
fn stack_merger_result_is_policy_invariant() {
    let mats = slabs(14, 8);
    let run = |policy| {
        let mut sm = StackMerger::new(MachineModel::summit(), policy, (14, 14));
        for m in &mats {
            sm.push(m.clone());
        }
        sm.finish()
    };
    let auto = run(MergeKernelPolicy::Auto);
    for kernel in MergeKernel::all() {
        assert_eq!(
            run(MergeKernelPolicy::Fixed(kernel)),
            auto,
            "{kernel:?} diverged from Auto"
        );
    }
}
