//! Every merge kernel produces the same matrix, bit for bit, in every
//! semiring: coincident entries fold strictly in list order with the
//! semiring's `⊕`, and an entry whose final value is the annihilator is
//! dropped. So the per-merge kernel choice — `MergeKernelPolicy::Auto`'s
//! or a fixed one — can never change a result. Checked through the public
//! entries only: `merge_with` and `StackMerger`.

use hipmcl::comm::{MachineModel, MergeKernel};
use hipmcl::sparse::{Boolean, Csc, MinPlus, PlusTimes, Semiring};
use hipmcl::spgemm::testutil::random_csc;
use hipmcl::summa::merge::{merge_with, MergeKernelPolicy, StackMerger};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

fn slabs(n: usize, count: usize) -> Vec<Csc<f64>> {
    (0..count)
        .map(|i| random_csc(n, n, n * 3, 100 + i as u64))
        .collect()
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

/// Asserts all five kernels agree with the heap kernel on `mats` —
/// `Csc: PartialEq` compares `colptr`, `rowidx` and `vals` exactly — and
/// returns that result.
fn assert_kernels_agree<S: Semiring>(
    s: S,
    mats: &[Csc<S::Elem>],
    shape: (usize, usize),
) -> Result<Csc<S::Elem>, TestCaseError> {
    let heap = merge_with(s, MergeKernel::Heap, mats, shape);
    heap.assert_valid();
    for kernel in MergeKernel::all() {
        prop_assert_eq!(&heap, &merge_with(s, kernel, mats, shape), "{:?}", kernel);
    }
    Ok(heap)
}

proptest! {
    /// Plus-times: values AND sparsity structure agree, including entries
    /// removed by exact-zero cancellation — also at fan-in 3 with the
    /// merged result as an input.
    #[test]
    fn merge_kernels_are_bit_identical(
        n in 4usize..24,
        k in 2usize..9,
        seed in 0u64..32,
        with_cancel in any::<bool>(),
    ) {
        let s = PlusTimes::<f64>::new();
        let mats = product_set(n, k, seed, with_cancel);
        let merged = assert_kernels_agree(s, &mats, (n, n))?;
        let fed = [merged, mats[0].clone(), mats[1].clone()];
        assert_kernels_agree(s, &fed, (n, n))?;
    }

    /// Min-plus: `⊕` is `min`, the annihilator `+∞`. One slab carries
    /// explicit `+∞` entries: positions where *every* contribution is
    /// `+∞` must be dropped by all kernels alike, while positions that
    /// also receive a finite value must keep the finite minimum.
    #[test]
    fn merge_kernels_bit_identical_under_min_plus(
        n in 4usize..24,
        k in 2usize..9,
        seed in 0u64..32,
        with_cancel in any::<bool>(),
    ) {
        let mut mats = slabs(n, k);
        if with_cancel {
            mats.push(random_csc(n, n, n * 3, 500 + seed).map_values(|_| f64::INFINITY));
        }
        let merged = assert_kernels_agree(MinPlus, &mats, (n, n))?;
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
        k in 2usize..9,
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
        let merged = assert_kernels_agree(Boolean, &mats, (n, n))?;
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

/// Algorithm 2's schedule and accumulation order are kernel-independent:
/// the `Auto` stack produces the exact matrix every fixed
/// kernel produces.
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
