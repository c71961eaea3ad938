//! The CPU kernels by name, and the serial driver's multiply — the host
//! end of the paper's "recipe" (§I, §VI): benchmark the candidates, find
//! the density regimes where each dominates, then choose per
//! multiplication instance.
//!
//! The paper's CPU rule is: heaps win when `cf` is small (little
//! accumulation, the heap's `lg` factor is paid on few elements), hash
//! tables win when `cf` is large (every product hits an existing
//! accumulator slot in `O(1)`). Measured on this host the heap leads
//! nowhere ([`HEAP_HASH_CF_CROSSOVER`]), and choosing needs `cf`, hence
//! `nnz(C)`, hence a symbolic pass over all the flops before the numeric
//! one — so [`multiply_auto_in`] runs the one-pass hash kernel and reports
//! what it found. The modeled selection — CPU and GPU kernels priced from
//! an estimated `cf`, including the `flops` threshold that decides whether
//! a multiplication can saturate a device at all — lives in
//! `hipmcl-gpu::select`.

use crate::analysis::MultAnalysis;
use crate::emit::{Emit, Push};
use crate::hash::Build;
use hipmcl_sparse::{Csc, PlusTimes, Semiring, Value};
use std::ops::Range;

/// CPU-side SpGEMM kernels available to the selector.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CpuAlgo {
    /// Heap (priority queue) accumulation — original HipMCL.
    Heap,
    /// Hash-table accumulation — Nagasaka et al., the §VI replacement.
    Hash,
}

impl CpuAlgo {
    /// Human-readable name matching the paper's plot labels.
    pub fn name(self) -> &'static str {
        match self {
            CpuAlgo::Heap => "cpu-heap",
            CpuAlgo::Hash => "cpu-hash",
        }
    }

    /// Columns `cols` of `A · B` on the selected kernel, each handed to
    /// `emit` as it is finished. `fpc` is `flops_per_column(a, b)`.
    pub fn multiply_cols_in<S: Semiring, E: Emit<S::Elem>>(
        self,
        s: S,
        a: &Csc<S::Elem>,
        b: &Csc<S::Elem>,
        cols: Range<usize>,
        fpc: &[u64],
        emit: E,
    ) -> Csc<S::Elem> {
        match self {
            CpuAlgo::Heap => crate::heap::multiply_cols_in(s, a, b, cols, fpc, emit),
            CpuAlgo::Hash => {
                crate::hash::multiply_emit(Build::host(), s, a, b, cols, fpc, None, emit)
            }
        }
    }
}

/// The compression factor `flops / nnz(C)` a multiplication realized — the
/// quantity the cost models price a launch with. An empty product with
/// zero flops reports 1 (nothing happened, by convention); an empty product
/// with `flops > 0` means *every* partial product cancelled — compression
/// is effectively infinite, reported as `flops` itself (the largest finite
/// value the ratio could have taken at `nnz = 1`) so the value stays usable
/// in the rate models' denominators.
pub fn realized_cf(flops: u64, nnz: usize) -> f64 {
    match (nnz, flops) {
        (0, 0) => 1.0,
        (0, f) => f as f64,
        (nnz, f) => f as f64 / nnz as f64,
    }
}

/// `cf` threshold below which heaps beat hash tables on CPU.
///
/// The paper reports the qualitative crossover ("for small cf values, the
/// heaps show themselves to be slightly more effective while for large cf
/// values hash tables perform significantly better", §VII-B). Measured here
/// it sits lower: with the tournament heap, heap ÷ hash is 0.91 at cf = 1,
/// 0.49 at cf = 1.5, 0.21 at cf = 14 and 0.14 at cf ≈ 140
/// (EXPERIMENTS.md, "Two-phase local SpGEMM"), so on this host the heap
/// never leads and [`multiply_auto_in`] has no heap arm. The constant
/// still moves `hipmcl-gpu::select`'s modeled kernel choice, hence modeled
/// clocks and the committed probe CSVs, so it stays until the
/// recalibration ROADMAP item 8 tracks.
pub const HEAP_HASH_CF_CROSSOVER: f64 = 2.0;

/// Multiplies `A·B` in the given semiring the way the serial driver does:
/// per-column flops once, then the one-pass hash kernel, which needs no
/// `nnz(C)` beforehand. Returns the product, its analysis — `flops` from
/// the per-column pass, `nnz_out` and hence `cf` read off the product —
/// and the kernel that ran, for instrumentation.
pub fn multiply_auto_in<S: Semiring>(
    s: S,
    a: &Csc<S::Elem>,
    b: &Csc<S::Elem>,
) -> (Csc<S::Elem>, MultAnalysis, CpuAlgo) {
    let fpc = crate::analysis::flops_per_column(a, b);
    let c = crate::hash::multiply_emit(Build::host(), s, a, b, 0..b.ncols(), &fpc, None, Push);
    let analysis = MultAnalysis {
        flops: fpc.iter().sum(),
        nnz_out: c.nnz() as u64,
    };
    (c, analysis, CpuAlgo::Hash)
}

/// [`multiply_auto_in`] with the plus-times semiring.
pub fn multiply_auto<T: Value>(a: &Csc<T>, b: &Csc<T>) -> (Csc<T>, MultAnalysis, CpuAlgo)
where
    PlusTimes<T>: Semiring<Elem = T>,
{
    multiply_auto_in(PlusTimes::new(), a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::random_csc;

    #[test]
    fn all_algos_agree() {
        let a = random_csc(20, 20, 150, 2);
        let (auto, _, _) = multiply_auto(&a, &a);
        assert_eq!(crate::heap::multiply(&a, &a), auto);
    }

    #[test]
    fn multiply_auto_returns_consistent_analysis() {
        let a = random_csc(15, 15, 60, 4);
        let (c, analysis, _) = multiply_auto(&a, &a);
        assert_eq!(analysis.nnz_out, c.nnz() as u64);
        assert!(analysis.flops >= analysis.nnz_out);
    }

    #[test]
    fn realized_cf_of_a_product() {
        let a = random_csc(18, 18, 120, 5);
        let fpc = crate::flops_per_column(&a, &a);
        let flops = fpc.iter().sum();
        let s = PlusTimes::<f64>::new();
        for algo in [CpuAlgo::Hash, CpuAlgo::Heap] {
            let c = algo.multiply_cols_in(s, &a, &a, 0..a.ncols(), &fpc, Push);
            assert_eq!(c, crate::heap::multiply(&a, &a), "{}", algo.name());
        }
        let nnz = crate::hash::multiply(&a, &a).nnz();
        assert!((realized_cf(flops, nnz) - flops as f64 / nnz as f64).abs() < 1e-12);
        // Empty product with zero flops: cf defaults to 1.
        assert_eq!(realized_cf(0, 0), 1.0);
        // Empty product with positive flops (every partial product
        // cancelled): compression is effectively infinite — reported as
        // the finite stand-in `flops`, never 1.0 (the old bug, which
        // polluted realized-cf stats toward the heap regime).
        assert_eq!(realized_cf(7, 0), 7.0);
    }

    #[test]
    fn names_match_paper_labels() {
        assert_eq!(CpuAlgo::Hash.name(), "cpu-hash");
        assert_eq!(CpuAlgo::Heap.name(), "cpu-heap");
    }
}
