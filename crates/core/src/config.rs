//! MCL / HipMCL configuration.

use hipmcl_gpu::select::SelectionPolicy;
use hipmcl_sparse::colops::{InvalidPrune, PruneParams};
use hipmcl_summa::estimate::EstimatorKind;
use hipmcl_summa::merge::{MergeKernelPolicy, MergeStrategy};
use hipmcl_summa::spgemm::{CommPolicy, PhasePlan, SummaConfig};

/// Complete configuration of an MCL run.
#[derive(Clone, Copy, Debug)]
pub struct MclConfig {
    /// Inflation parameter (Hadamard power). The paper uses 2 everywhere.
    pub inflation: f64,
    /// Pruning policy applied after every expansion. Cutoff, selection
    /// and recovery are all honoured by both the serial and distributed
    /// drivers (and tested to agree); the presets ship with recovery
    /// disabled because the paper's evaluation parameters rarely trigger
    /// it and the harness calibration assumes the selection-only regime.
    pub prune: PruneParams,
    /// Stop when the chaos statistic falls below this.
    pub chaos_epsilon: f64,
    /// Hard iteration cap.
    pub max_iters: usize,
    /// Distributed expansion settings (ignored by the serial driver).
    pub summa: SummaConfig,
}

impl Default for MclConfig {
    fn default() -> Self {
        Self::optimized(u64::MAX)
    }
}

impl MclConfig {
    /// Baseline configuration reproducing *original* HipMCL: CPU heap
    /// SpGEMM, exact symbolic memory estimation, multiway merge, bulk
    /// synchronous.
    pub fn original_hipmcl(per_rank_budget: u64) -> Self {
        Self {
            inflation: 2.0,
            prune: PruneParams {
                recover_num: 0,
                recover_pct: 0.0,
                ..PruneParams::default()
            },
            chaos_epsilon: 1e-3,
            max_iters: 100,
            summa: SummaConfig::original_hipmcl(per_rank_budget),
        }
    }

    /// The paper's optimized HipMCL: GPU kernels, probabilistic/hybrid
    /// estimation, Pipelined Sparse SUMMA with binary merge.
    pub fn optimized(per_rank_budget: u64) -> Self {
        Self {
            summa: SummaConfig::optimized(per_rank_budget),
            ..Self::original_hipmcl(per_rank_budget)
        }
    }

    /// Optimized kernels without overlap (Fig. 1 middle bar).
    pub fn optimized_no_overlap(per_rank_budget: u64) -> Self {
        Self {
            summa: SummaConfig::optimized_no_overlap(per_rank_budget),
            ..Self::original_hipmcl(per_rank_budget)
        }
    }

    /// Small-graph testing preset: keep at most `select` entries per
    /// column, single fixed phase, deterministic seed.
    pub fn testing(select: usize) -> Self {
        Self {
            prune: PruneParams {
                cutoff: 1e-4,
                select,
                recover_num: 0,
                recover_pct: 0.0,
            },
            summa: SummaConfig {
                phases: PhasePlan::Fixed(1),
                policy: SelectionPolicy::cpu_only(),
                merge: MergeStrategy::Multiway,
                merge_kernel: MergeKernelPolicy::Auto,
                pipelined: false,
                comm: CommPolicy::Hybrid,
                seed: 42,
            },
            ..Self::original_hipmcl(u64::MAX)
        }
    }

    /// Overrides the estimator while keeping everything else.
    pub fn with_estimator(mut self, estimator: EstimatorKind, per_rank_budget: u64) -> Self {
        self.summa.phases = PhasePlan::Auto {
            estimator,
            per_rank_budget,
        };
        self
    }

    /// Checks the configuration for values that would misbehave at run
    /// time — pruning parameters no prune can honour (`select == 0` used
    /// to panic mid-collective) — which are reported here (and by both
    /// drivers, which call this on entry) rather than silently clamped.
    pub fn validate(&self) -> Result<(), InvalidPrune> {
        self.prune.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_in_summa_settings() {
        let orig = MclConfig::original_hipmcl(1 << 30);
        let opt = MclConfig::optimized(1 << 30);
        assert_eq!(orig.inflation, 2.0);
        assert!(!orig.summa.pipelined);
        assert!(opt.summa.pipelined);
        assert_eq!(opt.summa.merge, MergeStrategy::Binary);
        assert_eq!(orig.summa.merge, MergeStrategy::Multiway);
    }

    #[test]
    fn presets_ship_with_recovery_disabled() {
        let c = MclConfig::optimized(1);
        assert_eq!(c.prune.recover_num, 0);
    }

    #[test]
    fn testing_preset_bounds_columns() {
        let c = MclConfig::testing(8);
        assert_eq!(c.prune.select, 8);
        assert!(matches!(c.summa.phases, PhasePlan::Fixed(1)));
    }

    #[test]
    fn every_preset_validates() {
        for c in [
            MclConfig::original_hipmcl(1 << 30),
            MclConfig::optimized(1 << 30),
            MclConfig::optimized_no_overlap(1 << 30),
            MclConfig::testing(8),
        ] {
            assert!(c.validate().is_ok());
        }
    }

    #[test]
    fn validate_rejects_zero_select() {
        let mut c = MclConfig::testing(8);
        c.prune.select = 0;
        assert_eq!(c.validate().unwrap_err().field, "select");
    }

    #[test]
    fn validate_rejects_negative_and_nan_cutoff() {
        for cutoff in [-1e-9, f64::NAN] {
            let mut c = MclConfig::testing(8);
            c.prune.cutoff = cutoff;
            assert_eq!(c.validate().unwrap_err().field, "cutoff");
        }
        let mut c = MclConfig::testing(8);
        c.prune.cutoff = 0.0;
        assert!(c.validate().is_ok(), "0.0 prunes nothing and is legal");
    }

    #[test]
    fn validate_rejects_recover_pct_outside_unit_interval() {
        for pct in [-0.1, 1.1, f64::NAN] {
            let mut c = MclConfig::testing(8);
            c.prune.recover_pct = pct;
            assert_eq!(c.validate().unwrap_err().field, "recover_pct");
        }
        let mut c = MclConfig::testing(8);
        (c.prune.recover_num, c.prune.recover_pct) = (10, 1.0);
        assert!(c.validate().is_ok(), "1.0 is a legal fraction");
    }

    #[test]
    fn with_estimator_overrides_phases() {
        let c = MclConfig::testing(8).with_estimator(EstimatorKind::Probabilistic { r: 7 }, 1000);
        match c.summa.phases {
            PhasePlan::Auto {
                estimator,
                per_rank_budget,
            } => {
                assert_eq!(estimator, EstimatorKind::Probabilistic { r: 7 });
                assert_eq!(per_rank_budget, 1000);
            }
            _ => panic!("expected auto phases"),
        }
    }
}
