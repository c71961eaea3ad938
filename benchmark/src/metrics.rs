//! The metric tables: every name the benchmark reports, with its unit,
//! direction and (end-to-end only) regression bound. `BENCHMARK.json` is
//! generated from these tables (`manifest` sub-command) and a test keeps
//! the two in step.

use crate::workloads::WORKLOADS;

/// One reported metric.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression (end-to-end metrics only).
    pub bound: Option<f64>,
    /// Report the fastest sample instead of the median (see
    /// [`END_TO_END`]).
    pub best_of: bool,
}

impl MetricDef {
    /// The value reported for `samples` of this metric.
    pub fn reduce(&self, samples: &[f64]) -> f64 {
        if self.best_of {
            samples.iter().copied().fold(f64::INFINITY, f64::min)
        } else {
            crate::stats::median(samples)
        }
    }
}

/// The value reported for `samples` of the metric called `name`.
pub fn reduce(name: &str, samples: &[f64]) -> f64 {
    match find(name) {
        Some(m) if !samples.is_empty() => m.reduce(samples),
        _ => crate::stats::median(samples),
    }
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: higher,
        bound: Some(bound),
        best_of: false,
    }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: false,
        bound: None,
        best_of: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: true,
        bound: None,
        best_of: false,
    }
}

/// Seconds one run of the benchmark measures (`run_seconds`).
pub const RUN_SECONDS: u64 = 12;

/// What a user of the system sees, per workload, tracing off.
///
/// `mcl_wall_s` is the *fastest* repetition of the run, not the median:
/// this host (a shared 2-core VM) slows down by 20–50 % for tens of
/// seconds at a time, which is as long as a whole run. The noise is
/// one-sided, so over twenty-repetition windows the minimum repeats
/// within ~3 % where the median moves by 7–9 %. Median and quartiles are
/// still in the result file.
///
/// The bounds come from ten-seed sweeps (IQR ÷ median): `mcl_wall_s`
/// 3–7 % in quiet spells and up to 23 % when three of ten runs fall into
/// a slow spell; `peak_rss_mb` 1–5 %; and the host drifts by ~15 %
/// between ten-minute periods. On a quieter host they can shrink.
pub const END_TO_END: [MetricDef; 3] = [
    MetricDef {
        best_of: true,
        ..e2e("mcl_wall_s", "s", false, 0.25)
    },
    e2e("setup_s", "s", false, 0.25),
    e2e("peak_rss_mb", "MB", false, 0.20),
];

/// Single-layer metrics from the traced pass (per workload), the layer
/// pass and the comm pass. Informational: no bounds.
pub const PER_LAYER: [MetricDef; 91] = [
    // Traced pass: rank-mean wall seconds per MCL run, by layer.
    lower("summa.expand_s", "s"),
    lower("summa.expand_self_s", "s"),
    lower("summa.local_spgemm_s", "s"),
    lower("summa.bcast_s", "s"),
    lower("summa.merge_s", "s"),
    lower("summa.estimate_s", "s"),
    lower("summa.topk_s", "s"),
    lower("summa.components_s", "s"),
    lower("core.inflate_chaos_s", "s"),
    lower("comm.recv_wait_s", "s"),
    lower("spgemm.multiply_auto_s", "s"),
    lower("sparse.prune_s", "s"),
    lower("sparse.inflate_s", "s"),
    lower("sparse.chaos_s", "s"),
    lower("sparse.components_s", "s"),
    // Counts; they repeat exactly for a fixed seed.
    lower("core.iterations", "count"),
    lower("core.flops", "count"),
    lower("summa.phases", "count"),
    lower("summa.merge_peak_elems", "count"),
    lower("summa.topk_keep_frac", "ratio"),
    lower("comm.msgs", "count"),
    lower("comm.bytes", "B"),
    lower("workloads.n", "count"),
    lower("workloads.nnz", "count"),
    // Set-up breakdown.
    lower("comm.launch_s", "s"),
    lower("workloads.gen_s", "s"),
    lower("core.prepare_s", "s"),
    lower("summa.scatter_s", "s"),
    lower("core.warmup_s", "s"),
    lower("core.serial_ref_s", "s"),
    // Informational.
    lower("proc.cpu_s", "s"),
    higher("modularity", "ratio"),
    higher("core.f1_planted", "ratio"),
    lower("fail_frac", "ratio"),
    lower("trace.overhead_frac", "ratio"),
    higher("trace.cover_frac", "ratio"),
    lower("model.residual.local_spgemm", "ratio"),
    lower("model.residual.summa_bcast", "ratio"),
    lower("model.residual.merge", "ratio"),
    lower("model.residual.mem_estimation", "ratio"),
    lower("model.residual.pruning", "ratio"),
    lower("repo.loc", "count"),
    // Layer pass: one thread, public kernels timed from outside on a
    // low-cf (`lo`) and a high-cf (`hi`) operand.
    higher("spgemm.hash_mflops.lo", "Mflop/s"),
    higher("spgemm.hash_mflops.hi", "Mflop/s"),
    higher("spgemm.heap_mflops.lo", "Mflop/s"),
    higher("spgemm.heap_mflops.hi", "Mflop/s"),
    higher("spgemm.spa_mflops.lo", "Mflop/s"),
    higher("spgemm.spa_mflops.hi", "Mflop/s"),
    lower("spgemm.symbolic_s.lo", "s"),
    lower("spgemm.symbolic_s.hi", "s"),
    lower("spgemm.cohen_r5_s.lo", "s"),
    lower("spgemm.cohen_r5_s.hi", "s"),
    lower("spgemm.cohen_rel_err.lo", "ratio"),
    lower("spgemm.cohen_rel_err.hi", "ratio"),
    higher("gpu.nsparse_mflops.lo", "Mflop/s"),
    higher("gpu.nsparse_mflops.hi", "Mflop/s"),
    higher("gpu.bhsparse_mflops.lo", "Mflop/s"),
    higher("gpu.bhsparse_mflops.hi", "Mflop/s"),
    higher("gpu.rmerge2_mflops.lo", "Mflop/s"),
    higher("gpu.rmerge2_mflops.hi", "Mflop/s"),
    higher("summa.merge_heap_melems", "Melem/s"),
    higher("summa.merge_pairwise_melems", "Melem/s"),
    higher("summa.merge_hash_melems", "Melem/s"),
    higher("summa.merge_brmerge_melems", "Melem/s"),
    higher("summa.merge_spadd_melems", "Melem/s"),
    higher("summa.merge_kway_melems", "Melem/s"),
    higher("summa.merge_stack_melems", "Melem/s"),
    higher("sparse.wire_encode_gbps", "GB/s"),
    higher("sparse.wire_decode_gbps", "GB/s"),
    higher("sparse.from_triples_melems", "Melem/s"),
    higher("sparse.prune_melems", "Melem/s"),
    // Comm pass: one 4-rank universe per transport.
    lower("comm.p2p_lat_us.inproc", "us"),
    lower("comm.p2p_lat_us.shm", "us"),
    lower("comm.p2p_lat_us.uds", "us"),
    lower("comm.p2p_lat_us.tcp", "us"),
    lower("comm.burst4_us.inproc", "us"),
    lower("comm.burst4_us.shm", "us"),
    lower("comm.burst4_us.uds", "us"),
    lower("comm.burst4_us.tcp", "us"),
    higher("comm.p2p_gbps.inproc", "GB/s"),
    higher("comm.p2p_gbps.shm", "GB/s"),
    higher("comm.p2p_gbps.uds", "GB/s"),
    higher("comm.p2p_gbps.tcp", "GB/s"),
    lower("comm.allreduce_us.inproc", "us"),
    lower("comm.allreduce_us.shm", "us"),
    lower("comm.allreduce_us.uds", "us"),
    lower("comm.allreduce_us.tcp", "us"),
    lower("comm.bcast_ms.inproc", "ms"),
    lower("comm.bcast_ms.shm", "ms"),
    lower("comm.bcast_ms.uds", "ms"),
    lower("comm.bcast_ms.tcp", "ms"),
];

/// Looks a metric up in either table.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

fn metric_json(m: &MetricDef) -> String {
    let better = if m.higher_is_better {
        "higher"
    } else {
        "lower"
    };
    match m.bound {
        Some(b) => format!(
            r#"    {{"name": "{}", "unit": "{}", "better": "{better}", "bound": {b}}}"#,
            m.name, m.unit
        ),
        None => format!(
            r#"    {{"name": "{}", "unit": "{}", "better": "{better}"}}"#,
            m.name, m.unit
        ),
    }
}

/// The text of `BENCHMARK.json`.
pub fn manifest() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!(r#"    {{"name": "{}", "why": "{}"}}"#, w.name, w.why))
        .collect();
    let e2e: Vec<String> = END_TO_END.iter().map(metric_json).collect();
    let per_layer: Vec<String> = PER_LAYER.iter().map(metric_json).collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        e2e.join(",\n"),
        per_layer.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_and_units_meet_the_manifest_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(name_ok(m.name), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
            assert!(
                m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}: unit {}",
                m.name,
                m.unit
            );
        }
        for m in &END_TO_END {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "{}", m.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && !m.higher_is_better));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        for w in &WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name), "{}", w.name);
        }
    }

    #[test]
    fn every_transport_has_the_five_comm_metrics() {
        for (t, _) in crate::commpass::TRANSPORTS {
            for stem in crate::commpass::STEMS {
                assert!(find(&format!("comm.{stem}.{t}")).is_some(), "{stem}.{t}");
            }
        }
    }

    #[test]
    fn committed_manifest_matches_the_tables() {
        // Regenerate with `run.sh --manifest > BENCHMARK.json`.
        assert_eq!(include_str!("../../BENCHMARK.json"), manifest());
    }
}
