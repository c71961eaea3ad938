//! Shared infrastructure for the experiment harness binaries.
//!
//! The `src/bin/*.rs` regenerate the tables and figures of the paper's
//! evaluation (EXPERIMENTS.md, "Paper figures and tables"). This library holds
//! what they share: scaled workload selection, the scatter-based runner
//! of the library's distributed MCL driver, and table/CSV output.
//!
//! All reported times are **modeled Summit times** from the virtual
//! clocks (see `hipmcl-comm`); absolute values are not expected to match
//! the paper's, but the *shape* — who wins, by what factor, where the
//! crossovers sit — is.

use hipmcl_comm::{Comm, MachineModel, ProcGrid, Universe};
use hipmcl_core::dist::{cluster_distributed_with, DistMclReport};
use hipmcl_core::MclConfig;
use hipmcl_gpu::multi::MultiGpu;
use hipmcl_sparse::Csc;
use hipmcl_summa::spgemm::{CommPolicy, SummaOutput};
use hipmcl_summa::DistMatrix;
use hipmcl_workloads::Dataset;
use std::io::Write;

/// Extra shrink factor from the environment (`HIPMCL_BENCH_SCALE`,
/// default 1): multiply to make every harness run that much smaller.
pub fn extra_scale() -> u64 {
    std::env::var("HIPMCL_BENCH_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}

/// The simulated rank-count cap from the environment
/// (`HIPMCL_MAX_RANKS`), or `default` when unset or unparsable.
pub fn max_ranks(default: usize) -> usize {
    std::env::var("HIPMCL_MAX_RANKS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Reduction factor used for each paper network in the harness, chosen so
/// a full MCL run stays in seconds on a laptop-class host while keeping
/// the per-column density (and hence `cf`) regime of the original.
pub fn bench_reduction(d: Dataset) -> u64 {
    let base = match d {
        Dataset::Archaea => 2_000,
        Dataset::Eukarya => 3_000,
        Dataset::Isom100_3 => 7_000,
        Dataset::Isom100_1 => 20_000,
        Dataset::Isom100 => 23_000,
        Dataset::Metaclust50 => 300_000,
    };
    base * extra_scale()
}

/// Generates the scaled bench instance of a paper network as a prepared
/// (symmetrized, self-looped, normalized) adjacency matrix.
pub fn bench_graph(d: Dataset, cfg: &MclConfig) -> Csc<f64> {
    let net = d.instance(bench_reduction(d));
    let adj = Csc::from_triples(&net.graph);
    hipmcl_core::serial::prepare_matrix(&adj, cfg)
}

/// Per-dataset selection parameter (MCL `-S`). The paper uses ~1100 at
/// full scale; what the optimizations respond to is the *column density*
/// `d` this produces (`flops/bytes ∝ d`), so the dense isom family keeps
/// a high selection even at reduced scale, while metaclust50 — whose
/// full-scale average degree is only ~97 — stays sparse, reproducing the
/// paper's observation that it benefits less from GPUs.
pub fn bench_select(d: Dataset) -> usize {
    match d {
        Dataset::Metaclust50 => 100,
        Dataset::Isom100_1 | Dataset::Isom100 => 400,
        _ => 300,
    }
}

/// MCL settings for the harness: selection scaled to the shrunken
/// networks (the paper uses ~1000 at full scale).
pub fn bench_mcl_config_for(d: Dataset, mut base: MclConfig) -> MclConfig {
    base.prune.select = bench_select(d);
    base.max_iters = 12;
    base
}

/// [`bench_mcl_config_for`] with the default (dense) selection.
pub fn bench_mcl_config(mut base: MclConfig) -> MclConfig {
    base.prune.select = 300;
    base.max_iters = 12;
    base
}

/// Runs distributed MCL with rank-0-only workload generation (the graph
/// is scattered, not replicated — essential when simulating hundreds of
/// ranks on one host). Dispatches through [`hipmcl_comm::Universe::run_dist`],
/// so `HIPMCL_TRANSPORT` / `HIPMCL_TIME` select the transport and time
/// model without code changes.
pub fn run_scattered(p: usize, d: Dataset, cfg: &MclConfig) -> DistMclReport {
    let reports = Universe::run_dist(p, MachineModel::summit_bench(), |comm| {
        run_scattered_on(comm, d, cfg, |_, _| {})
    });
    reports.into_iter().next().unwrap()
}

/// Rank body of [`run_scattered`], reusable by binaries that need custom
/// machine models, under the library driver's per-iteration observer
/// ([`cluster_distributed_with`]; `|_, _| {}` to just run).
pub fn run_scattered_on(
    comm: Comm,
    d: Dataset,
    cfg: &MclConfig,
    observe: impl FnMut(usize, &SummaOutput),
) -> DistMclReport {
    let grid = ProcGrid::new(comm);
    let mut gpus = MultiGpu::summit_node(grid.world.model());
    let global = if grid.world.rank() == 0 {
        Some(bench_graph(d, cfg).to_triples())
    } else {
        None
    };
    let a = DistMatrix::scatter_from_root(&grid, global.as_ref());
    // Clock starts after setup: distribution is not part of any measured
    // stage in the paper either.
    grid.world.reset_instrumentation();
    cluster_distributed_with(&grid, &mut gpus, a, cfg, observe)
}

/// Runs the scattered workload on `p` in-process ranks and keeps, per
/// rank and iteration, what `pick` reads off the raw [`SummaOutput`] —
/// what a probe adds to the library's report. Returns that report and
/// the picks as `[rank][iteration]`; the probes reduce them host-side,
/// so an observed run makes exactly the collectives an unobserved one
/// does.
fn run_observed<R: Send>(
    p: usize,
    model: MachineModel,
    d: Dataset,
    cfg: &MclConfig,
    pick: impl Fn(&SummaOutput) -> R + Sync,
) -> (DistMclReport, Vec<Vec<R>>) {
    let results = Universe::run(p, model, |comm| {
        let mut seen = Vec::new();
        let report = run_scattered_on(comm, d, cfg, |_, out| seen.push(pick(out)));
        (report, seen)
    });
    let (reports, seen): (Vec<_>, Vec<_>) = results.into_iter().unzip();
    (reports.into_iter().next().unwrap(), seen)
}

/// One comm policy's outcome in the broadcast/gather ablation
/// (`probe_comm_policy`).
#[derive(Clone, Debug)]
pub struct CommPolicyReport {
    /// The library driver's report of the run.
    pub mcl: DistMclReport,
    /// Sum over ranks and iterations of the modeled comm time of the
    /// panels as actually moved (each panel priced at its chosen mode).
    pub modeled_comm: f64,
    /// Same panels, all priced as tree broadcasts — the
    /// [`CommPolicy::Broadcast`] baseline.
    pub modeled_comm_broadcast: f64,
    /// Stage panels that went out as flat point-to-point sends, summed
    /// over ranks and iterations (0 under `Broadcast`).
    pub gather_panels: u64,
    /// Stage panels moved in total, summed over ranks and iterations.
    pub total_panels: u64,
}

/// The probe's report reads as the run's [`DistMclReport`] (idle times,
/// `total_time`, `iterations`, … — a full MCL run through the library
/// driver, comparable with every table's `overall`) plus the fields the
/// probe's observer added.
impl std::ops::Deref for CommPolicyReport {
    type Target = DistMclReport;
    fn deref(&self) -> &DistMclReport {
        &self.mcl
    }
}

/// Runs distributed MCL under the given comm policy, reporting the run
/// plus the modeled per-panel communication costs and how many panels
/// crossed to flat sends. Only how stage panels travel varies with
/// `policy` — payloads never change, so the product (and the clustering)
/// is identical under both policies.
///
/// Unlike the other probes this one runs on the *unscaled* Summit model:
/// `summit_bench` shrinks `α` by four orders of magnitude to match the
/// shrunken instances, which erases the latency term the broadcast/gather
/// trade-off is about. With the real `α/β` the shrunken panels sit in the
/// latency-dominated regime — exactly where hypersparse stage panels land
/// at the paper's rank counts.
pub fn run_comm_policy_probe(
    p: usize,
    d: Dataset,
    policy: CommPolicy,
    max_iters: usize,
) -> CommPolicyReport {
    let mut cfg = bench_mcl_config_for(d, MclConfig::optimized(4 << 30));
    cfg.summa.comm = policy;
    cfg.max_iters = max_iters;
    // Per iteration: as-moved and all-broadcast seconds, flat and all panels.
    let pick = |out: &SummaOutput| {
        let flat = (out.comm_choices.iter()).filter(|c| c.mode == hipmcl_comm::CommMode::Gather);
        let (moved, tree) = (out.modeled_comm_time(), out.modeled_comm_time_broadcast());
        (
            moved,
            tree,
            flat.count() as u64,
            out.comm_choices.len() as u64,
        )
    };
    let (mcl, seen) = run_observed(p, MachineModel::summit(), d, &cfg, pick);
    let all = || seen.iter().flatten();
    CommPolicyReport {
        modeled_comm: all().map(|it| it.0).sum(),
        modeled_comm_broadcast: all().map(|it| it.1).sum(),
        gather_panels: all().map(|it| it.2).sum(),
        total_panels: all().map(|it| it.3).sum(),
        mcl,
    }
}

/// The pools the layer microbenchmarks time every case under: width 1,
/// and the host's width (`std::thread::available_parallelism`) when that
/// is more — a one-core host yields no scaling column.
pub fn scaling_pools() -> Vec<(usize, rayon::ThreadPool)> {
    let mut widths = vec![
        1,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    ];
    widths.dedup();
    let pool = |w| rayon::ThreadPoolBuilder::new().num_threads(w).build();
    (widths.into_iter())
        .map(|w| (w, pool(w).expect("spawn the pool's workers")))
        .collect()
}

/// Prints an aligned table: `headers` then rows of strings.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:>w$}  ", c, w = widths[i.min(widths.len() - 1)]));
        }
        println!("{}", s.trim_end());
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Writes rows as CSV under `results/` (created on demand); returns the
/// path written.
pub fn write_csv(name: &str, headers: &[&str], rows: &[Vec<String>]) -> std::path::PathBuf {
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir).expect("create results/");
    let path = dir.join(format!("{name}.csv"));
    let mut f = std::fs::File::create(&path).expect("create csv");
    writeln!(f, "{}", headers.join(",")).unwrap();
    for row in rows {
        writeln!(f, "{}", row.join(",")).unwrap();
    }
    path
}

/// Formats seconds scaled to a friendly unit.
pub fn fmt_time(s: f64) -> String {
    if s >= 60.0 {
        format!("{:.2} min", s / 60.0)
    } else if s >= 1.0 {
        format!("{s:.2} s")
    } else if s >= 1e-3 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{:.2} µs", s * 1e6)
    }
}

/// Paper-vs-measured footer used by every harness binary.
pub fn print_paper_note(lines: &[&str]) {
    println!();
    println!("paper reference:");
    for l in lines {
        println!("  {l}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipmcl_summa::merge::MergeKernelPolicy;

    #[test]
    fn fmt_time_units() {
        assert_eq!(fmt_time(120.0), "2.00 min");
        assert_eq!(fmt_time(2.5), "2.50 s");
        assert_eq!(fmt_time(0.0025), "2.50 ms");
        assert_eq!(fmt_time(2.5e-6), "2.50 µs");
    }

    #[test]
    fn reductions_cover_all_datasets() {
        for d in Dataset::medium().into_iter().chain(Dataset::large()) {
            assert!(bench_reduction(d) > 0);
            let cfg = d.config(bench_reduction(d));
            assert!(cfg.n >= 64, "{} instance too small", d.name());
            assert!(
                cfg.n <= 20_000,
                "{} instance too large for the harness",
                d.name()
            );
        }
    }

    #[test]
    fn scattered_run_works_small() {
        let mut cfg = bench_mcl_config(MclConfig::optimized(u64::MAX));
        cfg.max_iters = 2;
        let r = run_scattered(4, Dataset::Archaea, &cfg);
        assert!(r.total_time > 0.0);
        assert!(r.iterations <= 2);
    }

    #[test]
    fn hybrid_comm_modeled_time_no_worse_than_broadcast() {
        // The probe_comm_policy acceptance check: on both reference
        // workloads, the Hybrid policy's modeled comm time must not
        // exceed the all-broadcast baseline — per panel it takes the
        // model's argmin, so the sum can only tie or win — and on a 3×3
        // grid (α + 2βb flat vs 2α + 2βb tree) it must actually move
        // panels to flat sends and strictly win. Payloads are unchanged,
        // so both policies moved exactly the same panels.
        let iters = 3;
        for d in [Dataset::Archaea, Dataset::Isom100_3] {
            let bcast = run_comm_policy_probe(9, d, CommPolicy::Broadcast, iters);
            let hybrid = run_comm_policy_probe(9, d, CommPolicy::Hybrid, iters);
            assert_eq!(bcast.iterations, hybrid.iterations, "{}", d.name());
            assert_eq!(bcast.total_panels, hybrid.total_panels, "{}", d.name());
            assert_eq!(bcast.gather_panels, 0, "broadcast never sends flat");
            // Identical panels → identical all-tree baseline.
            assert!(
                (bcast.modeled_comm - hybrid.modeled_comm_broadcast).abs()
                    < 1e-9 * bcast.modeled_comm.max(1.0),
                "{}: baselines diverged {} vs {}",
                d.name(),
                bcast.modeled_comm,
                hybrid.modeled_comm_broadcast
            );
            assert!(
                hybrid.modeled_comm <= bcast.modeled_comm * (1.0 + 1e-9),
                "{}: hybrid modeled comm {} must be <= broadcast {}",
                d.name(),
                hybrid.modeled_comm,
                bcast.modeled_comm
            );
            assert!(hybrid.gather_panels > 0, "{}", d.name());
            assert!(
                hybrid.modeled_comm < bcast.modeled_comm,
                "{}: with panels on flat sends the win must be strict",
                d.name()
            );
        }
    }

    #[test]
    fn comm_policy_preserves_clusters() {
        // How a panel travels never changes what arrives: cluster labels
        // must be bit-identical under both comm policies.
        let run = |policy: CommPolicy| {
            let mut cfg = bench_mcl_config(MclConfig::optimized(u64::MAX));
            cfg.summa.comm = policy;
            cfg.max_iters = 3;
            run_scattered(4, Dataset::Archaea, &cfg)
        };
        let bcast = run(CommPolicy::Broadcast);
        let hybrid = run(CommPolicy::Hybrid);
        assert_eq!(bcast.labels, hybrid.labels);
        assert_eq!(bcast.num_clusters, hybrid.num_clusters);
        assert_eq!(bcast.iterations, hybrid.iterations);
    }

    #[test]
    fn merge_peak_elems_is_schedule_not_kernel_determined() {
        // The peak merge working set is a property of the binary
        // *schedule* (how many slabs coexist), not of the label each
        // merge is timed under — so Auto (BRMerge/SpAdd labels) must
        // report exactly the per-iteration peaks, merge counts and phases
        // that the heap label does on the same run.
        use hipmcl_comm::MergeKernel;
        use hipmcl_gpu::select::SelectionPolicy;
        let d = Dataset::Archaea;
        let run = |kernel: MergeKernelPolicy| {
            let mut cfg = bench_mcl_config_for(d, MclConfig::optimized(3 << 20));
            cfg.summa.policy = SelectionPolicy::cpu_only();
            cfg.summa.merge_kernel = kernel;
            cfg.max_iters = 2;
            let pick = |out: &SummaOutput| (out.merge_stats.merge_ops, out.phases);
            run_observed(4, MachineModel::summit_bench(), d, &cfg, pick)
        };
        let (heap, heap_seen) = run(MergeKernelPolicy::Fixed(MergeKernel::Heap));
        let (auto, auto_seen) = run(MergeKernelPolicy::Auto);
        assert_eq!(heap.merge_peaks, auto.merge_peaks);
        assert_eq!(
            heap_seen, auto_seen,
            "merge ops and phases per rank and iteration"
        );
    }
}
