//! One *launch*: a process that sets one workload up once, runs an
//! untimed cold MCL run, then times repetitions until its share of the
//! measuring window is used.
//!
//! # The replay contract
//!
//! Process transports re-execute this binary with the same arguments and
//! the child *replays everything before the target universe*
//! (`comm/src/launch.rs`); children's stdout is discarded. So a launch
//! opens **exactly one universe**, everything it needs arrives as
//! arguments, graph generation happens on rank 0 *inside* the rank
//! closure, repetitions loop inside that universe between barriers, and
//! numbers come back as each rank's `Vec<f64>` result. Nothing before
//! the universe reads a clock, the environment or an RNG.

use crate::spans::{self, Recorder};
use crate::workloads::{generate, Mode, Workload, RANKS};
use crate::{canon, procfs};
use hipmcl_comm::collectives::{allreduce, allreduce_sum_vec, barrier, bcast};
use hipmcl_comm::{MachineModel, ProcGrid, TimeModel, TransportKind, Universe, UniverseConfig};
use hipmcl_core::dist::{cluster_distributed_from, dist_inflate_and_chaos_cols};
use hipmcl_core::serial::prepare_matrix;
use hipmcl_core::{cluster_serial, MclConfig};
use hipmcl_gpu::multi::MultiGpu;
use hipmcl_sparse::components::connected_components;
use hipmcl_sparse::{colops, Csc};
use hipmcl_summa::components::gathered_components;
use hipmcl_summa::spgemm::summa_spgemm_with;
use hipmcl_summa::topk::prune_local_slab;
use hipmcl_summa::DistMatrix;
use std::time::Instant;

/// Arguments of one launch (all of them travel on the command line).
#[derive(Clone, Copy, Debug)]
pub struct LaunchArgs {
    pub workload: &'static Workload,
    pub seed: u64,
    /// Seconds of timed repetitions this launch should accumulate.
    pub seconds: f64,
    /// Run the span-recording stepwise loop under `TimeModel::Measured`
    /// instead of the library driver under `TimeModel::Modeled`.
    pub traced: bool,
    /// Graphs ÷8, one repetition.
    pub smoke: bool,
}

/// Per-repetition measurements of one rank, as indices into a
/// [`Rep`]. Untraced repetitions fill the first block only.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum F {
    // Both passes.
    Wall,
    Iterations,
    Clusters,
    HashHi,
    HashLo,
    Flops,
    CpuS,
    Msgs,
    Bytes,
    // Traced pass, distributed: wall seconds per stage ...
    RecvWait,
    Expand,
    LocalSpgemm,
    Bcast,
    Merge,
    Estimate,
    Topk,
    Components,
    InflateChaos,
    // ... the model's price for the same stages ...
    ModLocalSpgemm,
    ModBcast,
    ModMerge,
    ModEstimate,
    ModPruning,
    // ... and counts.
    Phases,
    MergePeak,
    NnzExpanded,
    NnzKept,
    // Traced pass, serial.
    MultiplyAuto,
    Prune,
    Inflate,
    Chaos,
    SerialComponents,
    // Traced pass, both: share of `mcl.run` its child spans cover.
    CoverFrac,
    Count,
}

/// One repetition's measurements on one rank, indexed by [`F`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Rep([f64; F::Count as usize]);

impl Default for Rep {
    fn default() -> Self {
        Self([0.0; F::Count as usize])
    }
}

impl std::ops::Index<F> for Rep {
    type Output = f64;
    fn index(&self, f: F) -> &f64 {
        &self.0[f as usize]
    }
}

impl std::ops::IndexMut<F> for Rep {
    fn index_mut(&mut self, f: F) -> &mut f64 {
        &mut self.0[f as usize]
    }
}

/// Everything one rank reports back from a launch.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RankReport {
    /// Unix time when the rank body was entered / the first timed
    /// repetition began (the driver subtracts its own spawn time).
    pub enter_epoch_s: f64,
    pub first_rep_epoch_s: f64,
    /// Input size (rank 0 only).
    pub n: f64,
    pub nnz: f64,
    /// Set-up stages (generation and preparation on rank 0 only).
    pub gen_s: f64,
    pub prepare_s: f64,
    pub scatter_s: f64,
    pub warmup_s: f64,
    /// `VmHWM` of this rank's process (0 on in-process ranks other than
    /// 0, which share rank 0's process).
    pub peak_rss_mb: f64,
    pub reps: Vec<Rep>,
    /// Spans of the last traced repetition.
    pub spans: Vec<spans::Span>,
}

const HEADER_WORDS: usize = 10;

impl RankReport {
    pub fn encode(&self) -> Vec<f64> {
        let mut out = vec![
            self.enter_epoch_s,
            self.first_rep_epoch_s,
            self.n,
            self.nnz,
            self.gen_s,
            self.prepare_s,
            self.scatter_s,
            self.warmup_s,
            self.peak_rss_mb,
            self.reps.len() as f64,
        ];
        for r in &self.reps {
            out.extend_from_slice(&r.0);
        }
        spans::encode(&self.spans, &mut out);
        out
    }

    pub fn decode(words: &[f64]) -> Result<Self, String> {
        if words.len() < HEADER_WORDS {
            return Err(format!("rank report has only {} words", words.len()));
        }
        let n_reps = words[9] as usize;
        let reps_end = HEADER_WORDS + n_reps * F::Count as usize;
        if words.len() < reps_end || !(words.len() - reps_end).is_multiple_of(spans::WORDS) {
            return Err(format!(
                "rank report of {} words does not hold {n_reps} repetitions plus whole spans",
                words.len()
            ));
        }
        Ok(Self {
            enter_epoch_s: words[0],
            first_rep_epoch_s: words[1],
            n: words[2],
            nnz: words[3],
            gen_s: words[4],
            prepare_s: words[5],
            scatter_s: words[6],
            warmup_s: words[7],
            peak_rss_mb: words[8],
            reps: words[HEADER_WORDS..reps_end]
                .chunks_exact(F::Count as usize)
                .map(|c| Rep(c.try_into().expect("chunk has F::Count words")))
                .collect(),
            spans: spans::decode(&words[reps_end..]),
        })
    }
}

/// Seconds since the Unix epoch: the one clock the driver and the rank
/// processes of a launch can compare.
pub fn epoch_s() -> f64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0.0, |d| d.as_secs_f64())
}

fn record_labels(rep: &mut Rep, labels: &[u32], clusters: usize, iterations: usize) {
    let h = canon::partition_hash(labels);
    rep[F::HashHi] = (h >> 32) as f64;
    rep[F::HashLo] = (h & 0xffff_ffff) as f64;
    rep[F::Clusters] = clusters as f64;
    rep[F::Iterations] = iterations as f64;
}

/// The partition hash a repetition recorded.
pub fn rep_hash(rep: &Rep) -> u64 {
    ((rep[F::HashHi] as u64) << 32) | rep[F::HashLo] as u64
}

/// Runs the launch and returns one report per rank (one for serial).
pub fn run(args: LaunchArgs) -> Vec<RankReport> {
    let words: Vec<Vec<f64>> = match args.workload.mode {
        Mode::Serial => vec![serial_body(&args)],
        Mode::Dist(transport) => {
            let time = if args.traced {
                TimeModel::Measured
            } else {
                TimeModel::Modeled
            };
            let ucfg = UniverseConfig::new(RANKS, MachineModel::summit_bench())
                .with_transport(transport)
                .with_time(time);
            Universe::run_with(ucfg, move |comm| dist_body(comm, &args))
        }
    };
    words
        .iter()
        .map(|w| RankReport::decode(w).expect("rank report written by this binary"))
        .collect()
}

/// The cold run, then timed repetitions until the window is used: one in
/// smoke mode, otherwise at least two and on while the accumulated wall
/// time is short of `args.seconds`. `agree` turns this rank's verdict into
/// the one every rank follows (outside the timed window).
fn warm_up_and_time(
    args: &LaunchArgs,
    report: &mut RankReport,
    mut one_rep: impl FnMut(&mut Vec<spans::Span>) -> Rep,
    agree: impl Fn(bool) -> bool,
) {
    let t = Instant::now();
    one_rep(&mut Vec::new());
    report.warmup_s = t.elapsed().as_secs_f64();

    report.first_rep_epoch_s = epoch_s();
    let mut measured_s = 0.0;
    loop {
        let rep = one_rep(&mut report.spans);
        measured_s += rep[F::Wall];
        report.reps.push(rep);
        let go = !args.smoke && (report.reps.len() < 2 || measured_s < args.seconds);
        if !agree(go) {
            break;
        }
    }
}

fn serial_body(args: &LaunchArgs) -> Vec<f64> {
    let mut report = RankReport {
        enter_epoch_s: epoch_s(),
        ..Default::default()
    };
    let cfg = args.workload.mcl_config();
    let t = Instant::now();
    let input = generate(args.workload.graph_kind(args.smoke), args.seed);
    report.gen_s = t.elapsed().as_secs_f64();
    report.n = input.adjacency.ncols() as f64;
    report.nnz = input.adjacency.nnz() as f64;
    // `cluster_serial` prepares its operand itself, inside every timed
    // repetition; time it once here for the set-up breakdown only.
    let t = Instant::now();
    drop(prepare_matrix(&input.adjacency, &cfg));
    report.prepare_s = t.elapsed().as_secs_f64();

    let one_rep = |spans_out: &mut Vec<spans::Span>| -> Rep {
        let mut rep = Rep::default();
        let cpu0 = procfs::cpu_seconds();
        let t0 = Instant::now();
        if args.traced {
            let (labels, k, iterations, flops, spans) = serial_stepwise(&input.adjacency, &cfg);
            rep[F::Wall] = t0.elapsed().as_secs_f64();
            record_labels(&mut rep, &labels, k, iterations);
            rep[F::Flops] = flops as f64;
            for (field, name) in [
                (F::MultiplyAuto, "spgemm.multiply_auto"),
                (F::Prune, "sparse.prune"),
                (F::Inflate, "sparse.inflate"),
                (F::Chaos, "sparse.chaos"),
                (F::SerialComponents, "sparse.components"),
            ] {
                rep[field] = spans::total(&spans, name);
            }
            rep[F::CoverFrac] = spans::root_cover_frac(&spans);
            *spans_out = spans;
        } else {
            let r = cluster_serial(&input.adjacency, &cfg);
            rep[F::Wall] = t0.elapsed().as_secs_f64();
            record_labels(&mut rep, &r.labels, r.num_clusters, r.iterations);
            rep[F::Flops] = r.trace.iter().map(|t| t.flops).sum::<u64>() as f64;
        }
        rep[F::CpuS] = procfs::cpu_seconds() - cpu0;
        rep
    };

    warm_up_and_time(args, &mut report, one_rep, |go| go);
    report.peak_rss_mb = procfs::peak_rss_mb();
    report.encode()
}

/// `cluster_serial` rebuilt from the same public calls, one span each.
fn serial_stepwise(
    adjacency: &Csc<f64>,
    cfg: &MclConfig,
) -> (Vec<u32>, usize, usize, u64, Vec<spans::Span>) {
    let mut rec = Recorder::new();
    let mut iterations = 0;
    let mut flops = 0u64;
    rec.open("mcl.run", 0);
    let mut a = rec.span("core.prepare", 0, || prepare_matrix(adjacency, cfg));
    for it in 1..=cfg.max_iters {
        iterations = it;
        let (b, analysis, _algo) = rec.span("spgemm.multiply_auto", it, || {
            hipmcl_spgemm::hybrid::multiply_auto(&a, &a)
        });
        flops += analysis.flops;
        a = rec.span("sparse.prune", it, || colops::prune(&b, &cfg.prune).0);
        rec.span("sparse.inflate", it, || {
            colops::inflate(&mut a, cfg.inflation)
        });
        let chaos = rec.span("sparse.chaos", it, || colops::chaos(&a));
        if chaos < cfg.chaos_epsilon {
            break;
        }
    }
    let (labels, k) = rec.span("sparse.components", 0, || connected_components(&a));
    rec.close();
    (labels, k, iterations, flops, rec.finish())
}

fn dist_body(comm: hipmcl_comm::Comm, args: &LaunchArgs) -> Vec<f64> {
    let mut report = RankReport {
        enter_epoch_s: epoch_s(),
        ..Default::default()
    };
    let cfg = args.workload.mcl_config();
    let grid = ProcGrid::new(comm);
    let mut gpus = MultiGpu::summit_node(grid.world.model());
    let root = grid.world.rank() == 0;
    // In-process ranks are threads of one process: only rank 0 reads the
    // process-wide /proc counters, or they would be counted four times.
    let owns_process = root || grid.world.transport() != TransportKind::InProcess;

    let global = root.then(|| {
        let t = Instant::now();
        let input = generate(args.workload.graph_kind(args.smoke), args.seed);
        report.gen_s = t.elapsed().as_secs_f64();
        report.n = input.adjacency.ncols() as f64;
        report.nnz = input.adjacency.nnz() as f64;
        let t = Instant::now();
        let prepared = prepare_matrix(&input.adjacency, &cfg).to_triples();
        report.prepare_s = t.elapsed().as_secs_f64();
        prepared
    });
    let t = Instant::now();
    let a = DistMatrix::scatter_from_root(&grid, global.as_ref());
    barrier(&grid.world);
    report.scatter_s = t.elapsed().as_secs_f64();
    drop(global);

    let one_rep = |spans_out: &mut Vec<spans::Span>| -> Rep {
        let mut rep = Rep::default();
        // The operand is already distributed when the clock starts.
        let operand = a.clone();
        grid.world.reset_instrumentation();
        barrier(&grid.world);
        let cpu0 = procfs::cpu_seconds();
        let stats0 = grid.world.stats();
        let t0 = Instant::now();
        if args.traced {
            *spans_out = dist_stepwise(&grid, &mut gpus, operand, &cfg, &mut rep);
        } else {
            let r = cluster_distributed_from(&grid, &mut gpus, operand, &cfg);
            record_labels(&mut rep, &r.labels, r.num_clusters, r.iterations);
            rep[F::Flops] = r.trace.iter().map(|t| t.flops).sum::<u64>() as f64;
        }
        let stats = grid.world.stats().delta_since(&stats0);
        barrier(&grid.world);
        rep[F::Wall] = t0.elapsed().as_secs_f64();
        if owns_process {
            rep[F::CpuS] = procfs::cpu_seconds() - cpu0;
        }
        rep[F::Msgs] = stats.msgs_sent as f64;
        rep[F::Bytes] = stats.bytes_sent as f64;
        rep[F::RecvWait] = stats.measured_comm_s;
        rep
    };

    // Rank 0's clock decides for everyone.
    warm_up_and_time(args, &mut report, one_rep, |go| {
        bcast(&grid.world, 0, root.then_some(go))
    });
    if owns_process {
        report.peak_rss_mb = procfs::peak_rss_mb();
    }
    report.encode()
}

/// `cluster_distributed_from`'s loop rebuilt from the same public calls
/// (`summa_spgemm_with` + `prune_local_slab` hook →
/// `dist_inflate_and_chaos_cols` → `gathered_components`), with a span
/// around each and the stage rollups of `SummaOutput` accumulated into
/// `rep`. It issues the same collectives in the same order as the library
/// driver — including the per-iteration nnz reduction and the end-of-run
/// report rollup — so traced minus untraced wall time is the cost of
/// tracing, not of a shorter program.
fn dist_stepwise(
    grid: &ProcGrid,
    gpus: &mut MultiGpu,
    mut a: DistMatrix,
    cfg: &MclConfig,
    rep: &mut Rep,
) -> Vec<spans::Span> {
    let comm = &grid.world;
    let col_comm = &grid.col_comm;
    let mut rec = Recorder::new();
    let mut iterations = 0;
    let mut flops = 0u64;
    let mut stage_words = Vec::new();
    rec.open("mcl.run", 0);
    for it in 1..=cfg.max_iters {
        iterations = it;
        rec.open("summa.expand", it);
        let mut pruning_modeled = 0.0;
        let mut nnz_expanded = 0usize;
        let mut nnz_kept = 0usize;
        let out = summa_spgemm_with(grid, gpus, &a, &a, &cfg.summa, |_phase, slab| {
            rec.open("summa.topk", it);
            let t0 = col_comm.now();
            let (pruned, _stats) = prune_local_slab(col_comm, &slab, &cfg.prune);
            // The library driver charges the columnwise scan here; the
            // modeled clock must stay identical to its run.
            col_comm.advance_clock(col_comm.model().elementwise_time(slab.nnz() as u64));
            pruning_modeled += col_comm.now() - t0;
            nnz_expanded += slab.nnz();
            nnz_kept += pruned.nnz();
            rec.close();
            pruned
        });
        rec.close();
        for (field, stage) in [
            (F::LocalSpgemm, "local_spgemm"),
            (F::Bcast, "summa_bcast"),
            (F::Merge, "merge"),
            (F::Estimate, "mem_estimation"),
        ] {
            rep[field] += out.timers_measured.get(stage);
        }
        for (field, stage) in [
            (F::ModLocalSpgemm, "local_spgemm"),
            (F::ModBcast, "summa_bcast"),
            (F::ModMerge, "merge"),
            (F::ModEstimate, "mem_estimation"),
        ] {
            rep[field] += out.timers.get(stage);
        }
        rep[F::ModPruning] += pruning_modeled;
        rep[F::Phases] += out.phases as f64;
        rep[F::MergePeak] = rep[F::MergePeak].max(out.merge_stats.peak_merge_elems as f64);
        rep[F::NnzExpanded] += nnz_expanded as f64;
        rep[F::NnzKept] += nnz_kept as f64;
        flops += out.estimate.map_or(0, |e| e.flops);
        a = out.c;
        stage_words.extend([0.0; 3]);

        rec.open("core.inflate_chaos", it);
        let _nnz_pruned = a.nnz_global(grid);
        let (_col_chaos, chaos) = dist_inflate_and_chaos_cols(grid, &mut a.local, cfg.inflation);
        rec.close();
        if chaos < cfg.chaos_epsilon {
            break;
        }
    }
    // The library driver's end-of-run rollup brackets cluster extraction
    // with six small collectives that cost real latency on a socket.
    rec.span("core.rollup", 0, || allreduce_sum_vec(comm, stage_words));
    let (labels, k) = rec.span("summa.components", 0, || gathered_components(grid, &a));
    record_labels(rep, &labels, k, iterations);
    rec.span("core.rollup", 0, || {
        allreduce_sum_vec(comm, vec![0.0; 8]);
        allreduce_sum_vec(comm, vec![0.0; 8]);
        allreduce(comm, comm.now(), f64::max);
        allreduce_sum_vec(comm, vec![0.0; 2]);
        allreduce(comm, vec![0.0; iterations], |x, _| x);
    });
    rec.close();
    rep[F::Flops] = flops as f64;
    let spans = rec.finish();
    for (field, name) in [
        (F::Expand, "summa.expand"),
        (F::Topk, "summa.topk"),
        (F::InflateChaos, "core.inflate_chaos"),
        (F::Components, "summa.components"),
    ] {
        rep[field] = spans::total(&spans, name);
    }
    rep[F::CoverFrac] = spans::root_cover_frac(&spans);
    spans
}
