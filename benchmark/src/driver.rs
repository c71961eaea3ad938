//! The closed-loop driver: one client that spawns launches one after the
//! other (a repetition starts when the previous one ended), checks every
//! result against the serial reference, and reduces the samples to the
//! metrics of `metrics.rs`.
//!
//! The driver itself never opens a universe; each launch and each comm
//! pass is its own invocation of this binary (see `launch.rs`).

use crate::launch::{epoch_s, rep_hash, LaunchArgs, RankReport, Rep, F};
use crate::workloads::{generate, Workload};
use crate::{canon, commpass, layers, spans};
use hipmcl_core::cluster_serial;
use hipmcl_core::quality::{modularity, pair_counts};
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Launches per end-to-end pass: `setup_s` and `peak_rss_mb` are medians
/// over launches, `mcl_wall_s` pools every launch's repetitions.
const LAUNCHES: usize = 3;

/// Where result files and traces go, relative to the repository root
/// (`run.sh` changes into it).
pub const OUT_DIR: &str = "benchmark/out";

/// Settings shared by every pass of one invocation.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    pub seed: u64,
    /// Seconds of timed repetitions per pass and workload.
    pub seconds: f64,
    pub smoke: bool,
}

/// Samples of one metric; the reported value is `metrics::reduce` of them
/// (the median, except where `metrics.rs` says otherwise).
pub type Samples = Vec<(String, Vec<f64>)>;

/// Outcome of one pass on one workload.
#[derive(Clone, Debug, Default)]
pub struct PassResult {
    /// Timed repetitions attempted / failed (a launch that dies counts as
    /// one failed repetition).
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Samples,
}

impl PassResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(n, v)| crate::metrics::reduce(n, v))
    }

    fn push(&mut self, name: &str, samples: Vec<f64>) {
        self.metrics.push((name.to_string(), samples));
    }
}

/// What every repetition of a workload must reproduce.
pub struct Reference {
    hash: u64,
    clusters: usize,
    iterations: usize,
    modularity: f64,
    f1_planted: f64,
    seconds: f64,
}

/// The serial partition of the workload's graph under its configuration,
/// computed once per invocation, in this process.
pub fn reference(w: &Workload, opts: &Options) -> Reference {
    let input = generate(w.graph_kind(opts.smoke), opts.seed);
    let t = Instant::now();
    let r = cluster_serial(&input.adjacency, &w.mcl_config());
    let seconds = t.elapsed().as_secs_f64();
    Reference {
        hash: canon::partition_hash(&r.labels),
        clusters: r.num_clusters,
        iterations: r.iterations,
        modularity: modularity(&input.adjacency, &r.labels),
        f1_planted: input
            .truth
            .map_or(0.0, |truth| pair_counts(&r.labels, &truth).f1()),
        seconds,
    }
}

/// Formats result words for a child's stdout: the bit pattern in hex, so
/// every digit survives.
pub fn words_line(tag: &str, words: &[f64]) -> String {
    let hex: Vec<String> = words.iter().map(|w| format!("{:x}", w.to_bits())).collect();
    format!("{tag} {}", hex.join(" "))
}

/// Parses every `tag` line of a child's stdout back into words.
pub fn parse_words(stdout: &str, tag: &str) -> Result<Vec<Vec<f64>>, String> {
    stdout
        .lines()
        .filter_map(|l| l.strip_prefix(tag))
        .map(|l| {
            l.split_whitespace()
                .map(|h| {
                    u64::from_str_radix(h, 16)
                        .map(f64::from_bits)
                        .map_err(|e| format!("bad word {h:?} on a {tag} line: {e}"))
                })
                .collect()
        })
        .collect()
}

/// Runs this binary with `args`, waits for it, and returns its stdout.
fn run_child(args: &[String]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn {args:?}: {e}"))?;
    let mut stdout = String::new();
    let read = child
        .stdout
        .take()
        .expect("stdout was piped")
        .read_to_string(&mut stdout);
    // Always reap the child, whatever the read said.
    let status = child.wait().map_err(|e| format!("wait {args:?}: {e}"))?;
    read.map_err(|e| format!("read stdout of {args:?}: {e}"))?;
    if !status.success() {
        return Err(format!("{args:?} exited with {status}"));
    }
    Ok(stdout)
}

/// One finished launch.
struct Launch {
    ranks: Vec<RankReport>,
    /// Unix time just before the launch process was spawned.
    spawn_epoch_s: f64,
}

impl Launch {
    /// Process start → first timed repetition.
    fn setup_s(&self) -> f64 {
        self.ranks[0].first_rep_epoch_s - self.spawn_epoch_s
    }

    /// Σ over rank processes of `VmHWM`.
    fn peak_rss_mb(&self) -> f64 {
        self.ranks.iter().map(|r| r.peak_rss_mb).sum()
    }

    fn reps(&self) -> usize {
        self.ranks[0].reps.len()
    }

    /// Field `f` of repetition `i`, one value per rank.
    fn field(&self, i: usize, f: F) -> impl Iterator<Item = f64> + '_ {
        self.ranks.iter().map(move |r| r.reps[i][f])
    }

    /// Field `f` of repetition `i` on rank 0.
    fn root(&self, i: usize, f: F) -> f64 {
        self.ranks[0].reps[i][f]
    }

    fn rank_mean(&self, i: usize, f: F) -> f64 {
        self.field(i, f).sum::<f64>() / self.ranks.len() as f64
    }

    fn rank_sum(&self, i: usize, f: F) -> f64 {
        self.field(i, f).sum()
    }
}

/// The launches of one kind (untraced or traced) of a pass, pooled.
#[derive(Default)]
struct Pool(Vec<Launch>);

impl Pool {
    /// `g(launch, repetition)` for every timed repetition.
    fn per_rep(&self, g: impl Fn(&Launch, usize) -> f64) -> Vec<f64> {
        self.0
            .iter()
            .flat_map(|l| (0..l.reps()).map(move |i| (l, i)))
            .map(|(l, i)| g(l, i))
            .collect()
    }

    fn per_launch(&self, g: impl Fn(&Launch) -> f64) -> Vec<f64> {
        self.0.iter().map(g).collect()
    }

    fn fastest_wall(&self) -> f64 {
        self.per_rep(|l, i| l.root(i, F::Wall))
            .into_iter()
            .fold(f64::INFINITY, f64::min)
    }
}

/// The command line of a launch (parsed back by `main::launch_args`).
pub fn launch_command(a: &LaunchArgs) -> Vec<String> {
    let mut args = vec![
        "launch".to_string(),
        "--workload".into(),
        a.workload.name.into(),
        "--seed".into(),
        a.seed.to_string(),
        "--seconds".into(),
        a.seconds.to_string(),
        "--trace".into(),
        u8::from(a.traced).to_string(),
    ];
    if a.smoke {
        args.push("--smoke".into());
    }
    args
}

fn spawn_launch(a: &LaunchArgs) -> Result<Launch, String> {
    let spawn_epoch_s = epoch_s();
    let stdout = run_child(&launch_command(a))?;
    let ranks = parse_words(&stdout, "RANK")?
        .iter()
        .map(|w| RankReport::decode(w))
        .collect::<Result<Vec<_>, _>>()?;
    if ranks.is_empty() || ranks.iter().any(|r| r.reps.len() != ranks[0].reps.len()) {
        return Err(format!(
            "launch of {} returned {} ragged rank reports",
            a.workload.name,
            ranks.len()
        ));
    }
    Ok(Launch {
        ranks,
        spawn_epoch_s,
    })
}

fn rep_matches(rep: &Rep, reference: &Reference) -> bool {
    rep_hash(rep) == reference.hash
        && rep[F::Clusters] as usize == reference.clusters
        && rep[F::Iterations] as usize == reference.iterations
}

/// One pass on one workload: launches go through [`Gate::launch`], which
/// folds the correctness gate into `result` — every repetition on every
/// rank must reproduce the reference.
struct Gate<'a> {
    w: &'static Workload,
    opts: &'a Options,
    reference: &'a Reference,
    result: PassResult,
}

impl Gate<'_> {
    fn launch(&mut self, seconds: f64, traced: bool) -> Option<Launch> {
        let args = LaunchArgs {
            workload: self.w,
            seed: self.opts.seed,
            seconds,
            traced,
            smoke: self.opts.smoke,
        };
        match spawn_launch(&args) {
            Ok(launch) => {
                for i in 0..launch.reps() {
                    self.result.attempted += 1;
                    if !launch
                        .ranks
                        .iter()
                        .all(|r| rep_matches(&r.reps[i], self.reference))
                    {
                        self.result.failed += 1;
                        eprintln!(
                            "{}: repetition {i} (traced={traced}) differs from the serial reference",
                            self.w.name
                        );
                    }
                }
                Some(launch)
            }
            Err(e) => {
                eprintln!("{}: launch failed: {e}", self.w.name);
                self.result.attempted += 1;
                self.result.failed += 1;
                None
            }
        }
    }
}

/// The end-to-end pass: tracing off, `TimeModel::Modeled`, timed by the
/// launch's own `Instant` on rank 0 from barrier to barrier.
pub fn end_to_end(w: &'static Workload, opts: &Options, reference: &Reference) -> PassResult {
    let launches = if opts.smoke { 1 } else { LAUNCHES };
    let share = opts.seconds / launches as f64;
    let mut gate = Gate {
        w,
        opts,
        reference,
        result: PassResult::default(),
    };
    let mut pool = Pool::default();
    for _ in 0..launches {
        pool.0.extend(gate.launch(share, false));
    }
    let mut result = gate.result;
    result.push("mcl_wall_s", pool.per_rep(|l, i| l.root(i, F::Wall)));
    result.push("setup_s", pool.per_launch(Launch::setup_s));
    result.push("peak_rss_mb", pool.per_launch(Launch::peak_rss_mb));
    result
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The traced pass: untraced and traced launches alternating (twice each,
/// a quarter of the window per launch), so a slow spell of the host hits
/// both sides of `trace.overhead_frac`. A traced launch must reproduce
/// the reference like any other repetition; its spans must nest.
pub fn traced(w: &'static Workload, opts: &Options, reference: &Reference) -> PassResult {
    let rounds = if opts.smoke { 1 } else { 2 };
    let share = opts.seconds / (2 * rounds) as f64;
    let mut gate = Gate {
        w,
        opts,
        reference,
        result: PassResult::default(),
    };
    let (mut plain, mut traced) = (Pool::default(), Pool::default());
    for _ in 0..rounds {
        plain.0.extend(gate.launch(share, false));
        traced.0.extend(gate.launch(share, true));
    }
    let mut result = gate.result;
    let (Some(last_plain), Some(last_traced)) = (plain.0.last(), traced.0.last()) else {
        return result;
    };

    let spans_per_rank: Vec<Vec<spans::Span>> =
        last_traced.ranks.iter().map(|r| r.spans.clone()).collect();
    for (rank, s) in spans_per_rank.iter().enumerate() {
        if let Err(e) = spans::check_nesting(s) {
            eprintln!("{}: rank {rank} trace does not nest: {e}", w.name);
            result.failed += 1;
        }
    }
    let trace_path = Path::new(OUT_DIR).join(format!("trace_{}.json", w.name));
    if let Err(e) = write_file(&trace_path, &spans::chrome_trace(&spans_per_rank)) {
        eprintln!("{}: {e}", w.name);
        result.failed += 1;
    }

    // Rank-mean wall seconds per run, by stage.
    let t = &traced;
    for (name, f) in [
        ("summa.expand_s", F::Expand),
        ("summa.local_spgemm_s", F::LocalSpgemm),
        ("summa.bcast_s", F::Bcast),
        ("summa.merge_s", F::Merge),
        ("summa.estimate_s", F::Estimate),
        ("summa.topk_s", F::Topk),
        ("summa.components_s", F::Components),
        ("core.inflate_chaos_s", F::InflateChaos),
        ("comm.recv_wait_s", F::RecvWait),
        ("spgemm.multiply_auto_s", F::MultiplyAuto),
        ("sparse.prune_s", F::Prune),
        ("sparse.inflate_s", F::Inflate),
        ("sparse.chaos_s", F::Chaos),
        ("sparse.components_s", F::SerialComponents),
    ] {
        result.push(name, t.per_rep(|l, i| l.rank_mean(i, f)));
    }
    // What `summa.expand` spends outside its stage rollups and the
    // pruning hook. The rollups overlap under pipelining, so a negative
    // value is the overlap actually realised; it is reported, not clamped.
    result.push(
        "summa.expand_self_s",
        t.per_rep(|l, i| {
            l.rank_mean(i, F::Expand)
                - [F::LocalSpgemm, F::Bcast, F::Merge, F::Estimate, F::Topk]
                    .iter()
                    .map(|&f| l.rank_mean(i, f))
                    .sum::<f64>()
        }),
    );

    // Counts. Iterations, flops, messages and bytes come from the
    // untraced launches: they describe the library driver itself.
    let p = &plain;
    result.push(
        "core.iterations",
        p.per_rep(|l, i| l.root(i, F::Iterations)),
    );
    result.push("core.flops", p.per_rep(|l, i| l.root(i, F::Flops)));
    result.push("summa.phases", t.per_rep(|l, i| l.root(i, F::Phases)));
    result.push(
        "summa.merge_peak_elems",
        t.per_rep(|l, i| l.field(i, F::MergePeak).fold(0.0, f64::max)),
    );
    result.push(
        "summa.topk_keep_frac",
        t.per_rep(|l, i| ratio(l.rank_sum(i, F::NnzKept), l.rank_sum(i, F::NnzExpanded))),
    );
    result.push("comm.msgs", p.per_rep(|l, i| l.rank_sum(i, F::Msgs)));
    result.push("comm.bytes", p.per_rep(|l, i| l.rank_sum(i, F::Bytes)));
    result.push("workloads.n", vec![last_plain.ranks[0].n]);
    result.push("workloads.nnz", vec![last_plain.ranks[0].nnz]);

    // Set-up breakdown, one sample per launch of either kind.
    let per_launch = |g: fn(&Launch) -> f64| {
        let mut v = p.per_launch(g);
        v.extend(t.per_launch(g));
        v
    };
    result.push(
        "comm.launch_s",
        per_launch(|l| l.ranks[0].enter_epoch_s - l.spawn_epoch_s),
    );
    result.push("workloads.gen_s", per_launch(|l| l.ranks[0].gen_s));
    result.push("core.prepare_s", per_launch(|l| l.ranks[0].prepare_s));
    result.push("summa.scatter_s", per_launch(|l| l.ranks[0].scatter_s));
    result.push("core.warmup_s", p.per_launch(|l| l.ranks[0].warmup_s));
    result.push("core.serial_ref_s", vec![reference.seconds]);

    result.push("proc.cpu_s", p.per_rep(|l, i| l.rank_sum(i, F::CpuS)));
    result.push("modularity", vec![reference.modularity]);
    result.push("core.f1_planted", vec![reference.f1_planted]);
    // Fastest against fastest, like `mcl_wall_s` (see `metrics.rs`).
    let (plain_wall, traced_wall) = (p.fastest_wall(), t.fastest_wall());
    result.push(
        "trace.overhead_frac",
        vec![ratio(traced_wall - plain_wall, plain_wall)],
    );
    result.push(
        "trace.cover_frac",
        t.per_rep(|l, i| l.rank_mean(i, F::CoverFrac)),
    );
    for (name, measured, modeled) in [
        (
            "model.residual.local_spgemm",
            F::LocalSpgemm,
            F::ModLocalSpgemm,
        ),
        ("model.residual.summa_bcast", F::Bcast, F::ModBcast),
        ("model.residual.merge", F::Merge, F::ModMerge),
        ("model.residual.mem_estimation", F::Estimate, F::ModEstimate),
        ("model.residual.pruning", F::Topk, F::ModPruning),
    ] {
        result.push(
            name,
            t.per_rep(|l, i| ratio(l.rank_mean(i, measured), l.rank_mean(i, modeled))),
        );
    }
    result.push("repo.loc", vec![repo_loc() as f64]);
    let fail_frac = ratio(result.failed as f64, result.attempted as f64);
    result.push("fail_frac", vec![fail_frac]);
    result
}

/// The layer pass (this process, one thread).
pub fn layer_pass(opts: &Options) -> Samples {
    layers::run(opts.seed, opts.smoke)
        .into_iter()
        .map(|(name, v)| (name, vec![v]))
        .collect()
}

/// The comm pass: one child invocation per transport.
pub fn comm_pass(opts: &Options) -> Result<Samples, String> {
    let mut out = Samples::new();
    for (t, _) in commpass::TRANSPORTS {
        let mut args = vec!["comm".to_string(), "--transport".into(), t.into()];
        if opts.smoke {
            args.push("--smoke".into());
        }
        let stdout = run_child(&args)?;
        let words = parse_words(&stdout, "COMM")?
            .pop()
            .filter(|w| w.len() == commpass::STEMS.len())
            .ok_or_else(|| format!("comm pass on {t} printed no result"))?;
        for (stem, v) in commpass::STEMS.iter().zip(words) {
            out.push((format!("comm.{stem}.{t}"), vec![v]));
        }
    }
    Ok(out)
}

/// First-party Rust lines outside `vendor/` and `benchmark/`.
fn repo_loc() -> usize {
    fn walk(dir: &Path, total: &mut usize) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n != "target") {
                    walk(&path, total);
                }
            } else if path.extension().is_some_and(|e| e == "rs") {
                *total += std::fs::read_to_string(&path).map_or(0, |s| s.lines().count());
            }
        }
    }
    let mut total = 0;
    for root in ["crates", "src", "examples", "tests"] {
        walk(Path::new(root), &mut total);
    }
    total
}

/// Writes `text` to `path`, creating the directory.
pub fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

/// Default result file of a full run.
pub fn default_result_path() -> PathBuf {
    Path::new(OUT_DIR).join("result.json")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_survive_the_trip_through_a_stdout_line() {
        let words = [0.0, -1.5, 1.2034567890123457, f64::MAX, 1e-300];
        let text = format!(
            "noise\n{}\nRANK\n{}\n",
            words_line("RANK", &words),
            words_line("COMM", &[2.0])
        );
        let got = parse_words(&text, "RANK").unwrap();
        assert_eq!(got, vec![words.to_vec(), vec![]]);
        assert_eq!(parse_words(&text, "COMM").unwrap(), vec![vec![2.0]]);
        assert!(parse_words("RANK zz", "RANK").is_err());
    }

    #[test]
    fn launch_command_round_trips_through_the_parser() {
        let a = LaunchArgs {
            workload: &crate::workloads::WORKLOADS[2],
            seed: 7,
            seconds: 2.5,
            traced: true,
            smoke: true,
        };
        let cmd = launch_command(&a);
        assert_eq!(cmd[0], "launch");
        let back = crate::launch_args(&crate::Args::new(cmd[1..].to_vec())).unwrap();
        assert_eq!(back.workload.name, a.workload.name);
        assert_eq!((back.seed, back.seconds), (7, 2.5));
        assert!(back.traced && back.smoke);
    }
}
