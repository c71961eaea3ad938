//! `hipmcl-benchmark`: measured end-to-end MCL wall-clock, memory and
//! per-layer numbers for hipmcl-rs on four workloads. See `README.md`.
//!
//! Sub-commands (`run.sh` is the front door):
//!
//! * `run --workload W --seed N --seconds S --trace 0|1` — one pass on
//!   one workload; the last stdout line is the result object the
//!   acceptance driver reads.
//! * `all [--seed N] [--seconds S] [--smoke] [--out FILE]` — every
//!   workload, both passes, the layer and comm passes; prints every
//!   metric as `workload metric value unit n` and writes the result file.
//! * `compare A.json B.json [--strict]` — the `choosing-metrics` §8 rule
//!   per (workload, end-to-end metric).
//! * `manifest` — prints `BENCHMARK.json`.
//! * `launch …`, `comm …` — internal: one universe each (see `launch.rs`).

mod canon;
mod commpass;
mod compare;
mod driver;
mod json;
mod launch;
mod layers;
mod metrics;
mod procfs;
mod spans;
mod stats;
mod workloads;

use driver::{Options, PassResult, Samples};
use json::Json;
use launch::LaunchArgs;
use std::process::ExitCode;

/// `--key value` / `--flag` command-line arguments.
pub struct Args(Vec<String>);

impl Args {
    pub fn new(args: Vec<String>) -> Self {
        Self(args)
    }

    pub fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    pub fn value(&self, name: &str) -> Option<&str> {
        let i = self.0.iter().position(|a| a == name)?;
        self.0.get(i + 1).map(String::as_str)
    }

    /// The value of `name` parsed as `T`, or `default` when absent.
    pub fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None if self.flag(name) => Err(format!("{name} needs a value")),
            None => Ok(default),
            Some(s) => s.parse().map_err(|_| format!("{name}: cannot parse {s:?}")),
        }
    }

    /// Arguments that are not `--flags` (for sub-commands whose options
    /// take no values).
    pub fn positional(&self) -> Vec<&str> {
        self.0
            .iter()
            .map(String::as_str)
            .filter(|a| !a.starts_with("--"))
            .collect()
    }
}

fn workload_arg(args: &Args) -> Result<&'static workloads::Workload, String> {
    let name = args.value("--workload").ok_or("--workload is required")?;
    workloads::find(name).ok_or_else(|| {
        let known: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?} (known: {})", known.join(", "))
    })
}

fn trace_arg(args: &Args) -> Result<bool, String> {
    match args.parsed("--trace", 0u8)? {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(format!("--trace is 0 or 1, got {other}")),
    }
}

fn seconds_arg(args: &Args) -> Result<f64, String> {
    let s: f64 = args.parsed("--seconds", metrics::RUN_SECONDS as f64)?;
    if s.is_finite() && s > 0.0 && s <= 3600.0 {
        Ok(s)
    } else {
        Err(format!("--seconds must lie in (0, 3600], got {s}"))
    }
}

/// Parses the arguments `driver::launch_command` wrote.
pub fn launch_args(args: &Args) -> Result<LaunchArgs, String> {
    Ok(LaunchArgs {
        workload: workload_arg(args)?,
        seed: args.parsed("--seed", 1)?,
        seconds: seconds_arg(args)?,
        traced: trace_arg(args)?,
        smoke: args.flag("--smoke"),
    })
}

fn options(args: &Args) -> Result<Options, String> {
    Ok(Options {
        seed: args.parsed("--seed", 1)?,
        seconds: seconds_arg(args)?,
        smoke: args.flag("--smoke"),
    })
}

/// `workload metric value unit n` for every metric of `samples`.
fn print_table(workload: &str, samples: &Samples) {
    for (name, values) in samples {
        let unit = metrics::find(name).map_or("", |m| m.unit);
        println!(
            "{workload} {name} {} {unit} {}",
            metrics::reduce(name, values),
            values.len()
        );
    }
}

/// The result object of the acceptance contract: exactly the metrics of
/// `defs`, each with its value and unit.
fn contract_line(result: &PassResult, defs: &[metrics::MetricDef]) -> String {
    let metrics = defs
        .iter()
        .map(|m| {
            let value = result.value(m.name).unwrap_or(0.0);
            (
                m.name.to_string(),
                Json::obj(vec![
                    ("value", Json::Num(value)),
                    ("unit", Json::str(m.unit)),
                ]),
            )
        })
        .collect();
    Json::obj(vec![
        ("correct", Json::Bool(result.correct())),
        ("attempted", Json::Num(result.attempted.max(1) as f64)),
        ("failed", Json::Num(result.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
    .compact()
}

fn cmd_run(args: &Args) -> Result<ExitCode, String> {
    let w = workload_arg(args)?;
    let opts = options(args)?;
    let reference = driver::reference(w, &opts);
    let (result, defs): (PassResult, &[metrics::MetricDef]) = if trace_arg(args)? {
        let mut result = driver::traced(w, &opts, &reference);
        result.metrics.extend(driver::layer_pass(&opts));
        match driver::comm_pass(&opts) {
            Ok(samples) => result.metrics.extend(samples),
            Err(e) => {
                eprintln!("comm pass failed: {e}");
                result.failed += 1;
            }
        }
        (result, &metrics::PER_LAYER)
    } else {
        (
            driver::end_to_end(w, &opts, &reference),
            &metrics::END_TO_END,
        )
    };
    print_table(w.name, &result.metrics);
    println!("{}", contract_line(&result, defs));
    Ok(ExitCode::SUCCESS)
}

fn summary_json(name: &str, values: &[f64], with_samples: bool) -> Json {
    let s = stats::summarize(values);
    let def = metrics::find(name);
    let mut pairs = vec![
        ("unit", Json::str(def.map_or("", |m| m.unit))),
        (
            "better",
            Json::str(if def.is_some_and(|m| m.higher_is_better) {
                "higher"
            } else {
                "lower"
            }),
        ),
    ];
    if let Some(bound) = def.and_then(|m| m.bound) {
        pairs.push(("bound", Json::Num(bound)));
    }
    pairs.extend([
        ("value", Json::Num(metrics::reduce(name, values))),
        ("n", Json::Num(s.n as f64)),
        ("median", Json::Num(s.median)),
        ("q1", Json::Num(s.q1)),
        ("q3", Json::Num(s.q3)),
        ("min", Json::Num(s.min)),
        ("max", Json::Num(s.max)),
    ]);
    if with_samples {
        pairs.push(("samples", Json::nums(values)));
    }
    Json::obj(pairs)
}

fn samples_json(samples: &Samples, with_samples: bool) -> Json {
    Json::Obj(
        samples
            .iter()
            .map(|(name, v)| (name.clone(), summary_json(name, v, with_samples)))
            .collect(),
    )
}

fn cmd_all(args: &Args) -> Result<ExitCode, String> {
    let opts = options(args)?;
    let out_path = args
        .value("--out")
        .map_or_else(driver::default_result_path, std::path::PathBuf::from);
    let mut ok = true;
    let mut workloads_json = Vec::new();
    for w in &workloads::WORKLOADS {
        let reference = driver::reference(w, &opts);
        let e2e = driver::end_to_end(w, &opts, &reference);
        print_table(w.name, &e2e.metrics);
        let mut traced = driver::traced(w, &opts, &reference);
        // One `fail_frac` per workload, over the repetitions of both passes.
        let attempted = e2e.attempted + traced.attempted;
        let failed = e2e.failed + traced.failed;
        let fail_frac = failed as f64 / attempted.max(1) as f64;
        traced.metrics.retain(|(name, _)| name != "fail_frac");
        traced.metrics.push(("fail_frac".into(), vec![fail_frac]));
        print_table(w.name, &traced.metrics);
        ok &= e2e.correct() && traced.correct();
        workloads_json.push((
            w.name.to_string(),
            Json::obj(vec![
                ("why", Json::str(w.why)),
                ("attempted", Json::Num(attempted as f64)),
                ("failed", Json::Num(failed as f64)),
                ("fail_frac", Json::Num(fail_frac)),
                ("end_to_end", samples_json(&e2e.metrics, true)),
                ("per_layer", samples_json(&traced.metrics, false)),
            ]),
        ));
    }
    let mut layer_samples = driver::layer_pass(&opts);
    match driver::comm_pass(&opts) {
        Ok(samples) => layer_samples.extend(samples),
        Err(e) => {
            eprintln!("comm pass failed: {e}");
            ok = false;
        }
    }
    print_table("-", &layer_samples);

    let doc = Json::obj(vec![
        ("schema", Json::Num(1.0)),
        ("seed", Json::Num(opts.seed as f64)),
        ("smoke", Json::Bool(opts.smoke)),
        ("seconds", Json::Num(opts.seconds)),
        (
            "host",
            Json::obj(vec![(
                "available_parallelism",
                Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
            )]),
        ),
        ("workloads", Json::Obj(workloads_json)),
        ("layers", samples_json(&layer_samples, false)),
    ]);
    driver::write_file(&out_path, &doc.pretty())?;
    eprintln!("wrote {}", out_path.display());
    if ok {
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!("FAILED: some repetition or pass did not verify (fail_frac > 0)");
        Ok(ExitCode::FAILURE)
    }
}

fn cmd_launch(args: &Args) -> Result<ExitCode, String> {
    let reports = launch::run(launch_args(args)?);
    for r in &reports {
        println!("{}", driver::words_line("RANK", &r.encode()));
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_comm(args: &Args) -> Result<ExitCode, String> {
    let name = args.value("--transport").ok_or("--transport is required")?;
    let (_, transport) = commpass::TRANSPORTS
        .into_iter()
        .find(|(suffix, _)| *suffix == name)
        .ok_or_else(|| format!("unknown transport {name:?}"))?;
    let words = commpass::run(transport, args.flag("--smoke"));
    println!("{}", driver::words_line("COMM", &words));
    Ok(ExitCode::SUCCESS)
}

fn cmd_compare(args: &Args) -> Result<ExitCode, String> {
    let files = args.positional();
    let [a, b] = files[..] else {
        return Err("usage: compare A.json B.json [--strict]".into());
    };
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("read {p}: {e}"))
            .and_then(|s| json::parse(&s).map_err(|e| format!("{p}: {e}")))
    };
    let report = compare::compare(&read(a)?, &read(b)?, args.flag("--strict"))?;
    print!("{}", report.text);
    Ok(if report.ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        eprintln!("usage: hipmcl-benchmark <run|all|compare|manifest|launch|comm> [options]");
        return ExitCode::from(2);
    }
    let command = argv.remove(0);
    let args = Args::new(argv);
    let outcome = match command.as_str() {
        "run" => cmd_run(&args),
        "all" => cmd_all(&args),
        "launch" => cmd_launch(&args),
        "comm" => cmd_comm(&args),
        "compare" => cmd_compare(&args),
        "manifest" => {
            print!("{}", metrics::manifest());
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown sub-command {other:?}")),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::from(2)
    })
}
