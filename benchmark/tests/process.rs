//! Process-level tests: they run the built binary, so they exercise the
//! re-exec / replay contract the in-crate unit tests cannot.

use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_hipmcl-benchmark");

fn words(line: &str) -> Vec<f64> {
    line.split_whitespace()
        .skip(1)
        .map(|h| f64::from_bits(u64::from_str_radix(h, 16).expect("hex word")))
        .collect()
}

/// A Unix-socket launch re-executes this binary four times with the
/// arguments the driver passed; every child must replay them, reach the
/// one universe, and ship its report back through the parent's stdout.
#[test]
fn uds_children_reach_their_universe_with_driver_passed_args() {
    let out = Command::new(BIN)
        .args([
            "launch",
            "--workload",
            "protein_original_uds_p4",
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            "1",
            "--smoke",
        ])
        .output()
        .expect("spawn the benchmark binary");
    assert!(
        out.status.success(),
        "launch failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let ranks: Vec<Vec<f64>> = stdout
        .lines()
        .filter(|l| l.starts_with("RANK "))
        .map(words)
        .collect();
    assert_eq!(ranks.len(), 4, "one report per rank:\n{stdout}");
    // Header layout (launch.rs): words 2 and 3 are n and nnz on rank 0,
    // word 9 the repetition count. `--smoke` means Archaea/16000 = 102
    // vertices and exactly one repetition — both came from the arguments.
    assert_eq!(ranks[0][2], 102.0);
    assert!(ranks[0][3] > 0.0);
    for r in &ranks {
        assert_eq!(r[9], 1.0, "smoke mode times one repetition");
    }
    // `--trace 1` arrived too: after its 10-word header and its one
    // 33-word repetition, every rank shipped whole 5-word spans.
    for r in &ranks {
        let span_words = r.len() - 10 - 33;
        assert!(span_words >= 5 && span_words % 5 == 0, "{span_words}");
    }
}

/// The acceptance contract: the last stdout line of a `run` is one JSON
/// object with exactly the four top-level keys.
#[test]
fn run_prints_the_contract_object_last() {
    let out = Command::new(BIN)
        .args([
            "run",
            "--workload",
            "protein_inproc_p4",
            "--seed",
            "5",
            "--seconds",
            "1",
            "--trace",
            "0",
            "--smoke",
        ])
        .output()
        .expect("spawn the benchmark binary");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let last = stdout.lines().last().expect("some output");
    assert!(
        last.starts_with(r#"{"correct":true,"attempted":"#),
        "{last}"
    );
    for key in [
        "\"failed\":0",
        "\"metrics\":{",
        "\"mcl_wall_s\":{\"value\":",
        "\"setup_s\"",
        "\"peak_rss_mb\"",
    ] {
        assert!(last.contains(key), "{key} missing from {last}");
    }
}

#[test]
fn bad_arguments_exit_with_a_usage_error() {
    for args in [
        &["run", "--workload", "nope"][..],
        &["run", "--workload", "protein_serial", "--trace", "2"][..],
        &["run", "--workload", "protein_serial", "--seconds", "-1"][..],
        &["frobnicate"][..],
        &[][..],
    ] {
        let out = Command::new(BIN).args(args).output().expect("spawn");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
