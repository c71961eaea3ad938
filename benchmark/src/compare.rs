//! `compare A.json B.json`: the `choosing-metrics` §8 rule applied to two
//! result files of full runs, per (workload, end-to-end metric):
//!
//! * **unresolved** — A's own spread (IQR ÷ median of its samples) exceeds
//!   the metric's bound, so neither a gain nor "no change" can be claimed;
//! * **regressed** — B's value is worse than A's by more than the bound;
//! * **improved** — B's value is better by more than A's IQR *and* B wins
//!   at least nine tenths of the index-paired samples (ties count for
//!   neither side);
//! * **unchanged** — everything else.
//!
//! A metric's *value* is the statistic the benchmark reports for it (the
//! median of its samples, or the fastest one: see `metrics.rs`).
//!
//! `--strict` is the repeat check of one commit against itself: every
//! end-to-end value must agree within its bound and the exact-repeat
//! counts must be identical.

use crate::json::Json;

/// Per-workload counts that repeat exactly for a fixed seed.
const EXACT_REPEAT: [&str; 5] = [
    "core.iterations",
    "core.flops",
    "comm.bytes",
    "comm.msgs",
    "summa.phases",
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side's summary of one metric, as `main::summary_json` wrote it.
#[derive(Clone, Debug, PartialEq)]
pub struct Side {
    pub value: f64,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub samples: Vec<f64>,
}

fn side(metric: &Json) -> Result<Side, String> {
    let num = |k: &str| {
        metric
            .get(k)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("metric summary lacks a numeric {k:?}"))
    };
    Ok(Side {
        value: num("value")?,
        median: num("median")?,
        q1: num("q1")?,
        q3: num("q3")?,
        samples: metric
            .get("samples")
            .and_then(Json::as_arr)
            .map(|a| a.iter().filter_map(Json::as_f64).collect())
            .unwrap_or_default(),
    })
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
fn worsening(a: f64, b: f64, higher_is_better: bool) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    let d = if higher_is_better { a - b } else { b - a };
    d / a.abs()
}

/// Applies the rule in the module docs.
pub fn judge(a: &Side, b: &Side, higher_is_better: bool, bound: f64) -> Verdict {
    let iqr = a.q3 - a.q1;
    let spread = if a.median == 0.0 {
        0.0
    } else {
        iqr / a.median.abs()
    };
    if spread > bound {
        return Verdict::Unresolved;
    }
    let worse = worsening(a.value, b.value, higher_is_better);
    if worse > bound {
        return Verdict::Regressed;
    }
    let gain = -worse * a.value.abs();
    let (mut wins, mut losses) = (0usize, 0usize);
    for (x, y) in a.samples.iter().zip(&b.samples) {
        match worsening(*x, *y, higher_is_better) {
            w if w < 0.0 => wins += 1,
            w if w > 0.0 => losses += 1,
            _ => {}
        }
    }
    let decided = wins + losses;
    if gain > iqr && decided > 0 && wins * 10 >= decided * 9 {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// Outcome of a comparison: the table and whether it passes (no metric
/// regressed; under `--strict`, additionally every median within its
/// bound and every exact-repeat count identical).
pub struct Report {
    pub text: String,
    pub ok: bool,
}

pub fn compare(a: &Json, b: &Json, strict: bool) -> Result<Report, String> {
    fn workloads(doc: &Json) -> Result<&[(String, Json)], String> {
        doc.get("workloads")
            .and_then(Json::as_obj)
            .ok_or_else(|| "result file has no \"workloads\" object".to_string())
    }
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let mut text = String::from("workload metric A B change verdict\n");
    let mut ok = true;
    for (name, a_w) in wa {
        let Some((_, b_w)) = wb.iter().find(|(n, _)| n == name) else {
            text.push_str(&format!("{name} - - - - missing-in-B\n"));
            ok = false;
            continue;
        };
        let e2e = a_w
            .get("end_to_end")
            .and_then(Json::as_obj)
            .ok_or_else(|| format!("{name}: no end_to_end object"))?;
        for (metric, a_m) in e2e {
            let b_m = b_w
                .get("end_to_end")
                .and_then(|e| e.get(metric))
                .ok_or_else(|| format!("{name}: B lacks {metric}"))?;
            let higher = a_m.get("better").and_then(Json::as_str) == Some("higher");
            let bound = a_m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{name} {metric}: no bound"))?;
            let (sa, sb) = (side(a_m)?, side(b_m)?);
            let verdict = judge(&sa, &sb, higher, bound);
            let worse = worsening(sa.value, sb.value, higher);
            ok &= verdict != Verdict::Regressed;
            if strict && worse.abs() > bound {
                ok = false;
            }
            // Positive: B is better. (`0.0 - x` keeps a zero unsigned.)
            text.push_str(&format!(
                "{name} {metric} {} {} {:+.2}% {}\n",
                sa.value,
                sb.value,
                0.0 - worse * 100.0,
                verdict.name()
            ));
        }
        if strict {
            for count in EXACT_REPEAT {
                let get = |w: &Json| {
                    w.get("per_layer")
                        .and_then(|p| p.get(count))
                        .and_then(|m| m.get("median"))
                        .and_then(Json::as_f64)
                };
                let (x, y) = (get(a_w), get(b_w));
                if x != y {
                    ok = false;
                    text.push_str(&format!("{name} {count} {x:?} {y:?} - differs\n"));
                }
            }
        }
    }
    text.push_str(if ok { "PASS\n" } else { "FAIL\n" });
    Ok(Report { text, ok })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side_of(samples: &[f64]) -> Side {
        let s = crate::stats::summarize(samples);
        Side {
            value: s.median,
            median: s.median,
            q1: s.q1,
            q3: s.q3,
            samples: samples.to_vec(),
        }
    }

    fn around(center: f64, step: f64) -> Vec<f64> {
        (0..10).map(|i| center + step * (i as f64 - 4.5)).collect()
    }

    #[test]
    fn verdicts_follow_the_rule() {
        let a = side_of(&around(10.0, 0.02));
        // Same numbers: unchanged.
        assert_eq!(judge(&a, &a, false, 0.1), Verdict::Unchanged);
        // 20 % slower on a lower-is-better metric: regressed.
        let slow = side_of(&around(12.0, 0.02));
        assert_eq!(judge(&a, &slow, false, 0.1), Verdict::Regressed);
        // …and the same numbers are a gain when higher is better.
        assert_eq!(judge(&a, &slow, true, 0.1), Verdict::Improved);
        // 5 % faster, beyond A's IQR, winning every pair: improved.
        let fast = side_of(&around(9.5, 0.02));
        assert_eq!(judge(&a, &fast, false, 0.1), Verdict::Improved);
        // Faster by less than A's IQR: unchanged.
        let noisy_a = side_of(&around(10.0, 0.15));
        let barely = side_of(&around(9.8, 0.15));
        assert_eq!(judge(&noisy_a, &barely, false, 0.1), Verdict::Unchanged);
        // A's own spread beyond the bound: unresolved, whatever B says.
        let wild = side_of(&around(10.0, 0.4));
        assert_eq!(judge(&wild, &slow, false, 0.1), Verdict::Unresolved);
    }

    #[test]
    fn a_gain_needs_nine_wins_in_ten() {
        let a = side_of(&around(10.0, 0.001));
        let mut mixed = around(9.0, 0.001);
        mixed[0] = 11.0;
        mixed[1] = 11.0; // B loses two of ten pairs
        assert_eq!(judge(&a, &side_of(&mixed), false, 0.25), Verdict::Unchanged);
        mixed[1] = 9.0; // …one of ten is still a gain
        assert_eq!(judge(&a, &side_of(&mixed), false, 0.25), Verdict::Improved);
    }

    fn doc(wall: &[f64], flops: f64) -> Json {
        let s = crate::stats::summarize(wall);
        let metric = Json::obj(vec![
            ("better", Json::str("lower")),
            ("bound", Json::Num(0.1)),
            ("value", Json::Num(s.median)),
            ("median", Json::Num(s.median)),
            ("q1", Json::Num(s.q1)),
            ("q3", Json::Num(s.q3)),
            ("samples", Json::nums(wall)),
        ]);
        let counts = EXACT_REPEAT
            .iter()
            .map(|c| (*c, Json::obj(vec![("median", Json::Num(flops))])))
            .collect();
        Json::obj(vec![(
            "workloads",
            Json::obj(vec![(
                "w",
                Json::obj(vec![
                    ("end_to_end", Json::obj(vec![("mcl_wall_s", metric)])),
                    ("per_layer", Json::obj(counts)),
                ]),
            )]),
        )])
    }

    #[test]
    fn compare_reports_and_gates() {
        let a = doc(&around(10.0, 0.02), 5.0);
        let same = compare(&a, &a, true).unwrap();
        assert!(same.ok && same.text.contains("w mcl_wall_s 10 10 +0.00% unchanged"));
        let slow = compare(&a, &doc(&around(12.0, 0.02), 5.0), false).unwrap();
        assert!(!slow.ok && slow.text.contains("regressed"));
        // A gain passes the plain comparison but not the repeat check
        // when it exceeds the bound.
        let fast = doc(&around(8.0, 0.02), 5.0);
        assert!(compare(&a, &fast, false).unwrap().ok);
        assert!(!compare(&a, &fast, true).unwrap().ok);
        // A count that moved fails the repeat check only.
        let moved = doc(&around(10.0, 0.02), 6.0);
        assert!(compare(&a, &moved, false).unwrap().ok);
        let strict = compare(&a, &moved, true).unwrap();
        assert!(!strict.ok && strict.text.contains("core.flops"));
        assert!(compare(&Json::Null, &a, false).is_err());
    }
}
