//! **Active-set ablation** — runs the Archaea and Isom100_3 MCL
//! workloads with [`ActiveSetPolicy::Off`] and with convergence-aware
//! shrinking ([`ActiveSetPolicy::shrink`]) and proves the tentpole claim:
//!
//! * cluster labels are **bit-identical** to the full run — freezing a
//!   column only when both its chaos and its feedback row mass are below
//!   `epsilon` never changes the connected components;
//! * the modeled expansion + merge cost of the *late* iterations
//!   collapses: the probe asserts the summed expansion + merge time over
//!   the final third of the iterations is strictly lower with shrinking
//!   on (at every rank count where a shrink engaged);
//! * the per-iteration trace prints the shrink trajectory — active
//!   columns, frozen columns, operand nnz, expansion+merge seconds and
//!   the reshard overhead that bought them.
//!
//! Rank counts 4 and 9, capped by `HIPMCL_MAX_RANKS`. Results land in
//! `results/probe_active_set.csv`.

use hipmcl_bench::*;
use hipmcl_core::dist::DistMclReport;
use hipmcl_summa::ActiveSetPolicy;
use hipmcl_workloads::Dataset;

fn policy_name(p: &ActiveSetPolicy) -> &'static str {
    match p {
        ActiveSetPolicy::Off => "off",
        ActiveSetPolicy::Shrink { .. } => "shrink",
    }
}

fn main() {
    println!("Active-set ablation: freeze settled columns out of the SUMMA operand\n");
    let headers = [
        "dataset",
        "ranks",
        "policy",
        "iter",
        "active_cols",
        "frozen_cols",
        "nnz",
        "expand_merge_s",
        "reshard_s",
        "final_third_s",
        "labels_match",
    ];
    let mut rows: Vec<Vec<String>> = Vec::new();

    let cap = max_ranks(usize::MAX);
    for d in [Dataset::Archaea, Dataset::Isom100_3] {
        for p in [4usize, 9].into_iter().filter(|&p| p <= cap) {
            println!("== {} at {p} ranks", d.name());
            let mut baseline: Option<DistMclReport> = None;
            for policy in [ActiveSetPolicy::Off, ActiveSetPolicy::shrink()] {
                let r = run_active_set_probe(p, d, policy);
                let tail = final_third_expand_merge(&r);
                let labels_match = match &baseline {
                    None => {
                        baseline = Some(r.clone());
                        true
                    }
                    Some(b) => {
                        assert_eq!(
                            b.labels,
                            r.labels,
                            "{} at {p} ranks: shrinking changed the clusters",
                            d.name()
                        );
                        true
                    }
                };
                println!(
                    "   {:<7} iters {:<3} clusters {:<5} frozen {:>5}/{:<5} final-third expand+merge {:>10} reshard total {:>10}",
                    policy_name(&policy),
                    r.iterations,
                    r.num_clusters,
                    r.frozen_cols,
                    r.frozen_cols + r.active_cols,
                    fmt_time(tail),
                    fmt_time(r.reshard_time),
                );
                for (i, it) in r.trace.iter().enumerate() {
                    rows.push(vec![
                        d.name().to_string(),
                        p.to_string(),
                        policy_name(&policy).to_string(),
                        (i + 1).to_string(),
                        it.active_cols.to_string(),
                        it.frozen_cols.to_string(),
                        it.nnz_pruned.to_string(),
                        format!("{:.9}", it.expansion_time + it.merge_time),
                        format!("{:.9}", it.reshard_time),
                        format!("{tail:.9}"),
                        labels_match.to_string(),
                    ]);
                }
                if let Some(b) = &baseline {
                    if policy.is_on() && r.frozen_cols > 0 {
                        let full = final_third_expand_merge(b);
                        assert!(
                            tail < full,
                            "{} at {p} ranks: shrinking must beat Off in the final third \
                             ({tail} vs {full})",
                            d.name()
                        );
                        println!(
                            "   late-iteration expansion+merge: {} -> {} ({:.1}% of full)",
                            fmt_time(full),
                            fmt_time(tail),
                            100.0 * tail / full
                        );
                    }
                }
            }
            println!();
        }
    }

    let csv = write_csv("probe_active_set", &headers, &rows);
    print_paper_note(&[
        "the paper reports chaos dropping monotonically while late iterations",
        "still pay full SpGEMM cost (Fig. 2 trend); the active set converts",
        "per-column convergence into operand shrinkage, so the tail collapses",
        "without changing the clusters.",
    ]);
    println!("labels bit-identical on every arm; wrote {}", csv.display());
}
