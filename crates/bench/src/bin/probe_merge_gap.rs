//! **Merge-gap ablation** — measures, in real wall-clock, how much the
//! binary (Algorithm 2) merge schedule costs over one k-way merge of the
//! same SUMMA stage products:
//!
//! * *k-way heap* — original HipMCL's cursor heap, the pre-PR baseline.
//! * *k-way spadd* — Hussain-style SpAdd (arXiv:2112.10223), what
//!   `MergeKernelPolicy::Auto` picks at fan-in ≥ 6.
//! * *binary legacy* — the Algorithm 2 stack with `Fixed(Pairwise)`,
//!   which is what the old `Auto` table ran at fan-in 2: every merge a
//!   left fold of two-way merges.
//! * *binary auto* — the same stack under today's `Auto`: BRMerge-style
//!   single-pass k-cursor merges (arXiv:2206.06611).
//!
//! EXPERIMENTS.md's criterion numbers put the legacy binary schedule at
//! ~1.6× one k-way merge (the paper's CombBLAS version pays only
//! +3–4%); the acceptance bar for this probe is the `Auto` stack landing
//! at ≤ 1.2× on Archaea and Isom100_3. All four configurations merge the
//! *same* stage products and the probe asserts their outputs are
//! bit-identical before timing is reported.

use hipmcl_bench::*;
use hipmcl_workloads::Dataset;

fn fan_ins() -> Vec<usize> {
    let cap = max_ranks(8).max(4);
    [4usize, 8].into_iter().filter(|&k| k <= cap).collect()
}

fn main() {
    println!("Merge-gap ablation: binary stack vs k-way merge, real wall-clock\n");
    let reps = 5;
    let headers = [
        "network",
        "k",
        "in elems",
        "out nnz",
        "kway heap",
        "kway spadd",
        "binary legacy",
        "binary auto",
        "legacy ratio",
        "auto ratio",
    ];
    let mut rows = Vec::new();
    for d in [Dataset::Archaea, Dataset::Isom100_3] {
        for k in fan_ins() {
            eprintln!("running {} at fan-in {k} ({reps} reps) ...", d.name());
            let r = run_merge_gap_probe(d, k, reps);
            rows.push(vec![
                d.name().to_string(),
                r.k.to_string(),
                r.total_in_elems.to_string(),
                r.out_nnz.to_string(),
                fmt_time(r.t_kway_heap),
                fmt_time(r.t_kway_spadd),
                fmt_time(r.t_binary_legacy),
                fmt_time(r.t_binary_auto),
                format!("{:.2}", r.legacy_ratio()),
                format!("{:.2}", r.auto_ratio()),
            ]);
        }
    }

    print_table(&headers, &rows);
    let csv = write_csv("probe_merge_gap", &headers, &rows);
    println!("\ncsv: {}", csv.display());
    print_paper_note(&[
        "§IV measures binary merging slightly slower than multiway in",
        "isolation, worth it because it hides behind the GPU and caps",
        "peak memory. Our legacy stack paid ~1.6x one k-way merge because",
        "each merge folded two-way merges; the BRMerge/SpAdd kernels are",
        "expected to bring the binary stack to <= 1.2x the k-way baseline",
        "(auto ratio column) while staying bit-identical to every other",
        "kernel.",
    ]);
}
