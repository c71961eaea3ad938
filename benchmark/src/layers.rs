//! The layer pass: public kernels of each crate timed from outside, one
//! process, one thread, on two captured operands —
//!
//! * `lo`: the iteration-1 operand of the R-MAT workload (cf ≈ 5), and
//! * `hi`: the iteration-3 operand of the protein workload (cf ≈ 100),
//!
//! each multiplied by a systematic sample of its own columns (every
//! 128th / 16th), sized so that seven calls of the slowest kernel (heap,
//! ~10 Mflop/s) fit in a few seconds. Medians of `reps` calls.

use crate::stats::median;
use crate::workloads::{self, generate, Workload};
use hipmcl_comm::{GpuLib, MachineModel, MergeKernel};
use hipmcl_core::serial::prepare_matrix;
use hipmcl_gpu::multi::MultiGpu;
use hipmcl_sparse::{colops, Csc, PlusTimes, WireDecode, WireEncode};
use hipmcl_spgemm::estimate::{relative_error, CohenEstimator};
use hipmcl_summa::merge::{kway_merge, merge_with, MergeKernelPolicy, StackMerger};
use std::hint::black_box;
use std::time::Instant;

/// Column strides of the right-hand operands (see module docs).
const LO_STRIDE: usize = 128;
const HI_STRIDE: usize = 16;

/// Median seconds of `reps` calls of `f`, each on a fresh `setup()` value
/// built outside the timed window.
fn time_with<I, R>(reps: usize, mut setup: impl FnMut() -> I, mut f: impl FnMut(I) -> R) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let input = setup();
            let t = Instant::now();
            black_box(f(black_box(input)));
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

fn time(reps: usize, mut f: impl FnMut()) -> f64 {
    time_with(reps, || (), |()| f())
}

/// Every `stride`-th column of `m`.
fn thin(m: &Csc<f64>, stride: usize) -> Csc<f64> {
    let cols: Vec<usize> = (0..m.ncols()).step_by(stride).collect();
    m.select_cols(&cols)
}

/// The workloads the operands are captured from.
fn rmat_workload() -> &'static Workload {
    workloads::find("rmat_phased_tcp_p4").expect("the R-MAT workload exists")
}

fn protein_workload() -> &'static Workload {
    workloads::find("protein_serial").expect("the serial protein workload exists")
}

/// The `lo` operand and the raw adjacency it was prepared from.
fn lo_operand(seed: u64, smoke: bool) -> (Csc<f64>, Csc<f64>) {
    let w = rmat_workload();
    let adjacency = generate(w.graph_kind(smoke), seed).adjacency;
    let prepared = prepare_matrix(&adjacency, &w.mcl_config());
    (prepared, adjacency)
}

/// The `hi` operand: two serial MCL iterations into the protein workload.
fn hi_operand(seed: u64, smoke: bool) -> Csc<f64> {
    let w = protein_workload();
    let cfg = w.mcl_config();
    let mut a = prepare_matrix(&generate(w.graph_kind(smoke), seed).adjacency, &cfg);
    for _ in 0..2 {
        let (b, _, _) = hipmcl_spgemm::hybrid::multiply_auto(&a, &a);
        a = colops::prune(&b, &cfg.prune).0;
        colops::inflate(&mut a, cfg.inflation);
    }
    a
}

/// Local SpGEMM kernels, the symbolic pass and the Cohen estimator on
/// `a · b`, reported under `.<tag>`.
fn spgemm_metrics(
    out: &mut Vec<(String, f64)>,
    tag: &str,
    a: &Csc<f64>,
    b: &Csc<f64>,
    reps: usize,
) {
    let flops = hipmcl_spgemm::flops(a, b) as f64;
    let mflops = |secs: f64| flops / secs / 1e6;
    type Kernel = fn(&Csc<f64>, &Csc<f64>) -> Csc<f64>;
    let cpu: [(&str, Kernel); 3] = [
        ("hash", hipmcl_spgemm::hash::multiply),
        ("heap", hipmcl_spgemm::heap::multiply),
        ("spa", hipmcl_spgemm::spa::multiply),
    ];
    for (name, kernel) in cpu {
        let secs = time(reps, || {
            black_box(kernel(a, b));
        });
        out.push((format!("spgemm.{name}_mflops.{tag}"), mflops(secs)));
    }
    let mut exact = 0u64;
    let secs = time(reps, || exact = hipmcl_spgemm::symbolic::output_nnz(a, b));
    out.push((format!("spgemm.symbolic_s.{tag}"), secs));
    let cohen = CohenEstimator::new(5, 0);
    let mut estimate = 0.0;
    let secs = time(reps, || estimate = cohen.estimate_total(a, b));
    out.push((format!("spgemm.cohen_r5_s.{tag}"), secs));
    out.push((
        format!("spgemm.cohen_rel_err.{tag}"),
        relative_error(estimate, exact as f64),
    ));

    let mut gpus = MultiGpu::summit_node(&MachineModel::summit_bench());
    for lib in [GpuLib::Nsparse, GpuLib::Bhsparse, GpuLib::Rmerge2] {
        let secs = time(reps, || {
            black_box(gpus.multiply(0.0, a, b, lib).expect("operands fit a V100"));
        });
        out.push((format!("gpu.{}_mflops.{tag}", lib.name()), mflops(secs)));
    }
}

/// The five merge kernels, the legacy k-way wrapper and the Algorithm 2
/// stack on four real SUMMA stage products of `a · b`.
fn merge_metrics(out: &mut Vec<(String, f64)>, a: &Csc<f64>, b: &Csc<f64>, reps: usize) {
    const STAGES: usize = 4;
    let n = a.ncols();
    let b_rows = b.transposed();
    let products: Vec<Csc<f64>> = (0..STAGES)
        .map(|i| {
            let inner = n * i / STAGES..n * (i + 1) / STAGES;
            let a_stage = a.column_slice(inner.clone());
            let b_stage = b_rows.column_slice(inner).transposed();
            hipmcl_spgemm::hash::multiply(&a_stage, &b_stage)
        })
        .collect();
    let shape = (a.nrows(), b.ncols());
    let elems: usize = products.iter().map(Csc::nnz).sum();
    let melems = |secs: f64| elems as f64 / secs / 1e6;
    for (name, kernel) in [
        ("heap", MergeKernel::Heap),
        ("pairwise", MergeKernel::Pairwise),
        ("hash", MergeKernel::Hash),
        ("brmerge", MergeKernel::BrMerge),
        ("spadd", MergeKernel::SpAdd),
    ] {
        let secs = time(reps, || {
            black_box(merge_with(
                PlusTimes::<f64>::new(),
                kernel,
                &products,
                shape,
            ));
        });
        out.push((format!("summa.merge_{name}_melems"), melems(secs)));
    }
    let secs = time(reps, || {
        black_box(kway_merge(&products, shape));
    });
    out.push(("summa.merge_kway_melems".into(), melems(secs)));
    let secs = time_with(
        reps,
        || products.clone(),
        |slabs| {
            let mut stack =
                StackMerger::new(MachineModel::summit_bench(), MergeKernelPolicy::Auto, shape);
            for slab in slabs {
                stack.push(slab);
            }
            stack.finish()
        },
    );
    out.push(("summa.merge_stack_melems".into(), melems(secs)));
}

/// Wire codec, CSC assembly and serial pruning.
fn sparse_metrics(
    out: &mut Vec<(String, f64)>,
    adjacency: &Csc<f64>,
    a: &Csc<f64>,
    b: &Csc<f64>,
    reps: usize,
) {
    // A panel of about 1 MiB, the size class of a SUMMA stage broadcast.
    let panel = thin(a, (a.bytes() >> 20).max(1));
    let mut bytes = Vec::new();
    let secs = time(reps, || bytes = panel.encoded());
    out.push((
        "sparse.wire_encode_gbps".into(),
        bytes.len() as f64 / secs / 1e9,
    ));
    let secs = time(reps, || {
        black_box(Csc::<f64>::decode_all(&bytes).expect("bytes just encoded"));
    });
    out.push((
        "sparse.wire_decode_gbps".into(),
        bytes.len() as f64 / secs / 1e9,
    ));

    let triples = adjacency.to_triples();
    let secs = time(reps, || {
        black_box(Csc::from_triples(&triples));
    });
    out.push((
        "sparse.from_triples_melems".into(),
        triples.nnz() as f64 / secs / 1e6,
    ));

    let product = hipmcl_spgemm::hash::multiply(a, b);
    let params = rmat_workload().mcl_config().prune;
    let secs = time(reps, || {
        black_box(colops::prune(&product, &params));
    });
    out.push((
        "sparse.prune_melems".into(),
        product.nnz() as f64 / secs / 1e6,
    ));
}

/// Runs the whole layer pass.
pub fn run(seed: u64, smoke: bool) -> Vec<(String, f64)> {
    let reps = if smoke { 3 } else { 7 };
    let mut out = Vec::new();
    let (lo, adjacency) = lo_operand(seed, smoke);
    let lo_b = thin(&lo, LO_STRIDE);
    spgemm_metrics(&mut out, "lo", &lo, &lo_b, reps);
    merge_metrics(&mut out, &lo, &lo_b, reps);
    sparse_metrics(&mut out, &adjacency, &lo, &lo_b, reps);
    let hi = hi_operand(seed, smoke);
    spgemm_metrics(&mut out, "hi", &hi, &thin(&hi, HI_STRIDE), reps);
    out
}
