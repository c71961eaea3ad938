//! How an expansion asks the allocator for memory, counted by this
//! binary's own `#[global_allocator]`: a product is written into arrays
//! obtained once, not into two vectors per output column, the merged slab
//! the per-phase hook receives is the storage the merge wrote, not a copy
//! of it, a product built by several threads never exists twice, a merge
//! frees what it took in, the serial MCL iteration never holds its
//! unpruned product at all, and the distributed one never a phase's merged
//! slab, nor both of a phase's stage products; the exact memory estimate
//! builds no stage product, and the input is prepared in one write. The
//! tests take turns ([`COUNTING`]), so nothing else allocates while one
//! counts.

use hipmcl::comm::collectives::barrier;
use hipmcl::comm::{GpuLib, MergeKernel, SpgemmKernel};
use hipmcl::gpu::select::SelectionPolicy;
use hipmcl::prelude::*;
use hipmcl::sparse::util::even_chunk;
use hipmcl::sparse::{Idx, PlusTimes};
use hipmcl::spgemm::hash;
use hipmcl::summa::estimate::{estimate_memory, EstimatorKind};
use hipmcl::summa::merge::{sink_slab, MergeStrategy};
use hipmcl::summa::spgemm::{
    summa_spgemm, summa_spgemm_with, summa_spgemm_with_in, PhasePlan, SummaConfig,
};
use hipmcl::summa::topk::{prune_packed, PruneSink};
use hipmcl::workloads::rmat::{generate_rmat, RmatParams};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Mutex;

/// Held by the test that is counting.
static COUNTING: Mutex<()> = Mutex::new(());

/// Every request for memory, on any thread.
static CALLS: AtomicUsize = AtomicUsize::new(0);

/// Bytes obtained and not yet returned, on any thread, and the most that
/// ever were since a test last lowered the mark.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Sizes of the storage this thread obtains while a log is open: every
    /// allocation, and a `realloc` that moved (one that trims in place
    /// keeps its storage).
    static FRESH: RefCell<Option<Vec<usize>>> = const { RefCell::new(None) };

    /// While this thread keeps its own account: the bytes it obtained less
    /// those it returned, and the most that ever were.
    static OWN: Cell<Option<(isize, isize)>> = const { Cell::new(None) };
}

struct Counting;

impl Counting {
    fn grew(by: usize) {
        PEAK.fetch_max(LIVE.fetch_add(by, Relaxed) + by, Relaxed);
    }

    fn own(by: isize) {
        let _ = OWN.try_with(|own| {
            if let Some((live, peak)) = own.get() {
                own.set(Some((live + by, peak.max(live + by))));
            }
        });
    }

    fn fresh(size: usize) {
        CALLS.fetch_add(1, Relaxed);
        // A thread being torn down has no log any more; a log growing
        // re-enters here with the cell borrowed. Neither is recorded.
        let _ = FRESH.try_with(|log| {
            if let Ok(mut log) = log.try_borrow_mut() {
                if let Some(log) = log.as_mut() {
                    log.push(size);
                }
            }
        });
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the bookkeeping around it touches only an
// atomic and a thread-local and never the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::fresh(layout.size());
        Self::grew(layout.size());
        Self::own(layout.size() as isize);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::fresh(layout.size());
        Self::grew(layout.size());
        Self::own(layout.size() as isize);
        System.alloc_zeroed(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Relaxed);
        Self::own(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size(), Relaxed);
        Self::grew(new_size);
        Self::own(new_size as isize - layout.size() as isize);
        let new = System.realloc(ptr, layout, new_size);
        if new == ptr {
            CALLS.fetch_add(1, Relaxed);
        } else {
            Self::fresh(new_size);
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocator calls of one `A · A` on a 2×2 grid (all four ranks and their
/// pools, between two barriers), with every hook checking its slab.
fn calls_of_one_expansion(scale: u32) -> usize {
    let graph = generate_rmat(&RmatParams::graph500(scale, 16, 3));
    // The optimized preset with every stage on the nsparse analogue, the
    // one the benchmark's expansions run on (R-MAT's sparse quadrants
    // would otherwise pick rmerge2).
    let cfg = SummaConfig {
        phases: PhasePlan::Fixed(2),
        policy: SelectionPolicy {
            gpu_cf_crossover: 0.0,
            ..SelectionPolicy::always_gpu()
        },
        ..SummaConfig::optimized(1 << 30)
    };
    let calls = Universe::run(4, MachineModel::summit(), |comm| {
        let grid = ProcGrid::new(comm);
        let mut gpus = MultiGpu::summit_node(grid.world.model());
        let a = DistMatrix::from_global(&grid, &graph);
        barrier(&grid.world);
        let before = CALLS.load(Relaxed);
        let mut hooks = 0;
        let out = summa_spgemm_with(&grid, &mut gpus, &a, &a, &cfg, |phase, slab| {
            assert!(slab.nnz() > 1000, "a slab worth copying");
            // The pipeline hands over phase 0's slab when phase 1's stage
            // products exist already, so all the rank does between the
            // two hooks is seal phase 1 (its closing merge, into buffers
            // of the inputs' size) and drain it. Copying the slab out of
            // the merge buffer there asks for exactly its row and value
            // arrays; moving it out asks for nothing.
            if let Some(log) = FRESH.replace(Some(Vec::new())) {
                let (rows, vals) = (4 * slab.nnz(), 8 * slab.nnz());
                let copied = log.iter().any(|&size| size == rows || size == vals);
                assert!(!copied, "the hook's slab was allocated at its own size");
                assert_eq!(phase, 1);
            }
            hooks += 1;
            slab
        });
        FRESH.set(None);
        barrier(&grid.world);
        let calls = CALLS.load(Relaxed) - before;
        assert_eq!(hooks, 2);
        let nsparse = SpgemmKernel::Gpu(GpuLib::Nsparse);
        assert!(out.kernels_used.iter().all(|&k| k == nsparse));
        calls
    });
    calls[0]
}

#[test]
fn an_expansion_allocates_per_product_not_per_column() {
    let _turn = COUNTING.lock().unwrap();
    let (small, large) = (calls_of_one_expansion(9), calls_of_one_expansion(10));
    println!("{small} allocator calls at scale 9, {large} at scale 10");
    assert!(
        large as f64 <= 1.25 * small as f64,
        "{small} allocator calls at scale 9, {large} at scale 10"
    );
}

/// A product two threads build is joined as its blocks finish: beyond the
/// room the result reserved (its bound `Σ_j min(flops_j, nrows)`, address
/// space until written) the kernel holds the blocks being filled, those
/// parked behind a slower one, the accumulators and the per-column flops —
/// not a second copy of the product. How many blocks park is up to the
/// scheduler: measured here, 0.12–0.17 of the product's bytes on two cores
/// and 0.55–1.07 when the two threads share one (one is descheduled
/// mid-block while the other runs ahead), where joining after the last
/// block holds 1.48 in every run. So: the best of three runs stays below
/// one product.
#[test]
fn a_product_built_by_two_threads_is_not_held_twice() {
    let _turn = COUNTING.lock().unwrap();
    let a = Csc::from_triples(&generate_rmat(&RmatParams::graph500(10, 16, 3)));
    let fpc = hipmcl::spgemm::flops_per_column(&a, &a);
    let entry = std::mem::size_of::<hipmcl::sparse::Idx>() + std::mem::size_of::<f64>();
    let reserved = entry * hipmcl::spgemm::analysis::nnz_bound(&fpc, a.nrows());
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(2)
        .build()
        .unwrap();
    let mut product = 0;
    let beyond: Vec<usize> = (0..3)
        .map(|_| {
            let before = LIVE.load(Relaxed);
            PEAK.store(before, Relaxed);
            product = entry
                * pool
                    .install(|| hipmcl::spgemm::hash::multiply(&a, &a))
                    .nnz();
            (PEAK.load(Relaxed) - before).saturating_sub(reserved)
        })
        .collect();
    println!("{beyond:?} B live beyond the {reserved} B reserved, product {product} B");
    assert!(product > 1 << 20, "a product worth copying");
    assert!(
        beyond.iter().any(|&b| b <= product),
        "{beyond:?} B live beyond the {reserved} B reserved, product {product} B"
    );
}

/// The serial MCL iteration prunes and inflates each column of its
/// expansion as the accumulator hands it over, so what it holds at its
/// peak is the next iterate (reserved at `Σ_j min(flops_j, nrows,
/// select)`), the per-column flops and one unpruned column per worker —
/// never the unpruned product. On the first R-MAT scale-10 product at
/// select 100 (436 k entries, 85 k kept) that peak measured 0.21 of the
/// product's `12 · nnz_expanded` bytes at width 1 and 0.22–0.32 at width 2
/// (blocks parked behind a slower one); expanding, then pruning held 1.52.
#[test]
fn an_mcl_iteration_never_holds_its_unpruned_product() {
    let _turn = COUNTING.lock().unwrap();
    let graph = Csc::from_triples(&generate_rmat(&RmatParams::graph500(10, 16, 3)));
    let mut cfg = MclConfig::optimized(1 << 30);
    cfg.prune.select = 100;
    let a = hipmcl::core::serial::prepare_matrix(&graph, &cfg);
    let entry = std::mem::size_of::<hipmcl::sparse::Idx>() + std::mem::size_of::<f64>();
    for width in [1, 2] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(width)
            .build()
            .unwrap();
        let mut next = a.clone();
        let before = LIVE.load(Relaxed);
        PEAK.store(before, Relaxed);
        let (analysis, _) = pool.install(|| hipmcl::core::serial::mcl_iteration(&mut next, &cfg));
        let (peak, product) = (
            PEAK.load(Relaxed) - before,
            entry * analysis.nnz_out as usize,
        );
        let ratio = peak as f64 / product as f64;
        println!("width {width}: peak {peak} B live, {ratio:.3} of the {product} B product");
        assert!(
            next.nnz() * 4 < analysis.nnz_out as usize,
            "a prune worth having"
        );
        assert!(
            peak < product,
            "width {width}: {ratio:.3} of the product live"
        );
    }
}

/// The same guard where the hash kernel forms columns a group at a time:
/// the protein iterate after one iteration (`Dataset::Archaea` at n = 3 288,
/// ids permuted as the benchmark permutes them, select 300), whose columns
/// nearly all read a pattern of `B` that other columns read too. A worker
/// that forms a group's columns keeps its own and publishes the others,
/// unpruned, until the worker whose block holds them reaches them, so
/// beside the next iterate the iteration holds the published columns —
/// still never the unpruned product. The next iterate is reserved at
/// `Σ_j min(flops_j, nrows, select)`, which at select 300 and about 140
/// entries a column exceeds the product by itself (address space until
/// written), so what is held beyond that room is held to the product.
/// Printed: how many columns are published at once at most, replaying the
/// width-1 schedule (each member reached free claims the next three free
/// members of its group).
#[test]
fn a_grouped_iteration_never_holds_its_unpruned_product() {
    let _turn = COUNTING.lock().unwrap();
    let net = Csc::from_triples(&Dataset::Archaea.instance(500).graph);
    let n = net.ncols();
    let p = |v: usize| (v * 7919 + 13) % n;
    let mut t = Triples::new(n, n);
    for j in 0..n {
        for (&i, &v) in net.col_rows(j).iter().zip(net.col_vals(j)) {
            t.push(p(i as usize) as Idx, p(j) as Idx, v);
        }
    }
    let mut cfg = MclConfig::optimized(1 << 30);
    cfg.prune.select = 300;
    let mut a = hipmcl::core::serial::prepare_matrix(&Csc::from_triples(&t), &cfg);
    hipmcl::core::serial::mcl_iteration(&mut a, &cfg);
    // Columns sharing a pattern of two rows or more, in column order.
    let mut cols: Vec<usize> = (0..n).filter(|&j| a.col_nnz(j) >= 2).collect();
    cols.sort_by_key(|&j| (a.col_rows(j), j));
    let mut group = vec![None; n];
    let groups: Vec<&[usize]> = (cols.chunk_by(|&x, &y| a.col_rows(x) == a.col_rows(y)))
        .filter(|g| g.len() > 1)
        .collect();
    for (g, members) in groups.iter().enumerate() {
        members.iter().for_each(|&j| group[j] = Some(g));
    }
    let (mut claimed, mut published, mut most) = (vec![false; n], 0usize, 0);
    for j in 0..n {
        match group[j] {
            Some(_) if claimed[j] => published -= 1,
            Some(g) => {
                let next = groups[g].iter().filter(|&&o| o > j && !claimed[o]).take(3);
                let next: Vec<usize> = next.copied().collect();
                next.iter().for_each(|&o| claimed[o] = true);
                published += next.len();
                most = most.max(published);
            }
            None => {}
        }
    }
    let grouped: usize = groups.iter().map(|g| g.len()).sum();
    println!(
        "{} groups of {grouped} of {n} columns; at most {most} published at width 1",
        groups.len()
    );
    assert!(grouped * 2 > n, "an iterate that groups");
    let entry = std::mem::size_of::<Idx>() + std::mem::size_of::<f64>();
    let fpc = hipmcl::spgemm::flops_per_column(&a, &a);
    let room: usize = fpc.iter().map(|&f| (f as usize).min(n).min(300)).sum();
    for width in [1, 2] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(width)
            .build()
            .unwrap();
        let mut next = a.clone();
        let before = LIVE.load(Relaxed);
        PEAK.store(before, Relaxed);
        let (analysis, _) = pool.install(|| hipmcl::core::serial::mcl_iteration(&mut next, &cfg));
        let (beyond, product) = (
            (PEAK.load(Relaxed) - before).saturating_sub(entry * room),
            entry * analysis.nnz_out as usize,
        );
        let ratio = beyond as f64 / product as f64;
        println!(
            "width {width}: {beyond} B live beyond the {} B room, {ratio:.3} of the {product} B product",
            entry * room
        );
        assert!(
            beyond < product,
            "width {width}: {ratio:.3} of the product live beyond the room"
        );
    }
}

/// One distributed MCL iteration never holds a phase's unpruned merged
/// slab: each phase's closing merge packs every column it finishes into
/// the candidates the distributed top-k reads, so beside the phase's stage
/// products a rank holds those candidates, not the slab. On R-MAT scale 11
/// on a 2×2 grid in two phases at select 100, every rank at its largest
/// phase, the iteration's live peak measured 0.90 of the phases' stage
/// products plus half their merged slabs (in `Idx` + `f64` bytes); merging
/// into the slab and pruning it afterwards held 1.27. Stage products and
/// slabs are sized by an unpruned expansion of the same operand first.
#[test]
fn a_distributed_iteration_never_holds_its_merged_slab() {
    let _turn = COUNTING.lock().unwrap();
    let graph = Csc::from_triples(&generate_rmat(&RmatParams::graph500(11, 16, 3)));
    let mut cfg = MclConfig::optimized(1 << 30);
    cfg.prune.select = 100;
    cfg.max_iters = 1;
    cfg.summa.phases = PhasePlan::Fixed(2);
    let prepared = hipmcl::core::serial::prepare_matrix(&graph, &cfg);
    let entry = std::mem::size_of::<hipmcl::sparse::Idx>() + std::mem::size_of::<f64>();
    let per_rank = Universe::run(4, MachineModel::summit(), |comm| {
        let grid = ProcGrid::new(comm);
        let mut gpus = MultiGpu::summit_node(grid.world.model());
        let a = DistMatrix::from_global(&grid, &prepared.to_triples());
        // Per phase: its stage products (what its one merge took in, at
        // fan-in 2) and half its merged slab; the largest phase's sum.
        let mut merged = Vec::new();
        let out = summa_spgemm_with(&grid, &mut gpus, &a, &a, &cfg.summa, |_, slab| {
            merged.push(slab.nnz());
            slab
        });
        let spans = out.merge_spans.iter().zip(&merged);
        let largest = spans
            .map(|(s, &m)| entry * (s.elems as usize + m / 2))
            .max();
        assert_eq!(out.merge_spans.len(), 2, "one merge a phase");
        drop(out);
        barrier(&grid.world);
        let before = LIVE.load(Relaxed);
        if grid.world.rank() == 0 {
            PEAK.store(before, Relaxed);
        }
        barrier(&grid.world);
        let _ = hipmcl::core::dist::cluster_distributed_from(&grid, &mut gpus, a, &cfg);
        barrier(&grid.world);
        (largest.expect("two phases"), PEAK.load(Relaxed) - before)
    });
    let bound: usize = per_rank.iter().map(|r| r.0).sum();
    let peak = per_rank[0].1;
    let ratio = peak as f64 / bound as f64;
    println!("peak {peak} B live, {ratio:.3} of {bound} B (stage products + half the slab)");
    assert!(
        ratio < 1.0,
        "{ratio:.3} of the phases' products and half their slabs"
    );
}

/// Block `(rows, cols)` of `m` as a matrix of its own.
fn block(m: &Csc<f64>, rows: Range<usize>, cols: Range<usize>) -> Csc<f64> {
    m.column_slice(cols)
        .transposed()
        .column_slice(rows)
        .transposed()
}

/// One distributed MCL iteration never holds both stage products of a
/// phase: the last stage's kernel hands each column it finishes to the
/// phase's closing merge, which packs it with the same column of the first
/// product into the candidates the prune reads, so the last product is
/// never built. Merging a built last product holds both products and the
/// candidates being packed at once, so each rank's live peak is at least
/// their sum; streaming it must stay below. On R-MAT scale 11 with its
/// vertex order reversed (the dense quadrant meets in the last stage of
/// the 2×2 grid) in two phases at select 100, each rank expanding and
/// pruning on its own thread, counted on its own account, against its
/// largest phase's two stage products plus candidates (in `Idx` + `f64`
/// bytes; the products sized by multiplying the blocks, the candidates by
/// packing the slabs of an unpruned expansion): 1.35–1.53 building the
/// last product, 0.68–0.91 streaming it. What streaming holds beyond the
/// first product and the candidates is the previous phase's candidates,
/// which a pipelined phase prunes after its stage loop, the reservations
/// of the first product and of the packed columns, and the operand blocks.
#[test]
fn a_distributed_iteration_never_holds_both_stage_products_of_a_phase() {
    let _turn = COUNTING.lock().unwrap();
    let rmat = generate_rmat(&RmatParams::graph500(11, 16, 3));
    let n = rmat.ncols() as Idx;
    let mut reversed = Triples::new(rmat.nrows(), rmat.ncols());
    rmat.iter()
        .for_each(|(i, j, v)| reversed.push(n - 1 - i, n - 1 - j, v));
    let mut cfg = MclConfig::optimized(1 << 30);
    cfg.prune.select = 100;
    cfg.summa.phases = PhasePlan::Fixed(2);
    let prepared = hipmcl::core::serial::prepare_matrix(&Csc::from_triples(&reversed), &cfg);
    let entry = std::mem::size_of::<Idx>() + std::mem::size_of::<f64>();
    let per_rank = Universe::run(4, MachineModel::summit(), |comm| {
        let grid = ProcGrid::new(comm);
        let mut gpus = MultiGpu::summit_node(grid.world.model());
        let a = DistMatrix::from_global(&grid, &prepared.to_triples());
        let (rows, cols) = (a.row_range(&grid), a.col_range(&grid));
        let sink = PruneSink(cfg.prune);
        let mut candidates = Vec::new();
        let out = summa_spgemm_with(&grid, &mut gpus, &a, &a, &cfg.summa, |_, slab| {
            candidates.push(sink_slab(&slab, &sink).cols.nnz());
            slab
        });
        drop(out);
        // Per phase: the stage products, `A_{i0} · B_{0j}` and `A_{i1} ·
        // B_{1j}` over the phase's columns `j`, and the candidates.
        let stages = (0..2).map(|k| {
            let inner = even_chunk(prepared.ncols(), grid.side, k);
            (block(&prepared, rows.clone(), inner.clone()), inner)
        });
        let stages: Vec<_> = stages.collect();
        let largest = (0..2).map(|ph| {
            let phase = even_chunk(cols.len(), 2, ph);
            let phase = cols.start + phase.start..cols.start + phase.end;
            let products = stages.iter().map(|(a_ik, inner)| {
                hash::multiply(a_ik, &block(&prepared, inner.clone(), phase.clone())).nnz()
            });
            entry * (products.sum::<usize>() + candidates[ph])
        });
        let largest = largest.max().expect("two phases");
        drop(stages);
        // The iteration's expansion and prune, as the MCL loop runs them.
        let (col, params) = (&grid.col_comm, &cfg.prune);
        let inline = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        let peak = inline.install(|| {
            OWN.set(Some((0, 0)));
            let s = PlusTimes::<f64>::new();
            let out = summa_spgemm_with_in(
                s,
                &grid,
                &mut gpus,
                &a,
                &a,
                &cfg.summa,
                &sink,
                |_, packed| prune_packed(col, &packed, params).0,
            );
            drop(out);
            OWN.replace(None).expect("an account").1
        });
        (largest, peak as usize)
    });
    let ratios: Vec<f64> = (per_rank.iter())
        .map(|&(bound, peak)| peak as f64 / bound as f64)
        .collect();
    println!("per rank, peak live over both stage products + candidates: {ratios:.3?}");
    assert!(
        ratios.iter().all(|&r| r < 1.0),
        "{ratios:.3?} of the largest phase's stage products and candidates"
    );
}

/// A pipelined phase whose launches all run on the devices builds no stage
/// product and no merged slab: each output column of both stages is formed
/// and merged on the spot into the candidates the prune reads. So what a
/// rank allocates while it expands, on its own account on its own thread,
/// is at most its four panels (its row panels of `A` and column panels of
/// `B`, in CSC bytes), both phases' candidates (in `Idx` + `f64` bytes,
/// which the hook here keeps as they are and the prune would read) and
/// `O(rows + cols)` words. Same fixture as the test above. (The prune's
/// own exchange of candidate values is not what this bounds.) Measured
/// per rank: 8–17 words per row and column *below* the panels and
/// candidates (the operand's own block and the panels received from other
/// ranks are allocated elsewhere); 13–114 words above them with the first
/// stage product built before the second stage's panels arrive.
#[test]
fn a_tiled_phase_holds_no_stage_product() {
    let _turn = COUNTING.lock().unwrap();
    let rmat = generate_rmat(&RmatParams::graph500(11, 16, 3));
    let n = rmat.ncols() as Idx;
    let mut reversed = Triples::new(rmat.nrows(), rmat.ncols());
    rmat.iter()
        .for_each(|(i, j, v)| reversed.push(n - 1 - i, n - 1 - j, v));
    let mut cfg = MclConfig::optimized(1 << 30);
    cfg.prune.select = 100;
    cfg.summa.phases = PhasePlan::Fixed(2);
    let prepared = hipmcl::core::serial::prepare_matrix(&Csc::from_triples(&reversed), &cfg);
    let entry = std::mem::size_of::<Idx>() + std::mem::size_of::<f64>();
    let per_rank = Universe::run(4, MachineModel::summit(), |comm| {
        let grid = ProcGrid::new(comm);
        let mut gpus = MultiGpu::summit_node(grid.world.model());
        let a = DistMatrix::from_global(&grid, &prepared.to_triples());
        let (rows, cols) = (a.row_range(&grid), a.col_range(&grid));
        let panels: usize = (0..grid.side)
            .map(|k| {
                let inner = even_chunk(prepared.ncols(), grid.side, k);
                block(&prepared, rows.clone(), inner.clone()).bytes()
                    + block(&prepared, inner, cols.clone()).bytes()
            })
            .sum();
        let sink = PruneSink(cfg.prune);
        let mut candidates = 0;
        let out = summa_spgemm_with(&grid, &mut gpus, &a, &a, &cfg.summa, |_, slab| {
            candidates += entry * sink_slab(&slab, &sink).cols.nnz();
            slab
        });
        assert!(out
            .kernels_used
            .iter()
            .all(|k| matches!(k, SpgemmKernel::Gpu(_))));
        drop(out);
        let inline = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        let peak = inline.install(|| {
            OWN.set(Some((0, 0)));
            let (s, mut kept) = (PlusTimes::<f64>::new(), Vec::new());
            let out = summa_spgemm_with_in(
                s,
                &grid,
                &mut gpus,
                &a,
                &a,
                &cfg.summa,
                &sink,
                |_, packed| {
                    let shape = (packed.cols.nrows(), packed.cols.ncols());
                    kept.push(packed);
                    Csc::zero(shape.0, shape.1)
                },
            );
            let held: usize = kept.iter().map(|p| p.cols.nnz()).sum();
            assert_eq!(entry * held, candidates, "the hook kept the candidates");
            drop((out, kept));
            OWN.replace(None).expect("an account").1
        });
        (peak as usize, panels, candidates, rows.len() + cols.len())
    });
    println!("per rank (peak B, panels B, candidates B, rows + cols): {per_rank:?}");
    for (peak, panels, candidates, lines) in per_rank {
        let words = (peak as f64 - (panels + candidates) as f64) / (8 * lines) as f64;
        println!("  {words:.2} words per row and column beyond panels and candidates");
        assert!(
            peak <= panels + candidates + 4 * 8 * lines,
            "{peak} B held, {panels} B of panels, {candidates} B of candidates, {lines} rows + cols"
        );
    }
}

/// On a 3×3 grid a phase merges twice: the first two stage products, then
/// that with the third. Each merge writes a fresh slab, reserved at its
/// inputs' size and trimmed, and frees its inputs. On R-MAT scale 10 in
/// one phase, `Binary` + `Auto` (every merge BRMerge), the nine ranks'
/// live high-water mark measured 0.71–0.85 of their stage products plus
/// merged slabs (in `Idx` + `f64` bytes, sized by a multiway run first;
/// 15 runs, 4 of them on one core). Merging into upper-bound buffers kept
/// on a free list held 0.68–0.85 in 15 runs alternated with those: the
/// ranks do not peak at once, and how their peaks overlap varies more
/// from run to run than the two ways of merging differ.
#[test]
fn intermediate_merges_hold_their_products_and_slab_once() {
    let _turn = COUNTING.lock().unwrap();
    let graph = generate_rmat(&RmatParams::graph500(10, 16, 3));
    let cfg = SummaConfig {
        phases: PhasePlan::Fixed(1),
        ..SummaConfig::optimized(1 << 30)
    };
    let entry = std::mem::size_of::<hipmcl::sparse::Idx>() + std::mem::size_of::<f64>();
    let per_rank = Universe::run(9, MachineModel::summit(), |comm| {
        let grid = ProcGrid::new(comm);
        let mut gpus = MultiGpu::summit_node(grid.world.model());
        let a = DistMatrix::from_global(&grid, &graph);
        // The multiway schedule's one merge takes in every stage product.
        let multiway = SummaConfig {
            merge: MergeStrategy::Multiway,
            ..cfg
        };
        let out = summa_spgemm(&grid, &mut gpus, &a, &a, &multiway);
        let sized = entry * (out.merge_spans[0].elems as usize + out.c.local.nnz());
        drop(out);
        barrier(&grid.world);
        let before = LIVE.load(Relaxed);
        if grid.world.rank() == 0 {
            PEAK.store(before, Relaxed);
        }
        barrier(&grid.world);
        let out = summa_spgemm_with(&grid, &mut gpus, &a, &a, &cfg, |_, slab| slab);
        barrier(&grid.world);
        let kernels: Vec<MergeKernel> = out.merge_spans.iter().map(|s| s.kernel).collect();
        assert_eq!(kernels, [MergeKernel::BrMerge; 2], "two merges a phase");
        (sized, PEAK.load(Relaxed) - before)
    });
    let bound: usize = per_rank.iter().map(|r| r.0).sum();
    let peak = per_rank[0].1;
    let ratio = peak as f64 / bound as f64;
    println!("peak {peak} B live, {ratio:.3} of {bound} B (stage products + slabs)");
    assert!(ratio < 1.0, "{ratio:.3} of the stage products and slabs");
}

/// The exact estimator counts a rank's output block from its panels, one
/// traversal per output column over every stage's products, stamped per
/// row: no stage product is built. So what a rank allocates while it
/// estimates, on its own account on its own thread, is at most the panels
/// it holds (its row panel of `A` and column panel of `B`, in CSC bytes
/// with values, though only their structure travels) plus `O(rows + cols)`
/// words. On R-MAT scale 10 on a 2×2 grid the four ranks held 0.33–0.72 of
/// their panels' bytes; building each stage's pattern and merging the
/// patterns held 10.3–14.1 times them.
#[test]
fn an_exact_estimate_never_holds_a_stage_product() {
    let _turn = COUNTING.lock().unwrap();
    let graph = generate_rmat(&RmatParams::graph500(10, 16, 3));
    let global = Csc::from_triples(&graph);
    let per_rank = Universe::run(4, MachineModel::summit(), |comm| {
        let grid = ProcGrid::new(comm);
        let a = DistMatrix::from_global(&grid, &graph);
        let (rows, cols) = (a.row_range(&grid), a.col_range(&grid));
        let panels: usize = (0..grid.side)
            .map(|k| {
                let inner = even_chunk(global.ncols(), grid.side, k);
                block(&global, rows.clone(), inner.clone()).bytes()
                    + block(&global, inner, cols.clone()).bytes()
            })
            .sum();
        let inline = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        barrier(&grid.world);
        let peak = inline.install(|| {
            OWN.set(Some((0, 0)));
            let e = estimate_memory(&grid, &a, &a, EstimatorKind::ExactSymbolic, 0);
            assert_eq!(e.scheme, "exact-symbolic");
            OWN.replace(None).expect("an account").1
        });
        (peak as usize, panels, rows.len() + cols.len())
    });
    println!("per rank (peak B, panels B, rows + cols): {per_rank:?}");
    for (peak, panels, lines) in per_rank {
        assert!(
            peak <= panels + 4 * 8 * lines,
            "{peak} B held estimating, {panels} B of panels, {lines} rows + cols"
        );
    }
}

/// `prepare_matrix` counts every column of `A ∨ Aᵀ` with its self-loop
/// first, then writes each once, normalized, into storage of the result's
/// size: beside `Aᵀ` and the result it holds `O(n)` words (the column
/// counts and pointers). On R-MAT scale 10 that held `Aᵀ` + the result +
/// `8n` bytes exactly; going through `Triples` and `from_triples` twice
/// held 4.27 times `Aᵀ` + the result.
#[test]
fn prepare_matrix_writes_the_prepared_matrix_once() {
    let _turn = COUNTING.lock().unwrap();
    let graph = Csc::from_triples(&generate_rmat(&RmatParams::graph500(10, 16, 3)));
    let cfg = MclConfig::optimized(1 << 30);
    let inline = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    let (peak, prepared) = inline.install(|| {
        OWN.set(Some((0, 0)));
        let prepared = hipmcl::core::serial::prepare_matrix(&graph, &cfg);
        (OWN.replace(None).expect("an account").1 as usize, prepared)
    });
    let (transposed, n) = (graph.transposed().bytes(), graph.ncols());
    let bound = transposed + prepared.bytes() + 4 * 8 * n;
    println!(
        "peak {peak} B; Aᵀ {transposed} B, result {} B, n {n}",
        prepared.bytes()
    );
    assert!(
        prepared.nnz() > graph.nnz(),
        "a symmetrization worth having"
    );
    assert!(peak <= bound, "{peak} B held, bound {bound} B");
}
