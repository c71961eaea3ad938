//! Diagnostic: verifies the pipelined-SUMMA timeline invariants on a
//! small random instance — host wall time must cover the device
//! quiescence point, which must cover the accumulated kernel time.
//! Not a paper experiment; used to sanity-check the harness itself.

fn main() {
    use hipmcl_comm::*;
    use hipmcl_gpu::multi::MultiGpu;
    use hipmcl_gpu::select::SelectionPolicy;
    use hipmcl_sparse::{Csc, Idx, Triples};
    use hipmcl_summa::merge::MergeStrategy;
    use hipmcl_summa::spgemm::*;
    use hipmcl_summa::DistMatrix;
    use rand::{Rng, SeedableRng};

    let results = Universe::run(4, MachineModel::summit_bench(), |comm| {
        let grid = ProcGrid::new(comm);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
        let n = 400;
        let mut t = Triples::new(n, n);
        for _ in 0..n * 100 {
            t.push(
                rng.gen_range(0..n) as Idx,
                rng.gen_range(0..n) as Idx,
                rng.gen_range(0.5..1.5),
            );
        }
        t.sum_duplicates();
        let g = Csc::from_triples(&t);
        let a = DistMatrix::from_global(&grid, &g.to_triples());
        let mut gpus = MultiGpu::summit_node(grid.world.model());
        let cfg = SummaConfig {
            phases: PhasePlan::Fixed(1),
            planner: hipmcl_summa::PhasePlanner::MemoryOnly,
            policy: SelectionPolicy::always_gpu(),
            merge: MergeStrategy::Binary,
            merge_kernel: hipmcl_summa::MergeKernelPolicy::Auto,
            pipelined: true,
            executor: hipmcl_summa::ExecutorKind::Gpus,
            comm: CommPolicy::Hybrid,
            seed: 1,
        };
        let t0 = grid.world.now();
        let out = summa_spgemm(&grid, &mut gpus, &a, &a, &cfg);
        let host = grid.world.now() - t0;
        let quiescent = gpus
            .devices
            .iter()
            .map(|d| d.quiescent_at())
            .fold(0.0f64, f64::max);
        (
            host,
            quiescent,
            out.timers.get("local_spgemm"),
            out.timers.get("summa_bcast"),
        )
    });
    for (i, (h, q, sp, bc)) in results.iter().enumerate() {
        println!(
            "rank {i}: host_wall={h:.6} dev_quiescent={q:.6} spgemm_timer={sp:.6} bcast={bc:.6}"
        );
    }
}
