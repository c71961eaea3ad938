//! The modeled schedule of a distributed multiply is pinned bit for bit:
//! per rank the product, every stage timer, the three idle totals, every
//! merge span, the kernels chosen and the clock the rank leaves with. Other tests hold inequalities between schedules; these
//! digests hold the schedules themselves, so a change to the executor,
//! the lane placement rule or the stage scheduler that moves one virtual
//! timestamp on one rank shows here.

use hipmcl::comm::{MachineModel, ProcGrid, Universe};
use hipmcl::gpu::multi::MultiGpu;
use hipmcl::gpu::select::SelectionPolicy;
use hipmcl::sparse::{Idx, Triples};
use hipmcl::summa::merge::{MergeKernelPolicy, MergeStrategy};
use hipmcl::summa::spgemm::{summa_spgemm, CommPolicy, PhasePlan, SummaConfig, SummaOutput};
use hipmcl::summa::DistMatrix;

const N: usize = 96;

/// `N × N` operand whose first columns are nearly dense and the rest
/// sparse (splitmix64 per entry), so stage products differ widely in
/// flops: both sides of [`policy`]'s threshold occur, and the merge stack
/// holds slabs of very different sizes.
fn operand() -> Triples<f64> {
    let mut t = Triples::new(N, N);
    for (i, j) in (0..N).flat_map(|i| (0..N).map(move |j| (i, j))) {
        let mut x = ((i as u64) << 20 | j as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        let fill = if (j / 8) % 3 == 0 { 220 } else { 20 };
        if (x >> 56) < fill {
            t.push(
                i as Idx,
                j as Idx,
                ((x >> 11) + 1) as f64 / (1u64 << 53) as f64,
            );
        }
    }
    t
}

/// GPU kernels for the larger stage products, CPU kernels for the rest.
fn policy() -> SelectionPolicy {
    SelectionPolicy {
        gpu_flops_threshold: 1_500,
        ..SelectionPolicy::default()
    }
}

fn config(pipelined: bool) -> SummaConfig {
    SummaConfig {
        phases: PhasePlan::Fixed(3),
        policy: policy(),
        merge: if pipelined {
            MergeStrategy::Binary
        } else {
            MergeStrategy::Multiway
        },
        merge_kernel: MergeKernelPolicy::Auto,
        pipelined,
        comm: CommPolicy::Hybrid,
        seed: 7,
    }
}

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn text(&mut self, s: &str) {
        s.bytes().for_each(|b| self.word(b as u64));
    }
}

/// Everything the schedule decided on one rank, as bits.
fn rank_digest(out: &SummaOutput, exit_clock: f64) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let c = &out.c.local;
    c.colptr.iter().for_each(|&x| h.word(x as u64));
    c.rowidx.iter().for_each(|&x| h.word(x as u64));
    c.vals.iter().for_each(|&x| h.word(x.to_bits()));
    for stage in [
        "local_spgemm",
        "summa_bcast",
        "merge",
        "mem_estimation",
        "other",
    ] {
        h.word(out.timers.get(stage).to_bits());
    }
    for idle in [out.cpu_idle, out.gpu_idle, out.merge_lane_idle] {
        h.word(idle.to_bits());
    }
    for s in &out.merge_spans {
        h.word(s.start.to_bits());
        h.word(s.end.to_bits());
        h.text(s.kernel.name());
        for x in [s.ways as u64, s.elems, s.lane as u64, s.origin as u64] {
            h.word(x);
        }
        h.word(s.stolen as u64);
    }
    out.kernels_used.iter().for_each(|k| h.text(k.name()));
    h.word(exit_clock.to_bits());
    h.0
}

/// One digest for the whole grid: the rank digests in rank order.
/// `device_mem` is the capacity of each of the rank's two devices.
fn grid_digest(p: usize, cfg: SummaConfig, device_mem: usize) -> u64 {
    let ranks = Universe::run(p, MachineModel::summit(), move |comm| {
        let grid = ProcGrid::new(comm);
        let a = DistMatrix::from_global(&grid, &operand());
        let mut gpus = MultiGpu::new(grid.world.model().clone(), 2, device_mem);
        let out = summa_spgemm(&grid, &mut gpus, &a, &a, &cfg);
        rank_digest(&out, grid.world.now())
    });
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    ranks.into_iter().for_each(|d| h.word(d));
    h.0
}

/// Compares every arm; a mismatch prints the whole table as computed, in
/// the form the `want` lists below are written in.
fn check(got: Vec<(String, u64)>, want: &[u64]) {
    let table: String = got
        .iter()
        .map(|(what, d)| format!("        {d:#018x}, // {what}\n"))
        .collect();
    let same = got.len() == want.len() && got.iter().zip(want).all(|((_, g), w)| g == w);
    assert!(same, "schedule digests moved; computed now:\n{table}");
}

/// Digests captured at the parent of the commit that folded the three
/// executors into one struct and made cost-aware lane placement the only
/// rule (captured there with the cost-aware arm of the since-deleted
/// steal knob set explicitly in every arm, so they pin the rule that
/// survived). The CPU worker pool's four arms went with the pool.
#[test]
fn the_executor_keeps_its_modeled_schedule() {
    let mut got = Vec::new();
    for pipelined in [true, false] {
        for p in [4usize, 9] {
            let mode = if pipelined {
                "pipelined+binary"
            } else {
                "bulk-sync+multiway"
            };
            got.push((
                format!("gpus {mode} p={p}"),
                grid_digest(p, config(pipelined), 1 << 30),
            ));
        }
    }
    check(
        got,
        &[
            0x40c951592883229f, // gpus pipelined+binary p=4
            0x685b32ffacd13979, // gpus pipelined+binary p=9
            0xfc8e66cdac9af689, // gpus bulk-sync+multiway p=4
            0xa48ab11482239301, // gpus bulk-sync+multiway p=9
        ],
    );
}

/// Devices sized between the footprints of this fixture's GPU-selected
/// launches, so some fit and some run out of memory: under `Gpus` (all of
/// `B` on the devices) rank 0 degrades every launch, rank 1 none, ranks 2
/// and 3 some. A degraded launch runs the host hash kernel inline instead,
/// and a failed launch leaves nothing on its devices. (Captured again at
/// the commit that freed the inputs of a device whose output did not fit:
/// until then the digest pinned that leak.)
#[test]
fn the_out_of_memory_fallback_keeps_its_modeled_schedule() {
    let device_mem = 18_624;
    let got = vec![(
        format!("gpus {device_mem} B devices pipelined+binary p=4"),
        grid_digest(4, config(true), device_mem),
    )];
    check(
        got,
        &[
            0x846032f2fab12e3b, // gpus 18624 B devices pipelined+binary p=4
        ],
    );
}

/// Every launch on the devices, pipelined with binary merging, on devices
/// that hold every launch: the schedules a phase runs without stage
/// products. At p = 16 each phase merges its first two stage products,
/// then those of stages 2 and 3 with that merge (Algorithm 2's 3-way merge
/// at the 4th push). Captured before any phase ran without its stage
/// products.
#[test]
fn every_launch_on_the_devices_keeps_its_modeled_schedule() {
    let cfg = SummaConfig {
        policy: SelectionPolicy::always_gpu(),
        ..config(true)
    };
    let got = [4usize, 9, 16]
        .map(|p| {
            (
                format!("always gpu pipelined+binary p={p}"),
                grid_digest(p, cfg, 1 << 30),
            )
        })
        .to_vec();
    check(
        got,
        &[
            0xb41d420e4ae4e906, // always gpu pipelined+binary p=4
            0x781f4972de1ce455, // always gpu pipelined+binary p=9
            0x039b29fbac973fb3, // always gpu pipelined+binary p=16
        ],
    );
}
