//! The kernel-execution layer: every local SpGEMM is a charged launch,
//! every merge a task on a host-side lane.
//!
//! The executor charges and places; it forms nothing and reads no host
//! clock. The Pipelined Sparse SUMMA scheduler (`pipeline`) forms each
//! stage product and samples its wall time, then hands the executor the
//! selected kernel label, the operands (for their byte sizes), the flops
//! per column and the product's column counts, and overlaps against the
//! returned [`KernelLaunch`] events. A GPU-selected multiply runs all of
//! `B` on the devices, as in the paper's setup (§III-A); a CPU-side
//! multiply runs inline on the host, as original HipMCL runs it; the lanes
//! hold merges only. A node without accelerators (a model with `gpus: 0`)
//! has no devices, so kernel selection stays CPU-only and every multiply
//! runs inline.
//!
//! A *CPU-side* multiply is one whose selected kernel is a CPU kernel, or
//! a GPU launch the devices could not hold (out of memory), which
//! degrades to the host hash kernel instead of killing the rank. Every
//! launch is charged from its product's column counts ([`Executor::charge`]),
//! so what the model sees does not depend on when or how the product was
//! formed; a GPU launch the devices certainly hold can be charged in two
//! halves around it ([`Executor::admit`], [`Executor::complete`]). The
//! lanes are one [`Timeline`] per socket of the machine model. A merge
//! ([`MergeTask`]) occupies one lane at the per-socket rate and pays the
//! model's cross-socket penalty for inputs produced on another socket. A
//! merge's cost shows up only as a [`MergeSpan`] on a lane; there is no
//! private merge clock anywhere. The lanes are modeled sockets: they
//! decide when a merge runs on the virtual clock and what it costs, never
//! how the host computes it (column-parallel on the rank's one thread
//! pool).
//!
//! All timestamps are virtual seconds on the owning rank's clock; the
//! executor only reads the clock value the scheduler passes in and never
//! advances it — waiting (and therefore idle accounting) is the
//! scheduler's job.

use crate::merge::MergeSpan;
use hipmcl_comm::{GpuLib, MachineModel, MergeKernel, SpgemmKernel, Timeline};
use hipmcl_gpu::multi::{Admission, Launch, MultiGpu};
use hipmcl_sparse::{Csc, Value};
use hipmcl_spgemm::emit::counted;
use hipmcl_spgemm::hybrid::realized_cf;
use std::sync::atomic::AtomicUsize;

/// One asynchronous local multiplication, as seen by the scheduler: what
/// the model charged for it.
///
/// The timestamps are virtual. A pipelined scheduler resumes the host at
/// [`inputs_ready_at`](Self::inputs_ready_at); a bulk-synchronous one
/// waits for [`output_ready_at`](Self::output_ready_at) and counts only
/// `waited − host_compute` as idle (time the host spent computing inline
/// is work, not waiting).
#[derive(Clone, Copy, Debug)]
pub struct KernelLaunch {
    /// Entries of the product, whatever the emit kept of it.
    pub nnz: usize,
    /// The kernel that produced it.
    pub kernel: SpgemmKernel,
    /// Virtual time from which the host may issue the next stage's
    /// broadcasts (inputs handed off / transferred).
    pub inputs_ready_at: f64,
    /// Virtual time at which the output is on the host and mergeable.
    pub output_ready_at: f64,
    /// Host-synchronous compute folded into the launch (inline CPU
    /// kernels); never idle time.
    pub host_compute: f64,
    /// Seconds attributed to the `local_spgemm` stage timer.
    pub kernel_time: f64,
    /// Flops of the multiplication.
    pub flops: u64,
    /// Realized compression factor.
    pub cf: f64,
}

/// The scheduler-side description of one merge operation, passed to
/// [`Executor::submit_merge`]. The pipeline has already chosen the kernel
/// label (see `merge::select_merge_kernel`); the executor only decides
/// *where* and *when* it runs, and what it costs at the label's rate.
#[derive(Clone, Debug)]
pub struct MergeTask {
    /// The pre-selected merge kernel label: the rate the task is timed
    /// at (every label merges alike).
    pub kernel: MergeKernel,
    /// Per input list: its element count and, if it was produced by an
    /// earlier merge, the lane (socket) that produced it — `None` for
    /// kernel products and anything else with no socket affinity. Inputs
    /// homed on a different socket than the lane the merge lands on are
    /// charged the model's cross-socket penalty.
    pub inputs: Vec<(u64, Option<usize>)>,
}

impl MergeTask {
    /// Fan-in of the merge.
    pub fn ways(&self) -> usize {
        self.inputs.len()
    }

    /// Total elements passing through the merge.
    pub fn total_elems(&self) -> u64 {
        self.inputs.iter().map(|&(e, _)| e).sum()
    }
}

/// Remote-homed input elements of `task` if it runs on `lane`.
fn remote_elems(task: &MergeTask, lane: usize) -> u64 {
    task.inputs
        .iter()
        .filter(|&&(_, home)| home.is_some_and(|s| s != lane))
        .map(|&(e, _)| e)
        .sum()
}

/// A GPU launch whose inputs are on its devices and whose product may be
/// formed before [`Executor::complete`] charges the rest.
#[derive(Debug)]
pub struct Admitted {
    kernel: SpgemmKernel,
    lib: GpuLib,
    admission: Admission,
}

impl Admitted {
    /// Virtual time from which the host may issue the next stage's
    /// broadcasts.
    pub fn inputs_ready_at(&self) -> f64 {
        self.admission.inputs_transferred_at()
    }
}

/// What the scheduler sees of a launch the devices ran: the host resumes
/// once the inputs are transferred.
fn device_launch(kernel: SpgemmKernel, r: Launch) -> KernelLaunch {
    KernelLaunch {
        nnz: r.nnz,
        kernel,
        inputs_ready_at: r.inputs_transferred_at,
        output_ready_at: r.output_ready_at,
        host_compute: 0.0,
        kernel_time: r.output_ready_at - r.inputs_transferred_at,
        flops: r.flops,
        cf: r.cf,
    }
}

/// The target a rank's local SpGEMM launches and merge operations are
/// charged to: its devices plus one host-side lane per socket.
///
/// Everything here is element-type-free and semiring-free: the caller
/// forms a product however it likes and passes its column counts, so the
/// same executor serves shortest paths exactly as it does MCL.
///
/// # Example
///
/// A GPU launch is asynchronous: the host resumes once the inputs are on
/// the devices, and the product is mergeable only later. A launch that
/// becomes ready long after the previous one finished leaves the devices
/// idle in between (the Table V "GPU idle" column):
///
/// ```
/// use hipmcl_comm::{GpuLib, MachineModel, SpgemmKernel};
/// use hipmcl_gpu::multi::MultiGpu;
/// use hipmcl_summa::executor::Executor;
/// use hipmcl_spgemm::testutil::random_csc;
/// use std::sync::atomic::AtomicUsize;
///
/// let model = MachineModel::summit();
/// let a = random_csc(20, 20, 120, 7);
/// let fpc = hipmcl_spgemm::flops_per_column(&a, &a);
/// // Whoever formed the product hands over its column counts.
/// let c = hipmcl_spgemm::hash::multiply(&a, &a);
/// let counts: Vec<_> = (0..c.ncols()).map(|j| AtomicUsize::new(c.col_nnz(j))).collect();
///
/// let nsparse = SpgemmKernel::Gpu(GpuLib::Nsparse);
/// let mut gpus = MultiGpu::summit_node(&model);
/// let mut exec = Executor::new(&mut gpus, &model);
/// let l1 = exec.charge(0.0, nsparse, &a, &a, &fpc, &counts);
/// assert!(l1.output_ready_at > l1.inputs_ready_at, "the host resumes first");
/// assert_eq!(l1.host_compute, 0.0);
///
/// // Ready 1 s after the first launch completed: the devices sat idle.
/// let l2 = exec.charge(l1.output_ready_at + 1.0, nsparse, &a, &a, &fpc, &counts);
/// assert!(l2.output_ready_at > l1.output_ready_at);
/// assert!(exec.device_idle() > 0.0);
/// ```
pub struct Executor<'g> {
    gpus: &'g mut MultiGpu,
    model: &'g MachineModel,
    /// One lane per socket, holding merges only.
    lanes: Vec<Timeline>,
}

impl<'g> Executor<'g> {
    /// Builds the rank's executor over its devices, with one lane per
    /// socket of `model` and every timeline empty.
    pub fn new(gpus: &'g mut MultiGpu, model: &'g MachineModel) -> Self {
        let mut exec = Self {
            gpus,
            model,
            lanes: vec![Timeline::new(); model.sockets.max(1)],
        };
        exec.reset_timelines();
        exec
    }

    /// Charges `C = A ⊗ B` on `kernel`, started at host virtual time
    /// `host_now`, from `fpc = flops_per_column(a, b)` and the product's
    /// column counts `counts` (one per column of `B`), whenever and however
    /// the product was formed. A GPU launch runs on the devices; one they
    /// cannot hold (out of memory) is charged as the host hash kernel
    /// instead of killing the rank. Never advances a rank clock — the
    /// scheduler decides what to wait on.
    pub fn charge<T: Value>(
        &mut self,
        host_now: f64,
        kernel: SpgemmKernel,
        a: &Csc<T>,
        b: &Csc<T>,
        fpc: &[u64],
        counts: &[AtomicUsize],
    ) -> KernelLaunch {
        let flops = fpc.iter().sum();
        let SpgemmKernel::Gpu(lib) = kernel else {
            return self.charge_cpu(host_now, kernel, flops, counts);
        };
        match self.gpus.charge(host_now, a, b, fpc, lib, counts) {
            Ok(r) => device_launch(kernel, r),
            // The devices cannot take this phase (out of memory): a busy
            // or undersized engine degrades the launch to the host hash
            // kernel. The modeled clock charges the CPU duration, so the
            // slowdown shows up in reports rather than vanishing.
            Err(e) => {
                eprintln!(
                    "gpu launch degraded to CpuHash: {e} (increase phases or use a CPU \
                     policy to avoid the fallback)"
                );
                self.charge_cpu(host_now, SpgemmKernel::CpuHash, flops, counts)
            }
        }
    }

    /// Admits `C = A ⊗ B` on `kernel`, started at host virtual time
    /// `host_now`, if it is a GPU launch its devices certainly hold
    /// ([`MultiGpu::admit`]): its inputs are transferred, and the host may
    /// resume at [`Admitted::inputs_ready_at`], before the product is
    /// formed. [`complete`](Self::complete) charges the rest once it is.
    /// Anything else is not admitted, and nothing is charged.
    pub fn admit<T: Value>(
        &mut self,
        host_now: f64,
        kernel: SpgemmKernel,
        a: &Csc<T>,
        b: &Csc<T>,
        fpc: &[u64],
    ) -> Option<Admitted> {
        let SpgemmKernel::Gpu(lib) = kernel else {
            return None;
        };
        let admission = self.gpus.admit(host_now, a, b, fpc)?;
        Some(Admitted {
            kernel,
            lib,
            admission,
        })
    }

    /// Charges the rest of an admitted launch from the product's column
    /// counts `counts`: as [`charge`](Self::charge) would have charged the
    /// whole launch at the instant it was admitted. `T` is the product's
    /// element type.
    pub fn complete<T: Value>(
        &mut self,
        admitted: Admitted,
        fpc: &[u64],
        counts: &[AtomicUsize],
    ) -> KernelLaunch {
        let Admitted {
            kernel,
            lib,
            admission,
        } = admitted;
        device_launch(kernel, self.gpus.complete::<T>(admission, fpc, lib, counts))
    }

    /// A CPU-side multiply, inline on the host, which is busy (not idle)
    /// for the whole duration and cannot issue the next broadcast
    /// meanwhile.
    fn charge_cpu(
        &self,
        host_now: f64,
        kernel: SpgemmKernel,
        flops: u64,
        counts: &[AtomicUsize],
    ) -> KernelLaunch {
        let nnz = counted(counts, 0..counts.len());
        let cf = realized_cf(flops, nnz);
        let dur = self.model.spgemm_time(kernel, flops, cf);
        KernelLaunch {
            nnz,
            kernel,
            inputs_ready_at: host_now + dur,
            output_ready_at: host_now + dur,
            host_compute: dur,
            kernel_time: dur,
            flops,
            cf,
        }
    }

    /// Places one merge operation, ready at virtual time `ready_at` (when
    /// its last input slab exists), on a lane and returns the span — the
    /// merge-side analogue of [`KernelLaunch`], with `measured_s` left at
    /// zero for the pipeline, which does the real merging, to fill in.
    /// Like [`charge`](Self::charge), never advances a rank clock.
    ///
    /// **The placement rule.** Every lane competes for the task: lane `l`
    /// would finish it at `max(ready_at, busy_until(l)) + duration(l)`,
    /// where the duration prices remote-homed inputs at the model's
    /// cross-socket penalty ([`MachineModel::merge_lane_time_with`]), and
    /// the earliest modeled completion wins — so a task leaves the lane
    /// its inputs live on exactly when paying the penalty still beats
    /// waiting for that lane, and stays otherwise. Ties break toward the
    /// lane that opens the smallest idle gap (`ready_at − busy_until`,
    /// zero for a lane with no jobs yet, whose leading gap is not
    /// accounted idle), then the lowest index — fully deterministic, like
    /// every other scheduling rule in the simulator. Placement only moves
    /// *when and where* a task runs on the virtual clock, never its
    /// operands. The span also records the task's *origin* — the
    /// least-busy lane, which a pick blind to input homes and idle gaps
    /// would have taken — and whether the rule moved it off that lane.
    pub fn submit_merge(&mut self, ready_at: f64, task: &MergeTask) -> MergeSpan {
        let lanes = &self.lanes;
        let n = lanes.len();
        let dur_on = |lane: usize| {
            self.model.merge_lane_time_with(
                task.kernel,
                task.total_elems(),
                task.ways(),
                remote_elems(task, lane),
                n,
            )
        };
        let origin = (0..n)
            .min_by(|&i, &j| {
                let (bi, bj) = (lanes[i].busy_until(), lanes[j].busy_until());
                bi.partial_cmp(&bj).unwrap()
            })
            .expect("an executor always has at least one lane");
        let cost = |l: usize| {
            let end = lanes[l].busy_until().max(ready_at) + dur_on(l);
            let gap = if lanes[l].jobs() > 0 {
                (ready_at - lanes[l].busy_until()).max(0.0)
            } else {
                0.0
            };
            (end, gap)
        };
        let lane = (0..n)
            .min_by(|&i, &j| {
                let (ei, gi) = cost(i);
                let (ej, gj) = cost(j);
                ei.partial_cmp(&ej)
                    .unwrap()
                    .then(gi.partial_cmp(&gj).unwrap())
            })
            .expect("an executor always has at least one lane");
        let dur = dur_on(lane);
        let done = self.lanes[lane].enqueue(ready_at, dur);
        MergeSpan {
            start: done.at - dur,
            end: done.at,
            kernel: task.kernel,
            ways: task.ways(),
            elems: task.total_elems(),
            lane,
            origin,
            stolen: lane != origin,
            measured_s: 0.0,
            dur,
        }
    }

    /// GPUs visible to kernel selection (0 keeps selection CPU-only).
    pub fn gpus_available(&self) -> usize {
        self.gpus.len()
    }

    /// Accumulated device idle time — the Table V "GPU idle" column, read
    /// off the device streams.
    pub fn device_idle(&self) -> f64 {
        self.gpus.total_idle()
    }

    /// Accumulated idle on the merge lanes, disjoint from
    /// [`device_idle`](Self::device_idle).
    pub fn merge_lane_idle(&self) -> f64 {
        self.lanes.iter().map(Timeline::idle_time).sum()
    }

    /// Empties every timeline — device streams and lanes — which also
    /// zeroes the idle accounting (between pipeline sections).
    pub fn reset_timelines(&mut self) {
        self.gpus.reset_timelines();
        for lane in &mut self.lanes {
            lane.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipmcl_sparse::{CscBuilder, Idx, PlusTimes};
    use hipmcl_spgemm::emit::{counters, Counted, Emit, Push};
    use hipmcl_spgemm::testutil::random_csc;
    use hipmcl_spgemm::CpuAlgo;

    fn model() -> MachineModel {
        MachineModel::summit()
    }

    fn pt() -> PlusTimes<f64> {
        PlusTimes::new()
    }

    fn want(a: &Csc<f64>) -> Csc<f64> {
        hipmcl_spgemm::hash::multiply(a, a)
    }

    fn fpc(a: &Csc<f64>) -> Vec<u64> {
        hipmcl_spgemm::flops_per_column(a, a)
    }

    /// Forms `A · A` with the hash kernel, each column handed to `emit`,
    /// then charges a `kernel` launch at `host_now` from the columns'
    /// counts: what `emit` made, and the launch.
    fn launch<E: Emit<f64>>(
        exec: &mut Executor<'_>,
        host_now: f64,
        a: &Csc<f64>,
        kernel: SpgemmKernel,
        emit: E,
    ) -> (Csc<f64>, KernelLaunch) {
        let (fpc, counts) = (fpc(a), counters(a.ncols()));
        let emit = Counted::new(emit, &counts);
        let c = CpuAlgo::Hash.multiply_cols_in(pt(), a, a, 0..a.ncols(), &fpc, emit);
        (c, exec.charge(host_now, kernel, a, a, &fpc, &counts))
    }

    const NSPARSE: SpgemmKernel = SpgemmKernel::Gpu(GpuLib::Nsparse);

    #[test]
    fn gpu_kernel_on_the_devices_is_async() {
        let (m, a) = (model(), random_csc(30, 30, 260, 41));
        let mut gpus = MultiGpu::new(model(), 2, 1 << 30);
        let mut exec = Executor::new(&mut gpus, &m);
        let (c, l) = launch(&mut exec, 1.0, &a, NSPARSE, Push);
        assert_eq!(c, want(&a));
        assert!(l.inputs_ready_at > 1.0);
        assert!(
            l.output_ready_at > l.inputs_ready_at,
            "kernel + D2H after transfer"
        );
        assert_eq!(l.host_compute, 0.0);
        assert!((l.kernel_time - (l.output_ready_at - l.inputs_ready_at)).abs() < 1e-12);
    }

    #[test]
    fn cpu_kernel_is_host_synchronous() {
        let (m, a) = (model(), random_csc(30, 30, 260, 42));
        let mut gpus = MultiGpu::new(model(), 2, 1 << 30);
        let mut exec = Executor::new(&mut gpus, &m);
        let (c, l) = launch(&mut exec, 1.0, &a, SpgemmKernel::CpuHash, Push);
        assert_eq!(c, want(&a));
        assert_eq!(
            l.inputs_ready_at, l.output_ready_at,
            "host blocked for the whole kernel"
        );
        assert!(l.host_compute > 0.0);
        assert!((l.host_compute - (l.output_ready_at - 1.0)).abs() < 1e-12);
        assert_eq!(exec.lanes[0].jobs(), 0, "dedicated lanes saw no multiply");
    }

    #[test]
    fn gpu_oom_degrades_to_host_kernel_instead_of_panicking() {
        let (m, a) = (model(), random_csc(30, 30, 260, 45));
        // Devices far too small for the operands: every launch OOMs.
        let mut gpus = MultiGpu::new(model(), 2, 64);
        let mut exec = Executor::new(&mut gpus, &m);
        let (c, l) = launch(&mut exec, 1.0, &a, NSPARSE, Push);
        assert_eq!(c, want(&a), "result still correct");
        assert_eq!(
            l.kernel,
            SpgemmKernel::CpuHash,
            "launch degraded to the host kernel"
        );
        assert!(l.host_compute > 0.0, "host pays for the fallback");
        assert_eq!(l.flops, hipmcl_spgemm::flops(&a, &a));
    }

    /// Keeps the first entry of every column.
    #[derive(Clone)]
    struct First;

    impl Emit<f64> for First {
        fn room(&self, _: usize, bound: usize) -> usize {
            bound.min(1)
        }
        fn emit(&mut self, _: usize, rows: &[Idx], vals: &[f64], out: &mut CscBuilder<f64>) {
            let n = rows.len().min(1);
            out.push_column(&rows[..n], &vals[..n]);
        }
    }

    #[test]
    fn a_launch_emits_what_it_would_make_of_its_built_product() {
        let (m, a) = (model(), random_csc(30, 30, 260, 51));
        let product = want(&a);
        fn first(c: &Csc<f64>) -> Vec<Option<Idx>> {
            (0..c.ncols())
                .map(|j| c.col_rows(j).first().copied())
                .collect()
        }
        // Devices that hold every launch; two whose second is full, so
        // that the first has run its share when the launch runs out of
        // memory; devices that hold nothing; and a CPU kernel inline.
        for (kernel, mem, full) in [
            (NSPARSE, 1 << 30, false),
            (NSPARSE, 1 << 30, true),
            (NSPARSE, 64, false),
            (SpgemmKernel::CpuHeap, 64, false),
        ] {
            let case = format!("{kernel:?} on {mem} B, second full: {full}");
            let run = |emit: bool| {
                let mut gpus = MultiGpu::new(model(), 2, mem);
                if full {
                    gpus.devices[1].alloc(mem).unwrap();
                }
                let mut exec = Executor::new(&mut gpus, &m);
                let l = match emit {
                    true => launch(&mut exec, 1.0, &a, kernel, First),
                    false => launch(&mut exec, 1.0, &a, kernel, Push),
                };
                (l, gpus.devices[0].kernels_launched())
            };
            let (((got_c, got), ran), ((built_c, built), _)) = (run(true), run(false));
            if full {
                assert_eq!(ran, 1, "{case}: the first device ran its share");
            }
            assert_eq!(built_c, product, "{case}");
            assert_eq!(first(&got_c), first(&built_c), "{case}");
            let kept = first(&product).into_iter().flatten().count();
            assert_eq!(got_c.nnz(), kept, "{case}: each column emitted once");
            // Charged as if built: same nnz, cf, label and instants.
            let charged = |l: &KernelLaunch| {
                let t = [l.cf, l.inputs_ready_at, l.output_ready_at, l.kernel_time];
                (l.nnz, l.kernel, t.map(f64::to_bits))
            };
            assert_eq!(charged(&got), charged(&built), "{case}");
        }
    }

    fn merge_task(kernel: MergeKernel, inputs: Vec<(u64, Option<usize>)>) -> MergeTask {
        MergeTask { kernel, inputs }
    }

    #[test]
    fn merge_tasks_spread_across_socket_lanes() {
        // Summit's model has two sockets → two merge lanes; two merges
        // ready at the same instant run socket-parallel, not queued.
        let m = model();
        let mut gpus = MultiGpu::new(model(), 2, 1 << 30);
        let mut exec = Executor::new(&mut gpus, &m);
        assert_eq!(exec.lanes.len(), 2);
        let t = merge_task(MergeKernel::Heap, vec![(50_000, None), (50_000, None)]);
        let l1 = exec.submit_merge(0.0, &t);
        let l2 = exec.submit_merge(0.0, &t);
        assert_ne!(l1.lane, l2.lane, "second merge takes the free lane");
        assert_eq!(l1.start, 0.0);
        assert_eq!(l2.start, 0.0);
        assert!((l1.end - l1.duration()).abs() < 1e-12);
        // A third merge must queue behind one of them.
        let l3 = exec.submit_merge(0.0, &t);
        assert!(l3.start >= l1.end.min(l2.end) - 1e-12);
    }

    #[test]
    fn merge_lane_idle_reconciles_with_span_gaps() {
        // One rank per socket (4 ranks/node) → a single merge lane, so
        // the gap between two spans is exactly the reported lane idle.
        let m = MachineModel::summit_ranks_per_node(4);
        assert_eq!(m.sockets, 1);
        let mut gpus = MultiGpu::new(m.clone(), 2, 1 << 30);
        let mut exec = Executor::new(&mut gpus, &m);
        let t = merge_task(MergeKernel::Hash, vec![(10_000, None); 4]);
        let l1 = exec.submit_merge(0.0, &t);
        let l2 = exec.submit_merge(l1.end + 0.25, &t);
        assert!((l2.start - (l1.end + 0.25)).abs() < 1e-12);
        assert!((exec.merge_lane_idle() - 0.25).abs() < 1e-12);
        assert_eq!(exec.device_idle(), 0.0, "device streams saw no merges");
        exec.reset_timelines();
        assert_eq!(exec.merge_lane_idle(), 0.0);
    }

    #[test]
    fn remote_socket_inputs_pay_the_crossing_penalty() {
        // Lane 1 is backlogged, so a task whose inputs live there runs on
        // lane 0 and every input element crosses sockets; the same task
        // homed on lane 0 pays nothing.
        let m = model();
        let run = |home: usize| {
            let mut gpus = MultiGpu::new(m.clone(), 2, 1 << 30);
            let mut exec = Executor::new(&mut gpus, &m);
            let big = merge_task(MergeKernel::Heap, vec![(50_000_000, Some(1)); 2]);
            assert_eq!(exec.submit_merge(0.0, &big).lane, 1);
            let t = merge_task(MergeKernel::Heap, vec![(40_000, Some(home)); 2]);
            let l = exec.submit_merge(0.0, &t);
            assert_eq!(l.lane, 0);
            l.duration()
        };
        let ratio = run(1) / run(0);
        assert!(
            (ratio - (1.0 + m.xsocket_penalty)).abs() < 1e-9,
            "all-remote inputs scale the merge by 1 + penalty, got {ratio}"
        );
    }

    #[test]
    fn placement_avoids_the_crossing_penalty_on_free_lanes() {
        // Both lanes are free and the inputs live on lane 1: lane 1
        // finishes the task sooner than the least-busy pick (lane 0,
        // which would pay the penalty), so it takes the task and the
        // span records the move.
        let m = model();
        let mut gpus = MultiGpu::new(m.clone(), 2, 1 << 30);
        let mut exec = Executor::new(&mut gpus, &m);
        let remote = merge_task(
            MergeKernel::Heap,
            vec![(40_000, Some(1)), (40_000, Some(1))],
        );
        let l = exec.submit_merge(0.0, &remote);
        assert_eq!(l.lane, 1, "home lane wins the task");
        assert_eq!(l.origin, 0, "fresh lanes tie on backlog: lane 0");
        assert!(l.stolen);
        let unpenalized = m.merge_lane_time_with(MergeKernel::Heap, 80_000, 2, 0, 2);
        assert!(
            (l.duration() - unpenalized).abs() < 1e-12,
            "the move pays no cross-socket penalty: {} vs {unpenalized}",
            l.duration()
        );
    }

    #[test]
    fn placement_refuses_a_move_that_loses_to_waiting() {
        // Lane 1 (the inputs' home) is deeply backlogged; lane 0 is free.
        // Paying the penalty on lane 0 now beats waiting for lane 1, so
        // the task stays on its origin lane — placement is cost-gated,
        // not affinity-greedy.
        let m = model();
        let mut gpus = MultiGpu::new(m.clone(), 2, 1 << 30);
        let mut exec = Executor::new(&mut gpus, &m);
        // Backlog lane 1 with a huge merge homed there.
        let big = merge_task(MergeKernel::Heap, vec![(50_000_000, Some(1)); 2]);
        let lb = exec.submit_merge(0.0, &big);
        assert_eq!(lb.lane, 1);
        let small = merge_task(MergeKernel::Heap, vec![(40_000, Some(1)); 2]);
        let ls = exec.submit_merge(0.0, &small);
        assert_eq!(ls.lane, 0, "waiting behind the backlog would lose");
        assert_eq!(ls.origin, 0);
        assert!(!ls.stolen);
        let penalized = m.merge_lane_time_with(MergeKernel::Heap, 80_000, 2, 80_000, 2);
        assert!((ls.duration() - penalized).abs() < 1e-12);
    }

    #[test]
    fn placement_tie_breaks_toward_the_smallest_idle_gap() {
        // Both lanes hold jobs; the task becomes ready exactly when the
        // longer lane frees up. Either lane would finish it at the same
        // instant; the shorter backlog (the origin) would open an idle
        // gap, so the rule prefers the lane that opens none.
        let m = model();
        let t_short = merge_task(MergeKernel::Heap, vec![(10_000, None); 2]);
        let t_long = merge_task(MergeKernel::Heap, vec![(80_000, None); 2]);
        let probe = merge_task(MergeKernel::Heap, vec![(20_000, None); 2]);
        let mut gpus = MultiGpu::new(m.clone(), 2, 1 << 30);
        let mut exec = Executor::new(&mut gpus, &m);
        let a = exec.submit_merge(0.0, &t_long); // lane 0
        let b = exec.submit_merge(0.0, &t_short); // lane 1
        assert_eq!((a.lane, b.lane), (0, 1));
        let l = exec.submit_merge(a.end, &probe);
        assert_eq!(l.origin, 1, "the shorter backlog");
        assert_eq!(l.lane, 0, "equal finish → prefer the gapless lane");
        assert!(l.stolen);
        assert_eq!(l.start, a.end, "no later than on lane 1");
        assert_eq!(exec.merge_lane_idle(), 0.0);
    }

    #[test]
    fn starved_lane_reconciliation_counts_no_phantom_idle() {
        // Every merge is homed on (and won by) lane 0: lane 1 receives
        // zero tasks, and its empty Timeline must contribute exactly zero
        // to merge_lane_idle — neither under- nor double-counted.
        let m = model();
        let mut gpus = MultiGpu::new(m.clone(), 2, 1 << 30);
        let mut exec = Executor::new(&mut gpus, &m);
        let t = merge_task(MergeKernel::Heap, vec![(30_000, Some(0)); 2]);
        let mut ready = 0.0;
        let mut spans = Vec::new();
        for _ in 0..4 {
            let l = exec.submit_merge(ready, &t);
            assert_eq!(l.lane, 0, "home lane always wins: lane 1 starves");
            spans.push(l);
            ready = l.end + 0.125; // open a real gap each time
        }
        assert_eq!(exec.lanes[1].jobs(), 0, "lane 1 saw nothing");
        let gaps: f64 = spans
            .windows(2)
            .map(|w| (w[1].start - w[0].end).max(0.0))
            .sum();
        assert!(
            (exec.merge_lane_idle() - gaps).abs() < 1e-12,
            "idle {} must equal the span gaps {gaps} on the busy lane alone",
            exec.merge_lane_idle()
        );
    }

    #[test]
    fn merge_task_accessors() {
        let t = merge_task(
            MergeKernel::Hash,
            vec![(3, Some(0)), (4, None), (5, Some(1))],
        );
        assert_eq!(t.ways(), 3);
        assert_eq!(t.total_elems(), 12);
    }

    #[test]
    fn reset_timelines_clears_idle_accounting() {
        let (m, a) = (model(), random_csc(20, 20, 120, 48));
        let mut gpus = MultiGpu::new(model(), 2, 1 << 30);
        let mut exec = Executor::new(&mut gpus, &m);
        launch(&mut exec, 0.0, &a, NSPARSE, Push);
        launch(&mut exec, 1e9, &a, NSPARSE, Push);
        assert!(exec.device_idle() > 0.0);
        exec.reset_timelines();
        assert_eq!(exec.device_idle(), 0.0);
    }
}
