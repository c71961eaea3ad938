//! Multi-GPU management on a node (§III-A).
//!
//! HipMCL keeps one MPI rank per node and drives all GPUs from it
//! (the "thread-based" setting that wins in Fig. 5). The local
//! `C = A · B` is split by *copying `A` to every device and dividing the
//! columns of `B` evenly* — each GPU computes a column slab of `C`, so
//! assembling the final output is a trivial horizontal concatenation.
//! Those copies and slabs are what the model charges; on the host the
//! product is formed once, column by column, by the hash kernel of
//! `hipmcl-spgemm` (Nagasaka et al., arXiv:1804.01698, the kernel nsparse
//! runs), whatever library label the launch carries: the label picks the
//! modeled rate, never the arithmetic. A device's slab is a column range
//! of the product, and what the model reads of it is its column counts.
//!
//! Virtual-time semantics per §III: the host blocks until the *input
//! transfers* complete (all devices, which transfer in parallel over their
//! own links), kernels run asynchronously, and the output slabs come back
//! with D2H transfers gated on each device's kernel event.
//!
//! A launch is charged in two halves. [`MultiGpu::admit`] is the input
//! transfers and the instant the host may resume; it needs only the
//! operands and the flops per column, and admits a launch only when no
//! device can run out of memory, from the bound `Σ_j min(flops_j, nrows)`
//! of its share. [`MultiGpu::complete`] charges the output slabs, the
//! kernels and the transfers back from the product's column counts. So
//! the product may be formed between the two. [`MultiGpu::charge`] is both
//! halves at once for any launch, one that runs out of memory included.

use crate::device::{Device, DeviceError};
use hipmcl_comm::{GpuLib, MachineModel};
use hipmcl_sparse::util::even_chunk;
use hipmcl_sparse::{Csc, Idx, PlusTimes, Semiring, Value};
use hipmcl_spgemm::analysis::nnz_bound;
use hipmcl_spgemm::emit::{counted, counters, Counted, Push};
use hipmcl_spgemm::CpuAlgo;
use std::ops::Range;
use std::sync::atomic::AtomicUsize;

/// [`Csc::bytes`] of a matrix of `ncols` columns and `nnz` entries.
fn cols_bytes<T: Value>(ncols: usize, nnz: usize) -> usize {
    (ncols + 1) * std::mem::size_of::<usize>()
        + nnz * (std::mem::size_of::<Idx>() + std::mem::size_of::<T>())
}

/// [`Csc::bytes`] of columns `cols` of `m` held as a matrix of their own,
/// without building one: what a device's share of `B` occupies.
fn slab_bytes<T: Value>(m: &Csc<T>, cols: &Range<usize>) -> usize {
    cols_bytes::<T>(cols.len(), m.colptr[cols.end] - m.colptr[cols.start])
}

/// The compression factor a device is charged at: 1 for an empty slab.
fn slab_cf(flops: u64, nnz: usize) -> f64 {
    if nnz == 0 {
        1.0
    } else {
        flops as f64 / nnz as f64
    }
}

/// The set of devices owned by one rank.
pub struct MultiGpu {
    /// The devices, all built from the same machine model.
    pub devices: Vec<Device>,
}

/// What the model charged one multi-GPU launch.
#[derive(Clone, Copy, Debug)]
pub struct Launch {
    /// Entries of the product.
    pub nnz: usize,
    /// Virtual time at which all input transfers completed — the host may
    /// proceed (to the next SUMMA broadcast) from this moment.
    pub inputs_transferred_at: f64,
    /// Virtual time at which the full output has landed back on the host —
    /// merging may start from this moment.
    pub output_ready_at: f64,
    /// Total flops of the multiplication.
    pub flops: u64,
    /// Compression factor realized by the multiplication.
    pub cf: f64,
}

/// An admitted launch whose inputs are on its devices: what
/// [`MultiGpu::complete`] charges the rest from.
#[derive(Debug)]
pub struct Admission {
    host_now: f64,
    /// Per device: when its inputs were in, and their bytes.
    inputs: Vec<(f64, usize)>,
}

impl Admission {
    /// Virtual time at which all input transfers completed.
    pub fn inputs_transferred_at(&self) -> f64 {
        (self.inputs.iter()).fold(self.host_now, |t, &(t_in, _)| t.max(t_in))
    }
}

impl MultiGpu {
    /// Creates `n` devices with the given per-device memory capacity.
    pub fn new(model: MachineModel, n: usize, mem_per_device: usize) -> Self {
        Self {
            devices: (0..n)
                .map(|_| Device::new(model.clone(), mem_per_device))
                .collect(),
        }
    }

    /// Creates the Summit configuration: `model.gpus` V100s.
    pub fn summit_node(model: &MachineModel) -> Self {
        Self::new(model.clone(), model.gpus, crate::device::V100_MEMORY)
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// `true` if the rank has no devices (CPU-only configuration).
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Total GPU idle time across devices (Table V's GPU column).
    pub fn total_idle(&self) -> f64 {
        self.devices.iter().map(Device::idle_time).sum()
    }

    /// Resets all device timelines.
    pub fn reset_timelines(&mut self) {
        for d in &mut self.devices {
            d.reset_timeline();
        }
    }

    /// Runs `C = A · B` split across all devices, starting at host virtual
    /// time `host_now`, in the given semiring: the product, and what
    /// [`MultiGpu::charge`] charged for it, which says what fails.
    pub fn multiply_in<S: Semiring>(
        &mut self,
        s: S,
        host_now: f64,
        a: &Csc<S::Elem>,
        b: &Csc<S::Elem>,
        lib: GpuLib,
    ) -> Result<(Csc<S::Elem>, Launch), DeviceError> {
        let (fpc, counts) = (hipmcl_spgemm::flops_per_column(a, b), counters(b.ncols()));
        let emit = Counted::new(Push, &counts);
        let c = CpuAlgo::Hash.multiply_cols_in(s, a, b, 0..b.ncols(), &fpc, emit);
        let launch = self.charge(host_now, a, b, &fpc, lib, &counts)?;
        Ok((c, launch))
    }

    /// [`MultiGpu::multiply_in`] with the plus-times semiring.
    pub fn multiply<T: Value>(
        &mut self,
        host_now: f64,
        a: &Csc<T>,
        b: &Csc<T>,
        lib: GpuLib,
    ) -> Result<(Csc<T>, Launch), DeviceError>
    where
        PlusTimes<T>: Semiring<Elem = T>,
    {
        self.multiply_in(PlusTimes::new(), host_now, a, b, lib)
    }

    /// The columns of `B` device `d` takes, and the bytes of its inputs:
    /// `A` and those columns of `B` as a matrix of their own.
    fn share<T: Value>(&self, a: &Csc<T>, b: &Csc<T>, d: usize) -> (Range<usize>, usize) {
        let cols = even_chunk(b.ncols(), self.devices.len(), d);
        let bytes = a.bytes() + slab_bytes(b, &cols);
        (cols, bytes)
    }

    /// Admits `C = A · B` at host virtual time `host_now`, given `fpc =
    /// flops_per_column(a, b)`, if no device can run out of memory: each
    /// must hold its inputs and the most its output slab can have, the
    /// bound `Σ_j min(flops_j, nrows)` over its columns. Then every device
    /// takes its inputs, and the host may resume at
    /// [`Admission::inputs_transferred_at`]. Otherwise nothing happens on
    /// any device.
    pub fn admit<T: Value>(
        &mut self,
        host_now: f64,
        a: &Csc<T>,
        b: &Csc<T>,
        fpc: &[u64],
    ) -> Option<Admission> {
        assert!(!self.is_empty(), "no devices on this rank");
        let shares: Vec<_> = (0..self.len()).map(|d| self.share(a, b, d)).collect();
        let fits = shares
            .iter()
            .zip(&self.devices)
            .all(|((cols, in_bytes), dev)| {
                let bound = nnz_bound(&fpc[cols.clone()], a.nrows());
                in_bytes + cols_bytes::<T>(cols.len(), bound) <= dev.mem_free()
            });
        let inputs = shares
            .iter()
            .zip(&mut self.devices)
            .map(|(&(_, bytes), dev)| {
                let t_in = dev.h2d(host_now, bytes).expect("admitted inputs fit");
                (t_in, bytes)
            });
        fits.then(|| Admission {
            host_now,
            inputs: inputs.collect(),
        })
    }

    /// Charges the rest of an admitted launch — each device's output slab,
    /// kernel and transfer back — from the product's column counts
    /// `counts` (one per column of `B`), with the kernel timed at `lib`'s
    /// rate. `T` is the product's element type.
    pub fn complete<T: Value>(
        &mut self,
        admission: Admission,
        fpc: &[u64],
        lib: GpuLib,
        counts: &[AtomicUsize],
    ) -> Launch {
        let (g, n) = (self.len(), counts.len());
        let mut outputs_done = admission.host_now;
        for (d, (dev, &(t_in, in_bytes))) in
            self.devices.iter_mut().zip(&admission.inputs).enumerate()
        {
            let cols = even_chunk(n, g, d);
            let t_out = finish::<T>(dev, t_in, in_bytes, cols, fpc, lib, counts);
            outputs_done = outputs_done.max(t_out.expect("admission bounded the output"));
        }
        summary(&admission, outputs_done, fpc, counts)
    }

    /// Charges `C = A · B` from its column counts, both halves in turn on
    /// each device: [`MultiGpu::admit`] and [`MultiGpu::complete`] for a
    /// launch that is admitted, and for any other the same events up to the
    /// first device that cannot hold its inputs plus its output slab.
    ///
    /// Fails with [`DeviceError::OutOfMemory`] then — callers fall back to
    /// the CPU kernel or to more SUMMA phases. The devices before the one
    /// that fails have run their share by then; the failing device holds
    /// nothing of the launch.
    pub fn charge<T: Value>(
        &mut self,
        host_now: f64,
        a: &Csc<T>,
        b: &Csc<T>,
        fpc: &[u64],
        lib: GpuLib,
        counts: &[AtomicUsize],
    ) -> Result<Launch, DeviceError> {
        assert!(!self.is_empty(), "no devices on this rank");
        let mut admission = Admission {
            host_now,
            inputs: Vec::with_capacity(self.len()),
        };
        let mut outputs_done = host_now;
        for d in 0..self.len() {
            let (cols, in_bytes) = self.share(a, b, d);
            let dev = &mut self.devices[d];
            let t_in = dev.h2d(host_now, in_bytes)?;
            admission.inputs.push((t_in, in_bytes));
            let t_out = finish::<T>(dev, t_in, in_bytes, cols, fpc, lib, counts)?;
            outputs_done = outputs_done.max(t_out);
        }
        Ok(summary(&admission, outputs_done, fpc, counts))
    }
}

/// One device's output slab of the columns `cols`, its kernel from `t_in`
/// and the transfer back, after which its buffers are freed (§III: GPU
/// memory holds a single multiplication at a time); returns when the slab
/// is on the host. A slab that does not fit frees the inputs too.
fn finish<T: Value>(
    dev: &mut Device,
    t_in: f64,
    in_bytes: usize,
    cols: Range<usize>,
    fpc: &[u64],
    lib: GpuLib,
    counts: &[AtomicUsize],
) -> Result<f64, DeviceError> {
    let flops: u64 = fpc[cols.clone()].iter().sum();
    let out_nnz = counted(counts, cols.clone());
    let out_bytes = cols_bytes::<T>(cols.len(), out_nnz);
    if let Err(oom) = dev.alloc(out_bytes) {
        dev.free(in_bytes);
        return Err(oom);
    }
    let ev = dev.launch_spgemm(t_in, lib, flops, slab_cf(flops, out_nnz));
    let t_out = dev.d2h(t_in, ev, out_bytes);
    dev.free(in_bytes + out_bytes);
    Ok(t_out)
}

/// The launch as a whole, once every device ran its share.
fn summary(
    admission: &Admission,
    outputs_done: f64,
    fpc: &[u64],
    counts: &[AtomicUsize],
) -> Launch {
    let flops: u64 = fpc.iter().sum();
    let nnz = counted(counts, 0..counts.len());
    Launch {
        nnz,
        inputs_transferred_at: admission.inputs_transferred_at(),
        output_ready_at: outputs_done,
        flops,
        cf: slab_cf(flops, nnz),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipmcl_spgemm::testutil::random_csc;

    fn multi(n: usize) -> MultiGpu {
        MultiGpu::new(MachineModel::summit(), n, 1 << 30)
    }

    #[test]
    fn every_label_returns_the_hash_kernels_product_on_any_device_count() {
        let a = random_csc(30, 30, 250, 21);
        let want = hipmcl_spgemm::hash::multiply(&a, &a);
        for g in [1usize, 2, 3, 6] {
            for lib in GpuLib::all() {
                let (c, launch) = multi(g).multiply(0.0, &a, &a, lib).unwrap();
                assert_eq!(c, want, "g={g} {}", lib.name());
                assert_eq!(launch.nnz, want.nnz());
            }
        }
    }

    #[test]
    fn timeline_ordering() {
        let a = random_csc(20, 20, 150, 22);
        let mut m = multi(2);
        let r = m.multiply(1.0, &a, &a, GpuLib::Nsparse).unwrap().1;
        assert!(r.inputs_transferred_at > 1.0);
        assert!(r.output_ready_at > r.inputs_transferred_at);
        assert!(r.flops > 0);
        assert!(r.cf >= 1.0);
    }

    #[test]
    fn device_memory_freed_after_multiply() {
        let a = random_csc(20, 20, 100, 23);
        let mut m = multi(3);
        m.multiply(0.0, &a, &a, GpuLib::Rmerge2).unwrap();
        for d in &m.devices {
            assert_eq!(d.mem_used(), 0, "buffers must be freed");
            assert!(d.peak_mem() > 0, "something was staged");
        }
    }

    #[test]
    fn oom_on_tiny_device() {
        let a = random_csc(100, 100, 4000, 24);
        let mut m = MultiGpu::new(MachineModel::summit(), 1, 64); // 64 bytes
        let err = m.multiply(0.0, &a, &a, GpuLib::Nsparse).unwrap_err();
        // One device: its inputs are `A` and all of `B` (= `A`).
        let (requested, free) = (2 * a.bytes(), 64);
        assert_eq!(err, DeviceError::OutOfMemory { requested, free });
    }

    #[test]
    fn a_device_whose_output_did_not_fit_keeps_nothing() {
        // Room for `A` and `B` (= `A`) and 64 bytes more: the inputs go in,
        // the output slab does not.
        let a = random_csc(100, 100, 4000, 24);
        let mut m = MultiGpu::new(MachineModel::summit(), 1, 2 * a.bytes() + 64);
        let first = m.multiply(0.0, &a, &a, GpuLib::Nsparse).unwrap_err();
        assert_eq!(m.devices[0].mem_used(), 0);
        let second = m.multiply(0.0, &a, &a, GpuLib::Nsparse).unwrap_err();
        assert_eq!(m.devices[0].mem_used(), 0);
        assert_eq!(first, second);
        assert!(matches!(first, DeviceError::OutOfMemory { free: 64, .. }));
        let small = random_csc(10, 10, 30, 28);
        m.multiply(0.0, &small, &small, GpuLib::Nsparse).unwrap();
    }

    #[test]
    fn a_launch_that_runs_out_of_memory_has_run_the_devices_before() {
        let a = random_csc(100, 100, 4000, 24);
        let state = |d: &Device| (d.kernels_launched(), d.quiescent_at(), d.peak_mem());
        let mut whole = multi(3);
        let c = whole.multiply(0.0, &a, &a, GpuLib::Nsparse).unwrap().0;
        let last = even_chunk(100, 3, 2);
        let (in_last, out_last) = (a.bytes() + slab_bytes(&a, &last), slab_bytes(&c, &last));
        // A ballast on the last device leaves it 64 bytes short of its
        // inputs, then 64 bytes beyond them.
        for (room, requested, free) in [
            (in_last - 64, in_last, in_last - 64),
            (in_last + 64, out_last, 64),
        ] {
            let mut m = multi(3);
            m.devices[2].alloc((1 << 30) - room).unwrap();
            let err = m.multiply(0.0, &a, &a, GpuLib::Nsparse).unwrap_err();
            assert_eq!(err, DeviceError::OutOfMemory { requested, free });
            for d in 0..2 {
                assert_eq!(state(&m.devices[d]), state(&whole.devices[d]));
                assert_eq!(m.devices[d].mem_used(), 0);
            }
            assert_eq!(m.devices[2].kernels_launched(), 0);
        }
    }

    #[test]
    fn ragged_slabs_charge_a_copied_slab_and_hold_its_columns() {
        // 20 columns over 3 devices (7, 7, 6); the first three and the last
        // two columns of B are empty.
        let a = random_csc(16, 16, 90, 26);
        let inner = random_csc(16, 15, 70, 27);
        let b = Csc::hcat(&[Csc::zero(16, 3), inner, Csc::zero(16, 2)]);
        let whole = hipmcl_spgemm::hash::multiply(&a, &b);
        let mut m = multi(3);
        assert_eq!(m.multiply(0.0, &a, &b, GpuLib::Nsparse).unwrap().0, whole);
        for (d, dev) in m.devices.iter().enumerate() {
            let cols = even_chunk(20, 3, d);
            let slab = whole.column_slice(cols.clone());
            let in_bytes = a.bytes() + b.column_slice(cols).bytes();
            assert_eq!(dev.peak_mem(), in_bytes + slab.bytes());
        }
    }

    /// Every device's timelines and memory, as bits.
    fn devices(m: &MultiGpu) -> Vec<(usize, u64, u64, usize, usize)> {
        let bits = |d: &Device| {
            let (idle, quiet) = (d.idle_time().to_bits(), d.quiescent_at().to_bits());
            (
                d.kernels_launched(),
                idle,
                quiet,
                d.peak_mem(),
                d.mem_used(),
            )
        };
        m.devices.iter().map(bits).collect()
    }

    #[test]
    fn an_admitted_launch_completes_as_it_would_be_charged() {
        // Two launches back to back, the second ready before the first is
        // back: admission and completion in turn leave every device as the
        // launches charged whole do, and report the same instants.
        let a = random_csc(40, 40, 400, 29);
        let fpc = hipmcl_spgemm::flops_per_column(&a, &a);
        let counts = counters(40);
        let c = CpuAlgo::Hash.multiply_cols_in(
            PlusTimes::<f64>::new(),
            &a,
            &a,
            0..40,
            &fpc,
            Counted::new(Push, &counts),
        );
        let times =
            |l: Launch| [l.inputs_transferred_at, l.output_ready_at, l.cf].map(f64::to_bits);
        let (mut whole, mut split) = (multi(3), multi(3));
        for host_now in [1.0, 1.0 + 1e-9] {
            let charged = whole.charge(host_now, &a, &a, &fpc, GpuLib::Rmerge2, &counts);
            let admitted = split.admit(host_now, &a, &a, &fpc).unwrap();
            let resumes = admitted.inputs_transferred_at();
            let completed = split.complete::<f64>(admitted, &fpc, GpuLib::Rmerge2, &counts);
            let charged = charged.unwrap();
            assert_eq!(resumes, charged.inputs_transferred_at);
            assert_eq!(times(completed), times(charged));
            assert_eq!(
                (completed.nnz, completed.flops),
                (c.nnz(), fpc.iter().sum())
            );
            assert_eq!(devices(&split), devices(&whole));
        }
    }

    #[test]
    fn a_launch_whose_bound_may_not_fit_is_not_admitted_and_leaves_no_trace() {
        // Room for the inputs and the product itself, not for its bound.
        let a = random_csc(100, 100, 600, 24);
        let fpc = hipmcl_spgemm::flops_per_column(&a, &a);
        let c = hipmcl_spgemm::hash::multiply(&a, &a);
        let bound = cols_bytes::<f64>(100, nnz_bound(&fpc, 100));
        assert!(c.bytes() < bound, "a bound above the product");
        let mut m = MultiGpu::new(MachineModel::summit(), 1, 2 * a.bytes() + c.bytes());
        let before = devices(&m);
        assert!(m.admit(0.0, &a, &a, &fpc).is_none());
        assert_eq!(devices(&m), before);
        assert!(m.multiply(0.0, &a, &a, GpuLib::Nsparse).is_ok(), "it fits");
    }

    #[test]
    fn more_devices_finish_sooner() {
        let a = random_csc(200, 200, 8000, 25);
        let t = |g: usize| {
            let mut m = multi(g);
            m.multiply(0.0, &a, &a, GpuLib::Nsparse)
                .unwrap()
                .1
                .output_ready_at
        };
        assert!(t(6) < t(1), "6 GPUs should beat 1");
    }

    #[test]
    fn summit_node_has_six_devices() {
        let m = MultiGpu::summit_node(&MachineModel::summit());
        assert_eq!(m.len(), 6);
    }
}
