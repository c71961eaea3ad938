//! Multi-GPU management on a node (§III-A).
//!
//! HipMCL keeps one MPI rank per node and drives all GPUs from it
//! (the "thread-based" setting that wins in Fig. 5). The local
//! `C = A · B` is split by *copying `A` to every device and dividing the
//! columns of `B` evenly* — each GPU computes a column slab of `C`, so
//! assembling the final output is a trivial horizontal concatenation.
//! Those copies and slabs are what the model charges; on the host the
//! library reads `A` and `B` in place and writes the whole product once,
//! and a device's slab is a column range of it.
//!
//! Virtual-time semantics per §III: the host blocks until the *input
//! transfers* complete (all devices, which transfer in parallel over their
//! own links), kernels run asynchronously, and the output slabs come back
//! with D2H transfers gated on each device's kernel event.

use crate::device::{Device, DeviceError};
use hipmcl_comm::{GpuLib, MachineModel};
use hipmcl_sparse::util::even_chunk;
use hipmcl_sparse::{Csc, Idx, PlusTimes, Semiring, Value};
use hipmcl_spgemm::emit::{counted, counters, Counted, Emit, Push};
use std::ops::Range;

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

/// The set of devices owned by one rank.
pub struct MultiGpu {
    /// The devices, all built from the same machine model.
    pub devices: Vec<Device>,
}

/// Outcome of one multi-GPU local multiplication.
#[derive(Debug)]
pub struct LaunchResult<T: Value = f64> {
    /// The (real, verified) product `A · B` — or, from
    /// [`MultiGpu::launch_in`], what its emit made of the product's columns.
    pub c: Csc<T>,
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
    /// time `host_now`, in the given semiring. See module docs for the
    /// timeline semantics, and [`MultiGpu::launch_in`] for what fails.
    pub fn multiply_in<S: Semiring>(
        &mut self,
        s: S,
        host_now: f64,
        a: &Csc<S::Elem>,
        b: &Csc<S::Elem>,
        lib: GpuLib,
    ) -> Result<LaunchResult<S::Elem>, DeviceError> {
        let fpc = hipmcl_spgemm::flops_per_column(a, b);
        self.launch_in(s, host_now, a, b, &fpc, lib, Push)
    }

    /// [`MultiGpu::multiply_in`] given `fpc = flops_per_column(a, b)`, with
    /// each column of the product handed to `emit` as the library finishes
    /// it: [`LaunchResult::c`] is what `emit` made of the columns.
    ///
    /// The library forms the product once, over all of `B`'s columns, and
    /// each device is charged the transfers, the kernel and the output
    /// slab of its column range from `fpc` and the number of entries each
    /// product column had — the slabs are never built.
    ///
    /// Fails with [`DeviceError::OutOfMemory`] if any device cannot hold
    /// its inputs plus its output slab — callers fall back to the CPU
    /// kernel or to more SUMMA phases. The devices before the one that
    /// fails have run their share by then, and the columns of their share
    /// have been emitted; the failing device holds nothing of the launch.
    #[allow(clippy::too_many_arguments)]
    pub fn launch_in<S: Semiring, E: Emit<S::Elem>>(
        &mut self,
        s: S,
        host_now: f64,
        a: &Csc<S::Elem>,
        b: &Csc<S::Elem>,
        fpc: &[u64],
        lib: GpuLib,
        emit: E,
    ) -> Result<LaunchResult<S::Elem>, DeviceError> {
        assert!(!self.is_empty(), "no devices on this rank");
        let g = self.devices.len();
        let n = b.ncols();

        // A + the B slab (columns `cols` as a matrix of their own).
        let in_bytes = |d: usize| a.bytes() + slab_bytes(b, &even_chunk(n, g, d));
        // The launch stops at the first device that cannot take its
        // inputs, so the columns formed are those of the devices before
        // it: all of them when every device can.
        let admitted = (0..g)
            .take_while(|&d| in_bytes(d) <= self.devices[d].mem_free())
            .count();
        let formed = match admitted {
            d if d < g => even_chunk(n, g, d).start,
            _ => n,
        };

        // Real kernel execution (host-side, verified), modeled durations.
        let counts = counters(formed);
        let c = crate::libs::multiply_cols_in(
            s,
            a,
            b,
            0..formed,
            fpc,
            lib,
            Counted::new(emit, &counts),
        );

        let mut inputs_done = host_now;
        let mut outputs_done = host_now;
        for (d, dev) in self.devices.iter_mut().enumerate() {
            let cols = even_chunk(n, g, d);
            let flops: u64 = fpc[cols.clone()].iter().sum();

            // Input transfer. Devices transfer in parallel (independent
            // links); each starts when the host initiates.
            let in_bytes = in_bytes(d);
            let t_in = dev.h2d(host_now, in_bytes)?;
            inputs_done = inputs_done.max(t_in);

            let out_nnz = counted(&counts, cols.clone());
            let cf = if out_nnz == 0 {
                1.0
            } else {
                flops as f64 / out_nnz as f64
            };
            let out_bytes = cols_bytes::<S::Elem>(cols.len(), out_nnz);
            if let Err(oom) = dev.alloc(out_bytes) {
                dev.free(in_bytes);
                return Err(oom);
            }
            let ev = dev.launch_spgemm(t_in, lib, flops, cf);

            // Output transfer back, then the device buffers are freed
            // (§III: GPU memory holds a single multiplication at a time).
            let t_out = dev.d2h(t_in, ev, out_bytes);
            dev.free(in_bytes + out_bytes);
            outputs_done = outputs_done.max(t_out);
        }

        let flops: u64 = fpc.iter().sum();
        let nnz = counted(&counts, 0..n);
        let cf = if nnz == 0 {
            1.0
        } else {
            flops as f64 / nnz as f64
        };
        Ok(LaunchResult {
            c,
            nnz,
            inputs_transferred_at: inputs_done,
            output_ready_at: outputs_done,
            flops,
            cf,
        })
    }

    /// [`MultiGpu::multiply_in`] with the plus-times semiring.
    pub fn multiply<T: Value>(
        &mut self,
        host_now: f64,
        a: &Csc<T>,
        b: &Csc<T>,
        lib: GpuLib,
    ) -> Result<LaunchResult<T>, DeviceError>
    where
        PlusTimes<T>: Semiring<Elem = T>,
    {
        self.multiply_in(PlusTimes::new(), host_now, a, b, lib)
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
    fn result_matches_cpu_kernel_any_device_count() {
        let a = random_csc(30, 30, 250, 21);
        let want = hipmcl_spgemm::hash::multiply(&a, &a);
        for g in [1usize, 2, 3, 6] {
            let mut m = multi(g);
            let r = m.multiply(0.0, &a, &a, GpuLib::Nsparse).unwrap();
            assert!(r.c.max_abs_diff(&want) < 1e-9, "g={g}");
            assert_eq!(r.c.nnz(), want.nnz(), "g={g}");
        }
    }

    #[test]
    fn timeline_ordering() {
        let a = random_csc(20, 20, 150, 22);
        let mut m = multi(2);
        let r = m.multiply(1.0, &a, &a, GpuLib::Nsparse).unwrap();
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
        let c = whole.multiply(0.0, &a, &a, GpuLib::Nsparse).unwrap().c;
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
        let fpc = hipmcl_spgemm::flops_per_column(&a, &b);
        let s = PlusTimes::<f64>::new();
        for lib in GpuLib::all() {
            let whole = crate::libs::multiply_csc(&a, &b, lib);
            let mut m = multi(3);
            assert_eq!(m.multiply(0.0, &a, &b, lib).unwrap().c, whole);
            for (d, dev) in m.devices.iter().enumerate() {
                let cols = even_chunk(20, 3, d);
                let slab = crate::libs::multiply_cols_in(s, &a, &b, cols.clone(), &fpc, lib, Push);
                assert_eq!(slab, whole.column_slice(cols.clone()), "{}", lib.name());
                let in_bytes = a.bytes() + b.column_slice(cols).bytes();
                assert_eq!(dev.peak_mem(), in_bytes + slab.bytes(), "{}", lib.name());
            }
        }
    }

    #[test]
    fn more_devices_finish_sooner() {
        let a = random_csc(200, 200, 8000, 25);
        let t = |g: usize| {
            let mut m = multi(g);
            m.multiply(0.0, &a, &a, GpuLib::Nsparse)
                .unwrap()
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
