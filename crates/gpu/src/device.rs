//! The virtual-timeline device.
//!
//! A [`Device`] models one V100: a FIFO kernel queue (one kernel at a
//! time, like a saturating SpGEMM grid), a copy engine for H2D/D2H
//! transfers that runs concurrently with kernels, and 16 GB of tracked
//! memory. All methods take and return *virtual timestamps* (seconds on
//! the owning rank's clock); the caller (Pipelined Sparse SUMMA) threads
//! its host clock through and overlaps against the returned events.
//!
//! The accounting deliberately mirrors §III's timeline (Fig. 2):
//!
//! * `h2d` blocks the *host* until the transfer completes — "the CPU only
//!   needs to wait for the transfer of the input matrices".
//! * `launch` never blocks the host; it returns an [`Event`] whose
//!   timestamp is when the kernel will have finished.
//! * `d2h` starts when both the kernel's event and the host are ready.
//! * GPU idle time (Table V) accumulates whenever the kernel queue starts
//!   a kernel later than it became free.

use hipmcl_comm::{GpuLib, MachineModel, Timeline};

pub use hipmcl_comm::Event;

/// Errors surfaced by the device.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeviceError {
    /// An allocation would exceed device memory.
    OutOfMemory {
        /// Bytes requested by the failing allocation.
        requested: usize,
        /// Bytes still free.
        free: usize,
    },
}

impl std::fmt::Display for DeviceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeviceError::OutOfMemory { requested, free } => {
                write!(
                    f,
                    "device out of memory: requested {requested} B, free {free} B"
                )
            }
        }
    }
}

impl std::error::Error for DeviceError {}

/// One simulated GPU.
#[derive(Clone, Debug)]
pub struct Device {
    model: MachineModel,
    mem_capacity: usize,
    mem_used: usize,
    peak_mem: usize,
    /// Kernel queue: one kernel at a time, gaps between kernels are the
    /// Table V "GPU idle" quantity.
    kernel_queue: Timeline,
    /// Copy engine, concurrent with the kernel queue.
    copy_engine: Timeline,
}

/// Default V100 memory capacity (16 GB, Summit's variant).
pub const V100_MEMORY: usize = 16 * 1024 * 1024 * 1024;

impl Device {
    /// Creates a device with the given memory capacity.
    pub fn new(model: MachineModel, mem_capacity: usize) -> Self {
        Self {
            model,
            mem_capacity,
            mem_used: 0,
            peak_mem: 0,
            kernel_queue: Timeline::new(),
            copy_engine: Timeline::new(),
        }
    }

    /// Allocates `bytes` of device memory.
    pub fn alloc(&mut self, bytes: usize) -> Result<(), DeviceError> {
        let free = self.mem_free();
        if bytes > free {
            return Err(DeviceError::OutOfMemory {
                requested: bytes,
                free,
            });
        }
        self.mem_used += bytes;
        self.peak_mem = self.peak_mem.max(self.mem_used);
        Ok(())
    }

    /// Frees `bytes` of device memory.
    pub fn free(&mut self, bytes: usize) {
        debug_assert!(bytes <= self.mem_used, "freeing more than allocated");
        self.mem_used = self.mem_used.saturating_sub(bytes);
    }

    /// Bytes currently allocated.
    pub fn mem_used(&self) -> usize {
        self.mem_used
    }

    /// Bytes an allocation can still take.
    pub fn mem_free(&self) -> usize {
        self.mem_capacity - self.mem_used
    }

    /// High-water mark of allocations.
    pub fn peak_mem(&self) -> usize {
        self.peak_mem
    }

    /// Host→device transfer of `bytes`, starting when both the host
    /// (`host_now`) and the copy engine are ready. Allocates the bytes.
    /// Returns the completion time — which is also when the *host*
    /// regains control (synchronous transfer, as in the paper's pipeline).
    pub fn h2d(&mut self, host_now: f64, bytes: usize) -> Result<f64, DeviceError> {
        self.alloc(bytes)?;
        Ok(self
            .copy_engine
            .enqueue(host_now, self.model.link_time(bytes))
            .at)
    }

    /// Launches an SpGEMM kernel that may start at `ready` (typically the
    /// input transfer's completion). Does not block the host. The returned
    /// event carries the kernel's completion time.
    pub fn launch_spgemm(&mut self, ready: f64, lib: GpuLib, flops: u64, cf: f64) -> Event {
        // Duration for a single device: the model's Gpu kernel time is for
        // a full rank (all `gpus` devices); scale back to one device.
        let rate = self.model.gpu_spgemm_rate(lib, cf);
        let dur = self.model.link_alpha + flops as f64 / rate;
        self.kernel_queue.enqueue(ready, dur)
    }

    /// Generic kernel occupying the queue for `dur` seconds from `ready`.
    pub fn launch_generic(&mut self, ready: f64, dur: f64) -> Event {
        self.kernel_queue.enqueue(ready, dur)
    }

    /// Device→host transfer of `bytes`, gated on `after` (the producing
    /// kernel's event) and the host (`host_now`). Returns completion time;
    /// the caller frees the buffers explicitly.
    pub fn d2h(&mut self, host_now: f64, after: Event, bytes: usize) -> f64 {
        self.copy_engine
            .enqueue(host_now.max(after.at), self.model.link_time(bytes))
            .at
    }

    /// Accumulated kernel-queue idle time (gaps between kernels) — the
    /// "GPU idle time" column of Table V.
    pub fn idle_time(&self) -> f64 {
        self.kernel_queue.idle_time()
    }

    /// Number of kernels launched.
    pub fn kernels_launched(&self) -> usize {
        self.kernel_queue.jobs()
    }

    /// Time at which the device finishes everything currently queued.
    pub fn quiescent_at(&self) -> f64 {
        self.kernel_queue
            .busy_until()
            .max(self.copy_engine.busy_until())
    }

    /// The machine model this device was built with.
    pub fn model(&self) -> &MachineModel {
        &self.model
    }

    /// Resets timeline and idle accounting, keeping memory state.
    pub fn reset_timeline(&mut self) {
        self.kernel_queue.reset();
        self.copy_engine.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> Device {
        Device::new(MachineModel::summit(), 1 << 20) // 1 MiB toy device
    }

    #[test]
    fn alloc_free_tracks_peak() {
        let mut d = dev();
        d.alloc(1000).unwrap();
        d.alloc(2000).unwrap();
        assert_eq!(d.mem_used(), 3000);
        d.free(1000);
        assert_eq!(d.mem_used(), 2000);
        assert_eq!(d.peak_mem(), 3000);
    }

    #[test]
    fn alloc_over_capacity_errors() {
        let mut d = dev();
        let err = d.alloc(2 << 20).unwrap_err();
        match err {
            DeviceError::OutOfMemory { requested, free } => {
                assert_eq!(requested, 2 << 20);
                assert_eq!(free, 1 << 20);
            }
        }
    }

    #[test]
    fn h2d_blocks_host_for_transfer_only() {
        let mut d = dev();
        let done = d.h2d(1.0, 1000).unwrap();
        let expect = 1.0 + d.model().link_time(1000);
        assert!((done - expect).abs() < 1e-12);
        assert_eq!(d.mem_used(), 1000);
    }

    #[test]
    fn kernels_queue_fifo() {
        let mut d = dev();
        let e1 = d.launch_spgemm(0.0, GpuLib::Nsparse, 1_000_000, 50.0);
        // Second kernel ready immediately but must wait for the first.
        let e2 = d.launch_spgemm(0.0, GpuLib::Nsparse, 1_000_000, 50.0);
        assert!(e2.at > e1.at);
        assert!(
            (e2.at - 2.0 * e1.at).abs() < 1e-9,
            "equal kernels, back to back"
        );
        assert_eq!(d.idle_time(), 0.0, "no gap between kernels");
    }

    #[test]
    fn idle_time_accumulates_gaps() {
        let mut d = dev();
        let e1 = d.launch_generic(0.0, 1.0);
        assert_eq!(e1.at, 1.0);
        let e2 = d.launch_generic(3.0, 1.0); // 2 s gap
        assert_eq!(e2.at, 4.0);
        assert!((d.idle_time() - 2.0).abs() < 1e-12);
        assert_eq!(d.kernels_launched(), 2);
    }

    #[test]
    fn d2h_waits_for_kernel_and_host() {
        let mut d = dev();
        let ev = d.launch_generic(0.0, 5.0);
        let done = d.d2h(1.0, ev, 1000);
        assert!(done >= 5.0 + d.model().link_time(1000) - 1e-12);
        // Host later than kernel: host gates.
        let ev2 = d.launch_generic(5.0, 0.1);
        let done2 = d.d2h(100.0, ev2, 10);
        assert!(done2 >= 100.0);
    }

    #[test]
    fn copy_engine_serializes_transfers() {
        let mut d = dev();
        let t1 = d.h2d(0.0, 100_000).unwrap();
        let t2 = d.h2d(0.0, 100_000).unwrap();
        assert!(t2 > t1, "second transfer queues behind the first");
    }

    #[test]
    fn h2d_oom_is_an_error_not_a_panic() {
        let mut d = dev();
        let err = d.h2d(0.0, 2 << 20).unwrap_err(); // bigger than the device
        assert!(matches!(err, DeviceError::OutOfMemory { .. }));
        // The failed transfer must not occupy the copy engine or leak
        // memory — callers degrade to a CPU kernel and carry on.
        assert_eq!(d.mem_used(), 0);
        assert_eq!(d.quiescent_at(), 0.0);
    }

    #[test]
    fn transfers_overlap_kernels() {
        let mut d = dev();
        let ev = d.launch_generic(0.0, 10.0); // long kernel
        let t = d.h2d(0.0, 1000).unwrap(); // copy engine is free
        assert!(t < ev.at, "copy engine must not wait for the kernel queue");
    }

    #[test]
    fn reset_timeline_keeps_memory() {
        let mut d = dev();
        d.alloc(500).unwrap();
        d.launch_generic(0.0, 1.0);
        d.reset_timeline();
        assert_eq!(d.mem_used(), 500);
        assert_eq!(d.idle_time(), 0.0);
        assert_eq!(d.quiescent_at(), 0.0);
    }
}
