//! The machine model: kernel rate curves and interconnect parameters that
//! turn operation counts into virtual seconds.
//!
//! Calibration targets Summit (ORNL), the paper's platform: two 22-core
//! Power9 CPUs and six 16 GB V100 GPUs per node, dual-rail EDR InfiniBand
//! (fat tree). The absolute constants are order-of-magnitude figures from
//! public Summit specs; the *relative* figures (heap vs hash vs the three
//! GPU libraries as functions of the compression factor `cf`) are set to
//! reproduce the regimes the paper reports in Fig. 4 and §VI–VII:
//!
//! * heaps slightly beat hashes at `cf ≲ 2`, lose badly at large `cf`;
//! * `nsparse` ≈ 3.3× `cpu-hash` at large `cf`, poor at small `cf`;
//! * `bhsparse` ≈ 2.6× at large `cf`;
//! * `rmerge2` ≈ 1.1× overall and the best GPU library at small `cf`.
//!
//! Everything is an explicit struct field so ablation benches can perturb
//! the model.

/// Which SpGEMM kernel a local multiplication ran on (for rate lookup).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SpgemmKernel {
    /// CPU, heap accumulation (original HipMCL).
    CpuHeap,
    /// CPU, hash accumulation (§VI).
    CpuHash,
    /// One of the GPU libraries.
    Gpu(GpuLib),
}

/// The three GPU SpGEMM libraries the paper integrates (§III).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GpuLib {
    /// `bhsparse` (Liu & Vinter) — expand-sort-compress.
    Bhsparse,
    /// `nsparse` (Nagasaka et al.) — binned hash accumulation.
    Nsparse,
    /// `rmerge2` (Gremse et al.) — iterative row merging.
    Rmerge2,
}

impl GpuLib {
    /// Label used in the paper's plots.
    pub fn name(self) -> &'static str {
        match self {
            GpuLib::Bhsparse => "bhsparse",
            GpuLib::Nsparse => "nsparse",
            GpuLib::Rmerge2 => "rmerge2",
        }
    }

    /// All libraries, in the paper's plot order.
    pub fn all() -> [GpuLib; 3] {
        [GpuLib::Rmerge2, GpuLib::Bhsparse, GpuLib::Nsparse]
    }
}

impl SpgemmKernel {
    /// Label used in the paper's plots.
    pub fn name(self) -> &'static str {
        match self {
            SpgemmKernel::CpuHeap => "cpu-heap",
            SpgemmKernel::CpuHash => "cpu-hash",
            SpgemmKernel::Gpu(lib) => lib.name(),
        }
    }
}

/// The kernel label of a single k-way merge operation (the merge-side
/// analogue of [`SpgemmKernel`]): the rate key its lane task is timed
/// with. Rates are modeled by [`MachineModel::merge_time_with`]; the
/// per-merge selection rule lives in
/// `hipmcl_summa::merge::select_merge_kernel`. The accumulators below are
/// reproduced by their modeled rates: every label runs the same merge, a
/// list-order fold of two-cursor merges (`hipmcl_summa::merge`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MergeKernel {
    /// Cursor-based k-way heap merge (original HipMCL's accumulator):
    /// `total · lg k` comparisons.
    Heap,
    /// Left-fold of two-way cursor merges. Cheaper constants than a heap
    /// at fan-in 2 (no sift), but each fold re-scans the accumulator, so
    /// work grows linearly with the fan-in.
    Pairwise,
    /// SpAdd-style hash accumulation (Hussain et al., arXiv:2112.10223;
    /// Nagasaka et al., arXiv:1804.01698): per-column hash table, O(1)
    /// per element regardless of fan-in, but a worse constant plus a
    /// table-setup cost that small merges cannot amortize.
    Hash,
    /// BRMerge-style row merge (arXiv:2206.06611): one pass of k cursors
    /// per column instead of `Pairwise`'s fold of two-way merges, so the
    /// per-element constant drops below the pairwise cursor merge. The
    /// min-scan over the cursor heads still makes its work linear in the
    /// fan-in, so it owns the small-fan-in regime.
    BrMerge,
    /// Hussain-style parallel SpAdd (arXiv:2112.10223): each thread
    /// accumulates its columns through an epoch-stamped dense sparse
    /// accumulator. Fan-in independent like `Hash` but with a cheaper
    /// per-element constant and a smaller setup (the SPA is reused across
    /// columns), so it owns the large-fan-in regime.
    SpAdd,
}

impl MergeKernel {
    /// Label used in probes and CSV output.
    pub fn name(self) -> &'static str {
        match self {
            MergeKernel::Heap => "heap",
            MergeKernel::Pairwise => "pairwise",
            MergeKernel::Hash => "hash",
            MergeKernel::BrMerge => "brmerge",
            MergeKernel::SpAdd => "spadd",
        }
    }

    /// All kernels, in display order.
    pub fn all() -> [MergeKernel; 5] {
        [
            MergeKernel::Heap,
            MergeKernel::Pairwise,
            MergeKernel::Hash,
            MergeKernel::BrMerge,
            MergeKernel::SpAdd,
        ]
    }
}

/// How a SUMMA stage moves an operand panel from its owner to the other
/// ranks of a row/column communicator (§V's communication dimension).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CommMode {
    /// Binomial-tree broadcast: `⌈lg p⌉` hops, each forwarding the full
    /// payload — asymptotically right for large panels.
    Broadcast,
    /// Root-sequential point-to-point sends ("gather-style" exchange):
    /// one α, `p − 1` bandwidth terms serialized at the root — cheaper
    /// for small panels and small communicators where the tree's
    /// repeated latency dominates.
    Gather,
}

impl CommMode {
    /// Label used in probes and CSV output.
    pub fn name(self) -> &'static str {
        match self {
            CommMode::Broadcast => "broadcast",
            CommMode::Gather => "gather",
        }
    }
}

/// Per-element cost multiplier of [`MergeKernel::Pairwise`] relative to
/// one heap comparison: a two-way cursor merge does no sifting, so at
/// fan-in 2 it beats the heap (`0.8 < lg 2 = 1`); the left-fold re-scan
/// makes its work `total · 0.8 · (k − 1)`, losing from fan-in 3 up.
pub const PAIRWISE_MERGE_FACTOR: f64 = 0.8;
/// Per-element cost multiplier of [`MergeKernel::Hash`]: fan-in
/// independent, so it overtakes the heap's `lg k` once `lg k > 1.6`
/// (fan-in ≥ 4) — the same crossover shape as the heap/hash SpGEMM
/// selector (`hipmcl_spgemm::hybrid::HEAP_HASH_CF_CROSSOVER`).
pub const HASH_MERGE_FACTOR: f64 = 1.6;
/// Fixed table-setup cost of a hash merge, in merge-rate element-ops:
/// below this many total elements the heap's cache-resident cursors win
/// even at large fan-in.
pub const HASH_MERGE_SETUP_OPS: f64 = 4096.0;
/// Per-element cost multiplier of [`MergeKernel::BrMerge`]: a
/// single-pass k-cursor merge does no sorting or hashing — only the
/// linear min-scan over the cursor heads, whose per-element cost grows
/// with fan-in: `total · 0.3 · (k − 1)`. Beats everything through
/// fan-in 5 (calibrated in commit `9470963` against the wall-clock of
/// the BRMerge accumulator it added); the
/// min-scan loses to the fan-in-independent SpAdd from fan-in 6 up
/// (`0.3 · 5 > 1.2`).
pub const BRMERGE_MERGE_FACTOR: f64 = 0.3;
/// Per-element cost multiplier of [`MergeKernel::SpAdd`]: the
/// epoch-stamped dense accumulator pays one stamp check plus an
/// amortized per-column sort per element — fan-in independent and
/// cheaper than the hash table's probing (`1.2 < 1.6`).
pub const SPADD_MERGE_FACTOR: f64 = 1.2;
/// Fixed setup cost of a parallel SpAdd, in merge-rate element-ops:
/// partitioning columns across threads and touching the reused SPA is
/// far cheaper than building hash tables (`2048 < 4096`), but tiny
/// merges still fall back to the setup-free cursor kernels (brmerge,
/// or the heap at very high fan-in).
pub const SPADD_SETUP_OPS: f64 = 2048.0;

/// Summit-like machine parameters. All times in seconds, rates in
/// operations (or bytes) per second, per *rank* unless stated.
#[derive(Clone, Debug)]
pub struct MachineModel {
    /// Human-readable name.
    pub name: &'static str,
    /// Network message latency (per hop of a tree collective).
    pub alpha: f64,
    /// Inverse network bandwidth per rank, s/byte.
    pub beta: f64,
    /// Host↔device transfer launch latency.
    pub link_alpha: f64,
    /// Inverse host↔device bandwidth, s/byte (NVLink on Summit).
    pub link_beta: f64,
    /// Effective per-core SpGEMM rate with hash accumulation, flops/s.
    /// (Sparse flops — dominated by irregular memory traffic, so far below
    /// peak FP throughput.)
    pub core_spgemm_rate: f64,
    /// CPU threads available to this rank.
    pub threads: usize,
    /// CPU sockets this rank's threads span (Summit nodes carry two
    /// Power9 sockets). Worker pools size one merge lane per socket;
    /// `1` collapses the node to a flat pool.
    pub sockets: usize,
    /// Fractional slowdown of a merge whose inputs live on another
    /// socket's workers (remote-NUMA traffic): a merge with every input
    /// remote costs `1 + xsocket_penalty` times its local duration.
    pub xsocket_penalty: f64,
    /// GPUs driven by this rank.
    pub gpus: usize,
    /// Aggregate GPU SpGEMM rate of a *full node* (all 6 GPUs) with
    /// `nsparse` at `cf → ∞`, flops/s.
    pub gpu_node_rate: f64,
    /// Thread-scaling penalty: efficiency = 1 / (1 + c·threads). Models
    /// OpenMP/NUMA overhead growing with the thread count — the effect
    /// behind the paper's thread-vs-process study (Fig. 5).
    pub thread_overhead: f64,
    /// Elementwise op rate per core (pruning, inflation), ops/s.
    pub core_elementwise_rate: f64,
    /// Merge rate per core, elements/s (two-way merge of sorted runs).
    pub core_merge_rate: f64,
    /// Cohen-estimator op rate per core, key-ops/s.
    pub core_estimate_rate: f64,
}

impl MachineModel {
    /// Summit, one MPI rank per node: 40 worker threads (paper's choice,
    /// out of 44 SMT-1 cores), 6 GPUs.
    pub fn summit() -> Self {
        Self {
            name: "summit-1rank-per-node",
            alpha: 3.0e-6,
            beta: 1.0 / 23.0e9,
            link_alpha: 1.0e-5,
            link_beta: 1.0 / 50.0e9,
            core_spgemm_rate: 7.5e7,
            threads: 40,
            sockets: 2,
            xsocket_penalty: 0.3,
            gpus: 6,
            gpu_node_rate: 7.8e9,
            thread_overhead: 0.007,
            core_elementwise_rate: 2.0e8,
            core_merge_rate: 1.2e8,
            core_estimate_rate: 1.5e8,
        }
    }

    /// Summit parameters for *reduced-scale* harness runs.
    ///
    /// On the real machine, per-node SUMMA payloads are hundreds of MB to
    /// GB, so fixed latencies (network α ≈ 3 µs, kernel/transfer launch
    /// ≈ 10 µs) are 4–5 orders of magnitude below the bandwidth terms.
    /// The harness shrinks workloads by 10³–10⁵, which would promote
    /// those constants into the dominant cost and mask every effect the
    /// paper measures. This model scales the fixed latencies down by the
    /// same order so they remain as negligible as they are on Summit;
    /// all rates and bandwidths (the terms that set the paper's shapes)
    /// are untouched.
    pub fn summit_bench() -> Self {
        Self {
            name: "summit-bench-scaled",
            alpha: 3.0e-10,
            link_alpha: 1.0e-9,
            ..Self::summit()
        }
    }

    /// Summit with `r` ranks per node (the "process-based" setting of
    /// Fig. 5): threads and GPUs are divided, network bandwidth per rank
    /// shrinks because ranks share the NIC.
    pub fn summit_ranks_per_node(r: usize) -> Self {
        let base = Self::summit();
        Self {
            name: "summit-multirank",
            beta: base.beta * r as f64,
            threads: base.threads / r,
            // Two or more ranks per node pin each rank to one socket.
            sockets: (base.sockets / r).max(1),
            gpus: (base.gpus / r).max(1),
            gpu_node_rate: base.gpu_node_rate / r as f64,
            ..base
        }
    }

    /// Thread-parallel efficiency for this rank's thread count.
    pub fn thread_efficiency(&self) -> f64 {
        1.0 / (1.0 + self.thread_overhead * self.threads as f64)
    }

    /// Effective CPU rate multiplier: threads × efficiency.
    fn cpu_parallel_factor(&self) -> f64 {
        self.threads as f64 * self.thread_efficiency()
    }

    /// CPU SpGEMM rate (flops/s for this rank) as a function of kernel and
    /// compression factor. See module docs for the shape rationale.
    pub fn cpu_spgemm_rate(&self, kernel: SpgemmKernel, cf: f64) -> f64 {
        let hash = self.core_spgemm_rate * self.cpu_parallel_factor();
        match kernel {
            SpgemmKernel::CpuHash => hash,
            // Heap: mild win at tiny cf, logarithmic decay after —
            // steepness follows the Nagasaka et al. ICPP'18 measurements
            // (hash 2-4x faster at MCL densities).
            SpgemmKernel::CpuHeap => hash * 1.15 / (0.9 + 0.5 * (1.0 + cf).ln()),
            SpgemmKernel::Gpu(_) => panic!("GPU kernel asked for CPU rate"),
        }
    }

    /// GPU SpGEMM rate (flops/s) for a *single device* of this rank.
    /// Saturating exponentials reproduce the Fig. 4 regimes: every library
    /// needs accumulation density (`cf`) to amortize its launch and
    /// memory-staging overheads.
    pub fn gpu_spgemm_rate(&self, lib: GpuLib, cf: f64) -> f64 {
        assert!(self.gpus > 0, "model has no GPUs");
        let hash_node = self.core_spgemm_rate * 40.0 / (1.0 + 0.007 * 40.0); // full-node cpu-hash
        let peak_node = self.gpu_node_rate; // nsparse at cf→∞ (≈3.3× hash_node)
        let per_gpu = |node_rate: f64| node_rate / 6.0;
        let s = |x: f64| 1.0 - (-x).exp();
        match lib {
            GpuLib::Nsparse => {
                per_gpu(hash_node * 0.5 + (peak_node - hash_node * 0.5) * s(cf / 12.0))
            }
            GpuLib::Bhsparse => {
                per_gpu(hash_node * 0.4 + (2.6 * hash_node - hash_node * 0.4) * s(cf / 12.0))
            }
            GpuLib::Rmerge2 => {
                per_gpu(hash_node * 0.92 + (1.1 * hash_node - hash_node * 0.92) * s(cf / 5.0))
            }
        }
    }

    /// Virtual duration of a local SpGEMM with `flops` work at compression
    /// factor `cf` on the given kernel. GPU kernels assume the work is
    /// split evenly across this rank's `gpus` devices (§III-A column
    /// splitting), so the duration is for the whole local multiply.
    pub fn spgemm_time(&self, kernel: SpgemmKernel, flops: u64, cf: f64) -> f64 {
        match kernel {
            SpgemmKernel::Gpu(lib) => {
                let rate = self.gpu_spgemm_rate(lib, cf) * self.gpus as f64;
                self.link_alpha + flops as f64 / rate
            }
            k => flops as f64 / self.cpu_spgemm_rate(k, cf),
        }
    }

    /// Point-to-point transfer time for `bytes`.
    pub fn p2p_time(&self, bytes: usize) -> f64 {
        self.alpha + bytes as f64 * self.beta
    }

    /// Modeled critical-path time of a binomial-tree broadcast of `bytes`
    /// over `p` ranks: `⌈lg p⌉ · (α + βb)`. Every tree level forwards the
    /// whole payload, so large panels pay the bandwidth term `lg p` times.
    pub fn tree_bcast_time(&self, p: usize, bytes: usize) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        let depth = (usize::BITS - (p - 1).leading_zeros()) as f64;
        depth * self.p2p_time(bytes)
    }

    /// Modeled time of a flat (root-sequential point-to-point) broadcast
    /// of `bytes` over `p` ranks: the root serializes `p − 1` sends onto
    /// its NIC, so the last receiver waits `α + (p − 1) · βb`. One α, one
    /// bandwidth term per peer — the small-message / small-`p` winner.
    pub fn flat_bcast_time(&self, p: usize, bytes: usize) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        self.alpha + (p - 1) as f64 * bytes as f64 * self.beta
    }

    /// Picks the cheaper broadcast algorithm for a `bytes`-sized panel
    /// over `p` ranks under this model. The crossover sits where
    /// `⌈lg p⌉(α + βb) = α + (p−1)βb`; for `p = 4` that is
    /// `b* = α / (2β)` — payloads below it prefer [`CommMode::Gather`]
    /// (point-to-point), above it [`CommMode::Broadcast`].
    pub fn choose_comm_mode(&self, p: usize, bytes: usize) -> CommMode {
        if self.flat_bcast_time(p, bytes) <= self.tree_bcast_time(p, bytes) {
            CommMode::Gather
        } else {
            CommMode::Broadcast
        }
    }

    /// Host→device (or device→host) transfer time for `bytes`.
    pub fn link_time(&self, bytes: usize) -> f64 {
        self.link_alpha + bytes as f64 * self.link_beta
    }

    /// Elementwise pass over `n` entries (pruning, inflation, scaling).
    pub fn elementwise_time(&self, n: u64) -> f64 {
        n as f64 / (self.core_elementwise_rate * self.cpu_parallel_factor())
    }

    /// Merging `total` elements through a `ways`-way merge (heap of size
    /// `ways`): `total · lg(ways)` comparisons at the merge rate.
    /// Equivalent to [`merge_time_with`](Self::merge_time_with) for
    /// [`MergeKernel::Heap`] on the whole node.
    pub fn merge_time(&self, total: u64, ways: usize) -> f64 {
        self.merge_time_with(MergeKernel::Heap, total, ways)
    }

    /// Element-ops of a `ways`-way merge of `total` elements under the
    /// given kernel — the strategy dimension of the merge cost model:
    ///
    /// * `Heap` — `total · lg k` (cursor heap of size `k`);
    /// * `Pairwise` — `total · PAIRWISE_MERGE_FACTOR · (k − 1)` (left
    ///   fold of two-way merges; cheapest at `k = 2`, linear re-scan
    ///   beyond);
    /// * `Hash` — `total · HASH_MERGE_FACTOR + HASH_MERGE_SETUP_OPS`
    ///   (fan-in independent accumulation plus table setup);
    /// * `BrMerge` — `total · BRMERGE_MERGE_FACTOR · (k − 1)` (single-pass
    ///   k-cursor merge; pairwise's fan-in shape with a much
    ///   smaller constant);
    /// * `SpAdd` — `total · SPADD_MERGE_FACTOR + SPADD_SETUP_OPS`
    ///   (parallel epoch-SPA accumulation; hash's shape, cheaper terms).
    ///
    /// The crossovers these formulas induce (brmerge at `k ≤ 5`, spadd at
    /// `k ≥ 6` with enough elements, heap for tiny high-fan-in merges;
    /// pairwise and hash are dominated and survive only as ablation
    /// baselines) are exactly what `select_merge_kernel` picks by
    /// evaluating this model.
    fn merge_ops_with(&self, kernel: MergeKernel, total: u64, ways: usize) -> f64 {
        let lg = (ways.max(2) as f64).log2();
        match kernel {
            MergeKernel::Heap => total as f64 * lg,
            MergeKernel::Pairwise => {
                total as f64 * PAIRWISE_MERGE_FACTOR * (ways.max(2) - 1) as f64
            }
            MergeKernel::Hash => total as f64 * HASH_MERGE_FACTOR + HASH_MERGE_SETUP_OPS,
            MergeKernel::BrMerge => total as f64 * BRMERGE_MERGE_FACTOR * (ways.max(2) - 1) as f64,
            MergeKernel::SpAdd => total as f64 * SPADD_MERGE_FACTOR + SPADD_SETUP_OPS,
        }
    }

    /// Virtual duration of a `ways`-way merge of `total` elements with
    /// `kernel`, run on the whole node's threads.
    pub fn merge_time_with(&self, kernel: MergeKernel, total: u64, ways: usize) -> f64 {
        self.merge_ops_with(kernel, total, ways)
            / (self.core_merge_rate * self.cpu_parallel_factor())
    }

    /// Virtual duration of the same merge run on a single socket's share
    /// of the threads (`threads / sockets` cores, re-evaluating the
    /// thread-scaling efficiency at the smaller count). This is what a
    /// merge task occupying one socket's merge lane costs.
    fn socket_merge_time_with(&self, kernel: MergeKernel, total: u64, ways: usize) -> f64 {
        let threads = (self.threads / self.sockets.max(1)).max(1) as f64;
        let factor = threads / (1.0 + self.thread_overhead * threads);
        self.merge_ops_with(kernel, total, ways) / (self.core_merge_rate * factor)
    }

    /// Virtual duration of a merge task as placed on one of `lanes` merge
    /// lanes, with `remote_elems` of its `total` input elements homed on a
    /// different socket than the chosen lane — the steal-cost model the
    /// lane scheduler evaluates per candidate lane. A multi-lane node runs
    /// the merge at the per-socket rate
    /// (`socket_merge_time_with`); a
    /// single-lane node at the whole-node rate
    /// ([`merge_time_with`](Self::merge_time_with)). Remote-homed input
    /// elements scale the duration by up to `1 + xsocket_penalty` (all
    /// inputs remote), so a steal onto the "wrong" socket is only taken
    /// when the modeled end time still beats waiting for the home lane.
    pub fn merge_lane_time_with(
        &self,
        kernel: MergeKernel,
        total: u64,
        ways: usize,
        remote_elems: u64,
        lanes: usize,
    ) -> f64 {
        let base = if lanes > 1 {
            self.socket_merge_time_with(kernel, total, ways)
        } else {
            self.merge_time_with(kernel, total, ways)
        };
        base * (1.0 + self.xsocket_penalty * remote_elems as f64 / total.max(1) as f64)
    }

    /// Cohen estimation with `ops = r · (nnz A + nnz B)` key operations.
    pub fn estimate_time(&self, ops: u64) -> f64 {
        ops as f64 / (self.core_estimate_rate * self.cpu_parallel_factor())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bcast_costs_match_closed_forms() {
        let m = MachineModel::summit();
        let b = 1 << 20;
        // Tree over 8 ranks: depth 3.
        let want_tree = 3.0 * (m.alpha + b as f64 * m.beta);
        assert!((m.tree_bcast_time(8, b) - want_tree).abs() < 1e-15);
        // Flat over 8 ranks: one α, 7 bandwidth terms.
        let want_flat = m.alpha + 7.0 * b as f64 * m.beta;
        assert!((m.flat_bcast_time(8, b) - want_flat).abs() < 1e-15);
        // Degenerate communicators are free.
        assert_eq!(m.tree_bcast_time(1, b), 0.0);
        assert_eq!(m.flat_bcast_time(1, b), 0.0);
    }

    #[test]
    fn comm_mode_crossover_pinned_at_p4() {
        // At p = 4 (tree depth 2): 2(α + βb) vs α + 3βb, equal at
        // b* = α / β. For Summit that is 3.0e-6 · 23e9 = 69 000 bytes.
        let m = MachineModel::summit();
        let bstar = (m.alpha / m.beta).round() as usize;
        assert_eq!(bstar, 69_000, "summit crossover point moved");
        assert_eq!(m.choose_comm_mode(4, bstar / 2), CommMode::Gather);
        assert_eq!(m.choose_comm_mode(4, bstar * 2), CommMode::Broadcast);
        // Exactly at the crossover the tie breaks toward Gather (≤).
        assert_eq!(m.choose_comm_mode(4, bstar), CommMode::Gather);
    }

    #[test]
    fn comm_mode_limits() {
        let m = MachineModel::summit();
        // Tiny payloads: latency dominates, point-to-point wins at any p.
        for p in [2usize, 4, 16, 64] {
            assert_eq!(m.choose_comm_mode(p, 8), CommMode::Gather, "p={p}");
        }
        // Huge payloads at large p: the tree's lg p bandwidth terms beat
        // the flat root's p − 1 serialized sends.
        for p in [8usize, 16, 64] {
            assert_eq!(
                m.choose_comm_mode(p, 64 << 20),
                CommMode::Broadcast,
                "p={p}"
            );
        }
        // p = 2 is always Gather: both cost α + βb, tie goes to the
        // cheaper machinery.
        assert_eq!(m.choose_comm_mode(2, 64 << 20), CommMode::Gather);
    }

    #[test]
    fn heap_beats_hash_at_low_cf_only() {
        let m = MachineModel::summit();
        assert!(
            m.cpu_spgemm_rate(SpgemmKernel::CpuHeap, 0.5)
                > m.cpu_spgemm_rate(SpgemmKernel::CpuHash, 0.5),
            "heap should win at cf=0.5"
        );
        assert!(
            m.cpu_spgemm_rate(SpgemmKernel::CpuHeap, 50.0)
                < 0.6 * m.cpu_spgemm_rate(SpgemmKernel::CpuHash, 50.0),
            "heap should lose badly at cf=50"
        );
    }

    #[test]
    fn gpu_library_ordering_matches_fig4() {
        let m = MachineModel::summit();
        let hash_node = m.cpu_spgemm_rate(SpgemmKernel::CpuHash, 100.0);
        // At large cf: nsparse ~3.3x, bhsparse ~2.6x, rmerge2 ~1.1x of
        // cpu-hash (node-aggregate GPU rate vs node CPU rate).
        let node = |lib| m.gpu_spgemm_rate(lib, 200.0) * 6.0;
        assert!((node(GpuLib::Nsparse) / hash_node - 3.3).abs() < 0.35);
        assert!((node(GpuLib::Bhsparse) / hash_node - 2.6).abs() < 0.3);
        assert!((node(GpuLib::Rmerge2) / hash_node - 1.1).abs() < 0.15);
        // At small cf: rmerge2 is the best GPU library.
        let small = |lib| m.gpu_spgemm_rate(lib, 0.5);
        assert!(small(GpuLib::Rmerge2) > small(GpuLib::Nsparse));
        assert!(small(GpuLib::Rmerge2) > small(GpuLib::Bhsparse));
    }

    #[test]
    fn spgemm_time_scales_with_flops() {
        let m = MachineModel::summit();
        let t1 = m.spgemm_time(SpgemmKernel::CpuHash, 1_000_000, 10.0);
        let t2 = m.spgemm_time(SpgemmKernel::CpuHash, 2_000_000, 10.0);
        assert!((t2 / t1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn gpu_time_includes_launch_latency() {
        let m = MachineModel::summit();
        let tiny = m.spgemm_time(SpgemmKernel::Gpu(GpuLib::Nsparse), 1, 100.0);
        assert!(tiny >= m.link_alpha);
    }

    #[test]
    fn multirank_divides_resources() {
        let m1 = MachineModel::summit();
        let m4 = MachineModel::summit_ranks_per_node(4);
        assert_eq!(m4.threads, 10);
        assert_eq!(m4.gpus, 1);
        assert!(m4.beta > m1.beta);
        // Fewer threads -> better per-thread efficiency (Fig. 5 pruning).
        assert!(m4.thread_efficiency() > m1.thread_efficiency());
    }

    #[test]
    fn p2p_and_link_times_positive_monotone() {
        let m = MachineModel::summit();
        assert!(m.p2p_time(0) > 0.0);
        assert!(m.p2p_time(1 << 20) > m.p2p_time(1 << 10));
        assert!(
            m.link_time(1 << 20) < m.p2p_time(1 << 20),
            "NVLink faster than network"
        );
    }

    #[test]
    fn merge_time_grows_with_ways() {
        let m = MachineModel::summit();
        assert!(m.merge_time(1000, 16) > m.merge_time(1000, 2));
    }

    #[test]
    fn merge_kernel_crossovers_match_the_documented_rule() {
        let m = MachineModel::summit();
        let t = |k, total, ways| m.merge_time_with(k, total, ways);
        // Fan-in 2: the k-cursor merge beats every cursor or
        // table alternative (0.3 < 0.8 < lg 2 = 1).
        for other in [MergeKernel::Heap, MergeKernel::Pairwise, MergeKernel::Hash] {
            assert!(t(MergeKernel::BrMerge, 100_000, 2) < t(other, 100_000, 2));
        }
        // Fan-in 3–5: brmerge's min-scan (≤ 4 · 0.3 = 1.2) still edges
        // out the fan-in independent spadd (1.2 + setup) and the heap.
        for ways in [3usize, 4, 5] {
            assert!(t(MergeKernel::BrMerge, 100_000, ways) < t(MergeKernel::SpAdd, 100_000, ways));
            assert!(t(MergeKernel::BrMerge, 100_000, ways) < t(MergeKernel::Heap, 100_000, ways));
        }
        // Fan-in ≥ 6 with enough elements: spadd wins (lg k > 1.2, and
        // 5 · 0.3 > 1.2); it also dominates its hash baseline everywhere.
        assert!(t(MergeKernel::SpAdd, 100_000, 6) < t(MergeKernel::Heap, 100_000, 6));
        assert!(t(MergeKernel::SpAdd, 100_000, 6) < t(MergeKernel::BrMerge, 100_000, 6));
        assert!(t(MergeKernel::SpAdd, 100_000, 16) < t(MergeKernel::Heap, 100_000, 16));
        assert!(t(MergeKernel::SpAdd, 100_000, 16) < t(MergeKernel::Hash, 100_000, 16));
        // ...but a tiny merge cannot amortize either setup cost.
        assert!(t(MergeKernel::Heap, 100, 8) < t(MergeKernel::Hash, 100, 8));
        assert!(t(MergeKernel::Heap, 100, 8) < t(MergeKernel::SpAdd, 100, 8));
        // Legacy baselines stay strictly dominated in their own regimes.
        assert!(t(MergeKernel::BrMerge, 100_000, 2) < t(MergeKernel::Pairwise, 100_000, 2));
        assert!(t(MergeKernel::SpAdd, 100_000, 8) < t(MergeKernel::Hash, 100_000, 8));
        // Back-compat: merge_time is the whole-node heap path.
        assert_eq!(
            m.merge_time(5000, 7),
            m.merge_time_with(MergeKernel::Heap, 5000, 7)
        );
    }

    #[test]
    fn socket_merge_is_slower_than_whole_node_merge() {
        let m = MachineModel::summit();
        assert_eq!(m.sockets, 2);
        let node = m.merge_time_with(MergeKernel::Heap, 1 << 20, 4);
        let socket = m.socket_merge_time_with(MergeKernel::Heap, 1 << 20, 4);
        assert!(socket > node, "half the cores must merge slower");
        // Better per-thread efficiency on one socket: less than 2x slower.
        assert!(socket < 2.0 * node, "socket {socket} vs node {node}");
    }

    #[test]
    fn merge_lane_time_prices_remote_inputs_and_lane_count() {
        let m = MachineModel::summit();
        let t = |remote, lanes| m.merge_lane_time_with(MergeKernel::Heap, 80_000, 4, remote, lanes);
        // No remote inputs on a multi-lane node: exactly the socket rate.
        assert_eq!(
            t(0, 2),
            m.socket_merge_time_with(MergeKernel::Heap, 80_000, 4)
        );
        // All inputs remote: scaled by 1 + xsocket_penalty.
        let ratio = t(80_000, 2) / t(0, 2);
        assert!((ratio - (1.0 + m.xsocket_penalty)).abs() < 1e-12);
        // Half remote: half the penalty.
        let half = t(40_000, 2) / t(0, 2);
        assert!((half - (1.0 + 0.5 * m.xsocket_penalty)).abs() < 1e-12);
        // A single-lane node merges at the whole-node rate.
        assert_eq!(t(0, 1), m.merge_time_with(MergeKernel::Heap, 80_000, 4));
        // Degenerate empty merge stays finite.
        assert!(m
            .merge_lane_time_with(MergeKernel::Heap, 0, 2, 0, 2)
            .is_finite());
    }

    #[test]
    fn multirank_pins_ranks_to_one_socket() {
        assert_eq!(MachineModel::summit_ranks_per_node(2).sockets, 1);
        assert_eq!(MachineModel::summit_ranks_per_node(4).sockets, 1);
        assert_eq!(MachineModel::summit().sockets, 2);
    }

    #[test]
    fn merge_kernel_names() {
        assert_eq!(MergeKernel::Heap.name(), "heap");
        assert_eq!(MergeKernel::Pairwise.name(), "pairwise");
        assert_eq!(MergeKernel::Hash.name(), "hash");
        assert_eq!(MergeKernel::BrMerge.name(), "brmerge");
        assert_eq!(MergeKernel::SpAdd.name(), "spadd");
        assert_eq!(MergeKernel::all().len(), 5);
    }

    #[test]
    fn kernel_names() {
        assert_eq!(SpgemmKernel::CpuHash.name(), "cpu-hash");
        assert_eq!(SpgemmKernel::Gpu(GpuLib::Nsparse).name(), "nsparse");
    }

    #[test]
    #[should_panic(expected = "GPU kernel")]
    fn cpu_rate_rejects_gpu_kernel() {
        MachineModel::summit().cpu_spgemm_rate(SpgemmKernel::Gpu(GpuLib::Nsparse), 1.0);
    }
}
