//! Per-rank virtual clocks, asynchronous-resource timelines, and
//! communication statistics.
//!
//! The reproduction separates *what happens* (real data movement, real
//! kernels — correctness) from *how long it takes on Summit* (the virtual
//! clock). Each rank advances its own [`RankClock`]: compute sections add
//! modeled kernel durations, message receipt synchronizes with the
//! sender's clock plus the α–β transfer cost. The per-stage timers
//! ([`StageTimers`]) that feed every paper table accumulate out of these
//! clocks.
//!
//! Asynchronous resources — GPU kernel queues, copy engines, the per-socket
//! merge lanes — are modeled by the [`Timeline`]/[`Event`] pair: a
//! FIFO queue in virtual time whose gaps between jobs are the idle times
//! Table V reports. Whoever holds a returned [`Event`] decides what to
//! overlap against it; the timeline itself never blocks anyone.

/// How a rank experiences time. Orthogonal to the transport
/// ([`crate::transport::TransportKind`]): any transport composes with
/// either model.
///
/// The *modeled* clock is always maintained and always authoritative for
/// scheduling (`Comm::now`, timeline submission, collective charging) —
/// that is what keeps results bit-identical and runs reproducible across
/// transports. `Measured` does not replace it; it *additionally* samples
/// the monotonic wall clock around communication and kernel sections, so
/// a single run reports modeled and measured durations side by side.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TimeModel {
    /// Charge α–β and kernel-model durations on the virtual clock only
    /// (the default; fully deterministic).
    #[default]
    Modeled,
    /// Also read the monotonic wall clock: comm waits and kernel
    /// launches record measured seconds next to their modeled ones.
    Measured,
}

impl TimeModel {
    /// Parses `HIPMCL_TIME`-style names.
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "" | "modeled" | "model" | "virtual" => Some(Self::Modeled),
            "measured" | "wall" | "real" => Some(Self::Measured),
            _ => None,
        }
    }

    /// Canonical name (the one `parse` round-trips).
    pub fn name(self) -> &'static str {
        match self {
            Self::Modeled => "modeled",
            Self::Measured => "measured",
        }
    }

    /// `true` under [`TimeModel::Measured`].
    #[inline]
    pub fn is_measured(self) -> bool {
        self == Self::Measured
    }
}

impl std::fmt::Display for TimeModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A rank's clock pair: the virtual clock, in seconds of modeled machine
/// time, plus, under [`TimeModel::Measured`], a monotonic wall-clock
/// origin.
#[derive(Clone, Copy, Debug)]
pub struct RankClock {
    time: TimeModel,
    now: f64,
    origin: std::time::Instant,
}

impl RankClock {
    /// A fresh clock pair at virtual zero / wall now.
    pub fn new(time: TimeModel) -> Self {
        Self {
            time,
            now: 0.0,
            origin: std::time::Instant::now(),
        }
    }

    /// Current *modeled* time — authoritative for all scheduling.
    #[inline]
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Advances the modeled clock by `dt` seconds (compute or transfer
    /// cost).
    #[inline]
    pub fn advance(&mut self, dt: f64) {
        debug_assert!(dt >= 0.0, "negative duration {dt}");
        self.now += dt;
    }

    /// Waits until `t` on the modeled clock: jumps forward if `t` is in
    /// the future, otherwise no-op. Returns the idle time spent waiting
    /// (0 if none) — the quantity Table V reports for CPUs and GPUs.
    #[inline]
    pub fn wait_until(&mut self, t: f64) -> f64 {
        if t > self.now {
            let idle = t - self.now;
            self.now = t;
            idle
        } else {
            0.0
        }
    }

    /// Wall seconds since this rank started, or `0.0` under
    /// [`TimeModel::Modeled`] (so Modeled runs never read the host
    /// clock and stay bit-for-bit reproducible in their instrumentation
    /// too).
    #[inline]
    pub fn measured_now(&self) -> f64 {
        if self.time.is_measured() {
            self.origin.elapsed().as_secs_f64()
        } else {
            0.0
        }
    }

    /// Resets modeled time to zero and re-anchors the wall origin.
    pub fn reset(&mut self) {
        self.now = 0.0;
        self.origin = std::time::Instant::now();
    }
}

/// Completion event of an asynchronous operation on some timeline —
/// a GPU kernel, a D2H transfer, a CPU worker-pool job. Purely a virtual
/// timestamp; whoever holds the event decides what to overlap against it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Event {
    /// Virtual time at which the operation completes.
    pub at: f64,
}

/// A FIFO resource timeline: jobs occupy the resource one at a time, each
/// starting no earlier than both its `ready` time and the end of the
/// previous job. This is the shared backbone of every asynchronous
/// executor in the pipeline — GPU kernel queues, copy engines, and the
/// per-socket merge lanes all advance one of these — so idle-time
/// accounting (Table V) reads identically off any of them.
///
/// ```
/// use hipmcl_comm::Timeline;
///
/// let mut t = Timeline::new();
/// let first = t.enqueue(0.0, 2.0); // ready at 0, takes 2s
/// assert_eq!(first.at, 2.0);
/// // Ready before the first job ends: queues FIFO, no gap.
/// assert_eq!(t.enqueue(1.0, 1.0).at, 3.0);
/// // Ready 2s after the queue drained: the gap is idle time.
/// let third = t.enqueue(5.0, 1.0);
/// assert_eq!(third.at, 6.0);
/// assert_eq!(t.idle_time(), 2.0);
/// assert_eq!(t.busy_until(), 6.0);
/// assert_eq!(t.jobs(), 3);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Timeline {
    /// The resource is busy until this time.
    busy_until: f64,
    /// Accumulated gaps between consecutive jobs.
    idle: f64,
    /// End of the last job (to measure the next gap).
    last_end: f64,
    /// Jobs enqueued so far.
    jobs: usize,
}

impl Timeline {
    /// A timeline with nothing queued.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues a job of duration `dur` that may start at `ready`; returns
    /// its completion event. The gap (if any) between the previous job's
    /// end and this job's start counts as idle time — except before the
    /// first job, which mirrors how Table V measures idleness *within* a
    /// pipeline section rather than from time zero.
    pub fn enqueue(&mut self, ready: f64, dur: f64) -> Event {
        debug_assert!(dur >= 0.0, "negative job duration {dur}");
        let start = ready.max(self.busy_until);
        if self.jobs > 0 {
            self.idle += (start - self.last_end).max(0.0);
        }
        let end = start + dur;
        self.busy_until = end;
        self.last_end = end;
        self.jobs += 1;
        Event { at: end }
    }

    /// Time at which everything queued so far has finished.
    pub fn busy_until(&self) -> f64 {
        self.busy_until
    }

    /// Accumulated gaps between jobs.
    pub fn idle_time(&self) -> f64 {
        self.idle
    }

    /// Number of jobs enqueued.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Resets to an empty timeline (between pipeline sections).
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

/// Message and byte counters for one rank, plus the modeled-vs-measured
/// receive-wait rollup.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CommStats {
    /// Point-to-point messages sent.
    pub msgs_sent: usize,
    /// Bytes sent (modeled wire bytes).
    pub bytes_sent: u64,
    /// Messages received.
    pub msgs_recv: usize,
    /// Bytes received.
    pub bytes_recv: u64,
    /// Modeled seconds this rank's clock jumped forward waiting in
    /// `recv` (the α–β arrival charge). Accumulated under both time
    /// models.
    pub modeled_comm_s: f64,
    /// Wall seconds spent blocked in `recv` (matching + transfer +
    /// decode). Only accumulated under [`TimeModel::Measured`]; exactly
    /// `0.0` under Modeled.
    pub measured_comm_s: f64,
}

impl CommStats {
    /// Accumulates another rank's stats (for whole-job reporting).
    pub fn merge(&mut self, other: &CommStats) {
        self.msgs_sent += other.msgs_sent;
        self.bytes_sent += other.bytes_sent;
        self.msgs_recv += other.msgs_recv;
        self.bytes_recv += other.bytes_recv;
        self.modeled_comm_s += other.modeled_comm_s;
        self.measured_comm_s += other.measured_comm_s;
    }

    /// The counter delta `self − earlier` (for per-section rollups:
    /// snapshot before, subtract after).
    pub fn delta_since(&self, earlier: &CommStats) -> CommStats {
        CommStats {
            msgs_sent: self.msgs_sent - earlier.msgs_sent,
            bytes_sent: self.bytes_sent - earlier.bytes_sent,
            msgs_recv: self.msgs_recv - earlier.msgs_recv,
            bytes_recv: self.bytes_recv - earlier.bytes_recv,
            modeled_comm_s: self.modeled_comm_s - earlier.modeled_comm_s,
            measured_comm_s: self.measured_comm_s - earlier.measured_comm_s,
        }
    }
}

/// Named per-stage virtual-time buckets, mirroring the stage breakdown of
/// the paper's Fig. 1/5/8 (local SpGEMM, memory estimation, SUMMA
/// broadcast, merging, pruning, other).
#[derive(Clone, Debug, Default)]
pub struct StageTimers {
    entries: Vec<(String, f64)>,
}

impl StageTimers {
    /// Empty timer set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `dt` seconds to stage `name`.
    pub fn add(&mut self, name: &str, dt: f64) {
        debug_assert!(dt >= 0.0, "negative stage time {dt} for {name}");
        if let Some(e) = self.entries.iter_mut().find(|(n, _)| n == name) {
            e.1 += dt;
        } else {
            self.entries.push((name.to_string(), dt));
        }
    }

    /// Time recorded for `name` (0 if absent).
    pub fn get(&self, name: &str) -> f64 {
        self.entries
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, t)| *t)
    }

    /// All stages in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.entries.iter().map(|(n, t)| (n.as_str(), *t))
    }

    /// Sum over all stages.
    pub fn total(&self) -> f64 {
        self.entries.iter().map(|(_, t)| t).sum()
    }
}

use hipmcl_sparse::wire::{WireDecode, WireEncode, WireError, WireReader};

impl crate::packet::WireSize for CommStats {
    fn wire_bytes(&self) -> usize {
        48 // six 8-byte words
    }
}

impl crate::packet::WireSize for StageTimers {
    fn wire_bytes(&self) -> usize {
        8 + self
            .entries
            .iter()
            .map(|(n, _)| 8 + n.len() + 8)
            .sum::<usize>()
    }
}

impl WireEncode for CommStats {
    fn encode(&self, out: &mut Vec<u8>) {
        self.msgs_sent.encode(out);
        self.bytes_sent.encode(out);
        self.msgs_recv.encode(out);
        self.bytes_recv.encode(out);
        self.modeled_comm_s.encode(out);
        self.measured_comm_s.encode(out);
    }
}

impl WireDecode for CommStats {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(CommStats {
            msgs_sent: usize::decode(r)?,
            bytes_sent: u64::decode(r)?,
            msgs_recv: usize::decode(r)?,
            bytes_recv: u64::decode(r)?,
            modeled_comm_s: f64::decode(r)?,
            measured_comm_s: f64::decode(r)?,
        })
    }
}

impl WireEncode for StageTimers {
    fn encode(&self, out: &mut Vec<u8>) {
        self.entries.encode(out);
    }
}

impl WireDecode for StageTimers {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(StageTimers {
            entries: Vec::<(String, f64)>::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeline_queues_fifo_and_tracks_idle() {
        let mut t = Timeline::new();
        let e1 = t.enqueue(0.0, 1.0);
        assert_eq!(e1.at, 1.0);
        // Ready before the previous job ends: queues behind it, no gap.
        let e2 = t.enqueue(0.5, 2.0);
        assert_eq!(e2.at, 3.0);
        assert_eq!(t.idle_time(), 0.0);
        // Ready after a gap: the gap is idle.
        let e3 = t.enqueue(5.0, 1.0);
        assert_eq!(e3.at, 6.0);
        assert!((t.idle_time() - 2.0).abs() < 1e-12);
        assert_eq!(t.jobs(), 3);
        assert_eq!(t.busy_until(), 6.0);
    }

    #[test]
    fn timeline_leading_gap_is_not_idle() {
        let mut t = Timeline::new();
        t.enqueue(10.0, 1.0);
        assert_eq!(t.idle_time(), 0.0, "time before the first job is not idle");
    }

    #[test]
    fn timeline_reset() {
        let mut t = Timeline::new();
        t.enqueue(0.0, 1.0);
        t.enqueue(3.0, 1.0);
        t.reset();
        assert_eq!(t.busy_until(), 0.0);
        assert_eq!(t.idle_time(), 0.0);
        assert_eq!(t.jobs(), 0);
    }

    #[test]
    fn clock_advances_and_waits() {
        let mut c = RankClock::new(TimeModel::Modeled);
        c.advance(1.5);
        assert_eq!(c.now(), 1.5);
        let idle = c.wait_until(2.0);
        assert_eq!(idle, 0.5);
        assert_eq!(c.now(), 2.0);
        assert_eq!(c.wait_until(1.0), 0.0, "past deadlines are free");
        assert_eq!(c.now(), 2.0);
    }

    #[test]
    fn clock_reset() {
        let mut c = RankClock::new(TimeModel::Modeled);
        c.advance(3.0);
        c.reset();
        assert_eq!(c.now(), 0.0);
    }

    #[test]
    fn stats_merge() {
        let mut a = CommStats {
            msgs_sent: 1,
            bytes_sent: 10,
            msgs_recv: 2,
            bytes_recv: 20,
            modeled_comm_s: 0.5,
            measured_comm_s: 0.0,
        };
        let b = CommStats {
            msgs_sent: 3,
            bytes_sent: 30,
            msgs_recv: 4,
            bytes_recv: 40,
            modeled_comm_s: 1.5,
            measured_comm_s: 0.25,
        };
        a.merge(&b);
        assert_eq!(a.msgs_sent, 4);
        assert_eq!(a.bytes_recv, 60);
        assert_eq!(a.modeled_comm_s, 2.0);
        let d = a.delta_since(&b);
        assert_eq!(d.msgs_sent, 1);
        assert_eq!(d.bytes_sent, 10);
        assert_eq!(d.modeled_comm_s, 0.5);
    }

    #[test]
    fn time_model_parse_and_default() {
        assert_eq!(TimeModel::parse("measured"), Some(TimeModel::Measured));
        assert_eq!(TimeModel::parse("wall"), Some(TimeModel::Measured));
        assert_eq!(TimeModel::parse("modeled"), Some(TimeModel::Modeled));
        assert_eq!(TimeModel::parse("bogus"), None);
        assert_eq!(TimeModel::default(), TimeModel::Modeled);
        assert!(!TimeModel::Modeled.is_measured());
    }

    #[test]
    fn rank_clock_modeled_never_reads_wall() {
        let mut c = RankClock::new(TimeModel::Modeled);
        c.advance(1.0);
        assert_eq!(c.now(), 1.0);
        assert_eq!(c.measured_now(), 0.0, "Modeled must not sample wall time");
        assert_eq!(c.wait_until(3.0), 2.0);
        c.reset();
        assert_eq!(c.now(), 0.0);
    }

    #[test]
    fn rank_clock_measured_tracks_wall_alongside_model() {
        let mut c = RankClock::new(TimeModel::Measured);
        c.advance(5.0);
        assert_eq!(c.now(), 5.0, "modeled clock stays authoritative");
        let w0 = c.measured_now();
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(c.measured_now() > w0, "wall clock advances on its own");
    }

    #[test]
    fn stage_timers_accumulate() {
        let mut t = StageTimers::new();
        t.add("spgemm", 1.0);
        t.add("spgemm", 2.0);
        t.add("merge", 0.5);
        assert_eq!(t.get("spgemm"), 3.0);
        assert_eq!(t.get("absent"), 0.0);
        assert_eq!(t.total(), 3.5);
    }
}
