//! In-memory spans recorded by the traced pass around each call into a
//! layer, and the arithmetic on them: self time, nesting, Chrome export.
//!
//! Spans are recorded by the benchmark's own stepwise MCL loop (spans
//! inside the program are a later change), kept in a `Vec` per rank,
//! shipped back in the rank's result vector and written out at exit.

use std::time::Instant;

/// Span names, indexed by [`Span::name`]. One per call site of the
/// stepwise loops in `launch.rs`; the crate owning the call is the prefix.
pub const NAMES: [&str; 12] = [
    "mcl.run",
    "core.prepare",
    "summa.expand",
    "summa.topk",
    "core.inflate_chaos",
    "core.rollup",
    "summa.components",
    "spgemm.multiply_auto",
    "sparse.prune",
    "sparse.inflate",
    "sparse.chaos",
    "sparse.components",
];

/// Index of `name` in [`NAMES`].
pub fn name_id(name: &str) -> usize {
    NAMES
        .iter()
        .position(|n| *n == name)
        .unwrap_or_else(|| panic!("unknown span name {name}"))
}

/// One timed interval on one rank.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Index into [`NAMES`].
    pub name: usize,
    /// MCL iteration (1-based; 0 for run-level spans).
    pub iter: u32,
    /// Seconds since the recorder's origin.
    pub t0: f64,
    pub t1: f64,
    /// Index of the enclosing span in the same rank's list.
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.t1 - self.t0
    }
}

/// Number of `f64` words one span occupies in a rank's result vector.
pub const WORDS: usize = 5;

/// Flattens spans for the trip back through `Universe::run_with`.
pub fn encode(spans: &[Span], out: &mut Vec<f64>) {
    for s in spans {
        out.extend([
            s.name as f64,
            f64::from(s.iter),
            s.t0,
            s.t1,
            s.parent.map_or(-1.0, |p| p as f64),
        ]);
    }
}

/// Inverse of [`encode`].
pub fn decode(words: &[f64]) -> Vec<Span> {
    words
        .chunks_exact(WORDS)
        .map(|w| Span {
            name: w[0] as usize,
            iter: w[1] as u32,
            t0: w[2],
            t1: w[3],
            parent: (w[4] >= 0.0).then_some(w[4] as usize),
        })
        .collect()
}

/// Append-only span log of one rank. `open`/`close` nest like a stack:
/// the innermost open span is the parent of the next one opened.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder whose clock starts now (call right after a barrier so
    /// the ranks' origins line up).
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &str, iter: usize) {
        let t = self.now();
        self.spans.push(Span {
            name: name_id(name),
            iter: iter as u32,
            t0: t,
            t1: t,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        let t = self.now();
        let i = self.open.pop().expect("close without a matching open");
        self.spans[i].t1 = t;
    }

    /// Times `f` as a span.
    pub fn span<R>(&mut self, name: &str, iter: usize, f: impl FnOnce() -> R) -> R {
        self.open(name, iter);
        let r = f();
        self.close();
        r
    }

    pub fn finish(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "span left open");
        self.spans
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

/// Seconds spent in spans called `name`.
pub fn total(spans: &[Span], name: &str) -> f64 {
    let id = name_id(name);
    spans
        .iter()
        .filter(|s| s.name == id)
        .map(Span::duration)
        .sum()
}

/// Self time of span `i`: its duration minus what its direct children
/// cover (`choosing-metrics` §4).
pub fn self_time(spans: &[Span], i: usize) -> f64 {
    let children: f64 = spans
        .iter()
        .filter(|s| s.parent == Some(i))
        .map(Span::duration)
        .sum();
    spans[i].duration() - children
}

/// Checks that every child lies inside its parent and that parents
/// precede children. Returns the first violation.
pub fn check_nesting(spans: &[Span]) -> Result<(), String> {
    for (i, s) in spans.iter().enumerate() {
        if s.t1 < s.t0 {
            return Err(format!(
                "span {i} ({}) ends before it starts",
                NAMES[s.name]
            ));
        }
        if let Some(p) = s.parent {
            if p >= i {
                return Err(format!("span {i} names a later span {p} as parent"));
            }
            let parent = &spans[p];
            if s.t0 < parent.t0 || s.t1 > parent.t1 {
                return Err(format!(
                    "span {i} ({}) [{}, {}] leaves its parent {p} ({}) [{}, {}]",
                    NAMES[s.name], s.t0, s.t1, NAMES[parent.name], parent.t0, parent.t1
                ));
            }
        }
    }
    Ok(())
}

/// Share of the root span (`mcl.run`) its direct children cover: 1 minus
/// this is time the trace cannot attribute to any layer.
pub fn root_cover_frac(spans: &[Span]) -> f64 {
    match spans.iter().position(|s| s.parent.is_none()) {
        Some(root) if spans[root].duration() > 0.0 => {
            1.0 - self_time(spans, root) / spans[root].duration()
        }
        _ => 0.0,
    }
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one process
/// per rank, complete (`"ph":"X"`) events in microseconds.
pub fn chrome_trace(per_rank: &[Vec<Span>]) -> String {
    let mut events = Vec::new();
    for (rank, spans) in per_rank.iter().enumerate() {
        events.push(format!(
            r#"{{"name":"process_name","ph":"M","pid":{rank},"tid":0,"args":{{"name":"rank {rank}"}}}}"#
        ));
        for s in spans {
            events.push(format!(
                r#"{{"name":"{}","cat":"{}","ph":"X","pid":{rank},"tid":0,"ts":{:.3},"dur":{:.3},"args":{{"iter":{}}}}}"#,
                NAMES[s.name],
                NAMES[s.name].split('.').next().unwrap_or(""),
                s.t0 * 1e6,
                s.duration() * 1e6,
                s.iter
            ));
        }
    }
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
        events.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &str, t0: f64, t1: f64, parent: Option<usize>) -> Span {
        Span {
            name: name_id(name),
            iter: 1,
            t0,
            t1,
            parent,
        }
    }

    fn fixture() -> Vec<Span> {
        vec![
            sp("mcl.run", 0.0, 10.0, None),
            sp("summa.expand", 1.0, 6.0, Some(0)),
            sp("summa.topk", 2.0, 3.0, Some(1)),
            sp("summa.topk", 4.0, 5.5, Some(1)),
            sp("core.inflate_chaos", 6.0, 9.0, Some(0)),
        ]
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let s = fixture();
        assert_eq!(self_time(&s, 1), 5.0 - 1.0 - 1.5);
        // The grandchildren (topk) do not count against the root.
        assert_eq!(self_time(&s, 0), 10.0 - 5.0 - 3.0);
        assert_eq!(self_time(&s, 2), 1.0);
        assert_eq!(total(&s, "summa.topk"), 2.5);
        assert!((root_cover_frac(&s) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn nesting_violations_are_reported() {
        assert_eq!(check_nesting(&fixture()), Ok(()));
        let mut s = fixture();
        s[3].t1 = 6.5; // child outlives summa.expand
        assert!(check_nesting(&s).unwrap_err().contains("leaves its parent"));
        let mut s = fixture();
        s[1].parent = Some(4);
        assert!(check_nesting(&s).unwrap_err().contains("later span"));
    }

    #[test]
    fn encode_decode_round_trips() {
        let s = fixture();
        let mut words = Vec::new();
        encode(&s, &mut words);
        assert_eq!(words.len(), s.len() * WORDS);
        assert_eq!(decode(&words), s);
    }

    #[test]
    fn recorder_nests_by_open_order() {
        let mut r = Recorder::new();
        r.open("mcl.run", 0);
        r.span("summa.expand", 1, || {});
        r.open("summa.expand", 2);
        r.span("summa.topk", 2, || {});
        r.close();
        r.close();
        let s = r.finish();
        assert_eq!(
            s.iter().map(|x| x.parent).collect::<Vec<_>>(),
            vec![None, Some(0), Some(0), Some(2)]
        );
        assert_eq!(check_nesting(&s), Ok(()));
    }

    #[test]
    fn chrome_trace_has_one_event_per_span_plus_process_names() {
        let out = chrome_trace(&[fixture(), fixture()]);
        assert_eq!(out.matches("\"ph\":\"X\"").count(), 10);
        assert_eq!(out.matches("\"ph\":\"M\"").count(), 2);
        assert!(out.contains(r#""name":"summa.topk","cat":"summa""#));
    }
}
