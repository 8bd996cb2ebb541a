//! In-memory spans around the calls into each layer.
//!
//! The benchmark opens a span around every public library call it drives
//! in a traced operation; library spans that an enabled `Recorder`
//! already collects (encode, SBP and solve phases inside the session) are
//! imported beneath the benchmark span that encloses them. Spans are
//! written out once, when the run ends, together with each layer's self
//! time (a span's duration minus the time its direct children cover) and
//! that self time's share of all self time.

use crate::json;
use sbgc_obs::Recorder;
use std::collections::BTreeMap;
use std::time::Instant;

/// One finished (or still open) span. Times are seconds since the
/// trace's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer name, e.g. `graph`, `session.build`, `encode`.
    pub name: &'static str,
    /// The operation the span belongs to.
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, seconds since the epoch.
    pub start: f64,
    /// End, seconds since the epoch.
    pub end: f64,
}

impl Span {
    /// Wall-clock seconds the span covers.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// A span store with a stack of open spans.
#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Trace {
    /// An empty trace whose epoch is now.
    pub fn new() -> Self {
        Trace { epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Opens a span under the innermost open one and returns its id.
    pub fn begin(&mut self, name: &'static str, op: u64) -> usize {
        let start = self.now();
        let id = self.spans.len();
        self.spans.push(Span { name, op, parent: self.open.last().copied(), start, end: start });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn end(&mut self, id: usize) {
        let end = self.now();
        assert_eq!(self.open.pop(), Some(id), "spans close in LIFO order");
        self.spans[id].end = end;
    }

    /// Renames a span, for layers whose name depends on the outcome (a
    /// ladder query is `session.sat` or `session.unsat`).
    pub fn rename(&mut self, id: usize, name: &'static str) {
        self.spans[id].name = name;
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, op);
        let out = f();
        self.end(id);
        out
    }

    /// Seconds covered by span `id`.
    pub fn duration(&self, id: usize) -> f64 {
        self.spans[id].duration()
    }

    /// Imports the spans `recorder` collected during operation `op`.
    /// `recorder_epoch` is an instant taken right after the recorder was
    /// created (its own epoch is private). Each library span becomes a
    /// child of the innermost benchmark span of `op` that contains its
    /// midpoint — the midpoint, because the two epochs differ by the
    /// nanoseconds between creating the recorder and reading the clock.
    pub fn import(&mut self, recorder: &Recorder, recorder_epoch: Instant, op: u64) {
        let offset = recorder_epoch.duration_since(self.epoch).as_secs_f64();
        let existing = self.spans.len();
        for record in recorder.spans() {
            let start = offset + record.start.as_secs_f64();
            let end = start + record.duration.as_secs_f64();
            let mid = (start + end) / 2.0;
            let parent = (0..existing)
                .rev()
                .find(|&i| {
                    let s = &self.spans[i];
                    s.op == op && s.start <= mid && mid <= s.end
                })
                .or_else(|| self.open.last().copied());
            self.spans.push(Span { name: record.phase.name(), op, parent, start, end });
        }
    }

    /// Total seconds of the spans of `op` named `name`.
    pub fn total(&self, op: u64, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.op == op && s.name == name).map(Span::duration).sum()
    }

    /// Self time per layer name, summed over all spans.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child_time = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.duration();
            }
        }
        let mut out = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_time) {
            *out.entry(s.name).or_insert(0.0) += s.duration() - children;
        }
        out
    }

    /// The spans, and per-layer self times with their shares, as a JSON
    /// document.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let spans: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"id\": {id}, \"name\": {}, \"op\": {}, \"parent\": {parent}, \"start_s\": {}, \"end_s\": {}}}",
                    json::string(s.name),
                    s.op,
                    json::number(s.start),
                    json::number(s.end)
                )
            })
            .collect();
        let self_times = self.self_times();
        let total: f64 = self_times.values().sum();
        let map = |value: &dyn Fn(f64) -> f64| -> String {
            let entries: Vec<String> = self_times
                .iter()
                .map(|(name, secs)| {
                    format!("{}: {}", json::string(name), json::number(value(*secs)))
                })
                .collect();
            entries.join(", ")
        };
        format!(
            "{{\"workload\": {}, \"seed\": {seed}, \"self_time_s\": {{{}}},\n\
             \"self_time_share\": {{{}}},\n\"spans\": [\n{}\n]}}\n",
            json::string(workload),
            map(&|secs| secs),
            map(&|secs| crate::stats::ratio(secs, total)),
            spans.join(",\n")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbgc_obs::Phase;

    fn span(name: &'static str, parent: Option<usize>, start: f64, end: f64) -> Span {
        Span { name, op: 0, parent, start, end }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Trace::new();
        t.spans = vec![
            span("op", None, 0.0, 10.0),
            span("session.build", Some(0), 1.0, 4.0),
            span("encode", Some(1), 1.0, 2.0),
            span("session.unsat", Some(0), 4.0, 9.0),
        ];
        let st = t.self_times();
        assert_eq!(st["op"], 2.0);
        assert_eq!(st["session.build"], 2.0);
        assert_eq!(st["encode"], 1.0);
        assert_eq!(st["session.unsat"], 5.0);
        assert_eq!(t.total(0, "session.build"), 3.0);
    }

    #[test]
    fn nested_spans_record_parents_and_close_in_order() {
        let mut t = Trace::new();
        let op = t.begin("op", 3);
        assert_eq!(t.span("graph", 3, || 7), 7);
        t.end(op);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[1].op, 3);
        assert!(t.duration(op) >= t.spans[1].duration());
    }

    #[test]
    fn recorder_spans_land_under_the_enclosing_benchmark_span() {
        let mut t = Trace::new();
        let recorder = Recorder::new();
        let recorder_epoch = Instant::now();
        let op = t.begin("op", 1);
        let build = t.begin("session.build", 1);
        let pause = || std::thread::sleep(std::time::Duration::from_millis(2));
        pause();
        {
            let _encode = recorder.span(Phase::Encode);
            pause();
        }
        pause();
        t.end(build);
        t.end(op);
        t.import(&recorder, recorder_epoch, 1);
        let encode = t.spans.iter().find(|s| s.name == "encode").expect("imported");
        assert_eq!(encode.parent, Some(build));
        assert_eq!(encode.op, 1);
    }

    #[test]
    fn json_names_every_span() {
        let mut t = Trace::new();
        t.span("graph", 0, || std::thread::sleep(std::time::Duration::from_millis(1)));
        let doc = t.to_json("ladder-seq", 4);
        assert!(doc.contains("\"name\": \"graph\""));
        assert!(doc.contains("\"self_time_s\": {\"graph\": "));
        assert!(doc.contains("\"self_time_share\": {\"graph\": 1}"));
        assert!(doc.contains("\"seed\": 4"));
    }
}
