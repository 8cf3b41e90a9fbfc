//! Wall-clock spans recorded around calls into each layer.
//!
//! Spans live in memory while the benchmark runs and are written once at
//! the end, each with its parent and its self time (its duration minus
//! the part its children cover). A disabled tracer records nothing, so
//! the untraced and traced runs execute the same code.

use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Layer boundary name (`worldgen.build`, `stage.campaign`, `run.table4`, ...).
    pub name: String,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

impl SpanRecord {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<SpanRecord>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder; `on = false` makes every call a no-op.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Switch recording on or off between batches.
    pub fn set_on(&mut self, on: bool) {
        assert!(self.open.is_empty(), "toggled inside an open span");
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span nested in the innermost open one.
    pub fn begin(&mut self, name: &str) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(SpanRecord {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let i = self.open.pop().expect("end() without begin()");
        self.spans[i].end_ns = self.now_ns();
    }

    /// Number of spans recorded so far (a mark for [`Tracer::totals_since`]).
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether no span has been recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Seconds spent in each span name over the spans recorded since
    /// `mark`, summed across repeats of the name.
    pub fn totals_since(&self, mark: usize) -> BTreeMap<String, f64> {
        let mut totals = BTreeMap::new();
        for s in &self.spans[mark..] {
            *totals.entry(s.name.clone()).or_insert(0.0) += s.duration_ns() as f64 / 1e9;
        }
        totals
    }

    /// Self time of span `i`: its duration minus its direct children's.
    pub fn self_ns(&self, i: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(i))
            .map(SpanRecord::duration_ns)
            .sum();
        self.spans[i].duration_ns().saturating_sub(children)
    }

    /// Every span with its parent and self time.
    pub fn to_json(&self) -> Value {
        Value::Array(
            self.spans
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    json!({
                        "id": i,
                        "name": s.name,
                        "parent": s.parent,
                        "start_ns": s.start_ns,
                        "end_ns": s.end_ns,
                        "self_ns": self.self_ns(i),
                    })
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin() {
        let t = Instant::now();
        while t.elapsed().as_micros() < 200 {}
    }

    #[test]
    fn nesting_and_self_time() {
        let mut t = Tracer::new(true);
        t.begin("outer");
        spin();
        t.begin("inner");
        spin();
        t.end();
        t.end();
        assert_eq!(t.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        let outer = t.spans[0].duration_ns();
        let inner = t.spans[1].duration_ns();
        assert_eq!(t.self_ns(0), outer - inner);
        assert_eq!(t.self_ns(1), inner);
        let totals = t.totals_since(0);
        assert!(totals["outer"] >= totals["inner"]);
        assert_eq!(t.to_json().as_array().map(<[Value]>::len), Some(2));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.begin("x");
        t.end();
        assert!(t.is_empty());
    }
}
