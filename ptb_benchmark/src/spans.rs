//! Benchmark-level spans for the traced run.
//!
//! Spans are recorded only around calls the benchmark itself makes into
//! the program's public API (nothing is traced inside the program). Each
//! has a name, start, duration and the span that enclosed it; they stay
//! in memory until the run ends, then go out as Chrome-trace JSON
//! (viewable in Perfetto) and as a self-time table. With tracing off,
//! [`Tracer::begin`] and [`Tracer::end`] do nothing.

use serde::{Map, Value};
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Static span name (`layer.call`).
    pub name: &'static str,
    /// Unique id: thread index in the high bits, sequence in the low.
    pub id: u64,
    /// Enclosing span's id, 0 for a root.
    pub parent: u64,
    /// Recording thread index.
    pub tid: u64,
    /// Start, ns since the run's origin.
    pub start_ns: u64,
    /// Duration, ns.
    pub dur_ns: u64,
}

/// Per-thread span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    tid: u64,
    seq: u64,
    open: Vec<(&'static str, u64, u64, Instant)>,
    /// Closed spans, in closing order.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A recorder for thread `tid`; records nothing unless `on`.
    pub fn new(on: bool, origin: Instant, tid: u64) -> Self {
        Tracer {
            on,
            origin,
            tid,
            seq: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// A recorder for another thread of the same run.
    pub fn fork(&self, tid: u64) -> Self {
        Tracer::new(self.on, self.origin, tid)
    }

    /// Open a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        self.seq += 1;
        let id = (self.tid << 40) | self.seq;
        let parent = self.open.last().map_or(0, |s| s.1);
        self.open.push((name, id, parent, Instant::now()));
    }

    /// Close the innermost open span.
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let Some((name, id, parent, start)) = self.open.pop() else {
            return;
        };
        let now = Instant::now();
        self.spans.push(Span {
            name,
            id,
            parent,
            tid: self.tid,
            start_ns: start.duration_since(self.origin).as_nanos() as u64,
            dur_ns: now.duration_since(start).as_nanos() as u64,
        });
    }

    /// Take over another thread's closed spans.
    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }
}

/// Chrome trace-event JSON (`ph: "X"` complete events, µs timestamps);
/// each event carries its span id and parent id in `args`.
pub fn chrome_trace(spans: &[Span]) -> String {
    let events = spans
        .iter()
        .map(|s| {
            let mut args = Map::new();
            args.insert("id".into(), Value::U64(s.id));
            args.insert("parent".into(), Value::U64(s.parent));
            let mut e = Map::new();
            e.insert("name".into(), Value::Str(s.name.into()));
            e.insert(
                "cat".into(),
                Value::Str(s.name.split('.').next().unwrap_or(s.name).into()),
            );
            e.insert("ph".into(), Value::Str("X".into()));
            e.insert("ts".into(), Value::F64(s.start_ns as f64 / 1e3));
            e.insert("dur".into(), Value::F64(s.dur_ns as f64 / 1e3));
            e.insert("pid".into(), Value::U64(1));
            e.insert("tid".into(), Value::U64(s.tid));
            e.insert("args".into(), Value::Object(args));
            Value::Object(e)
        })
        .collect();
    let mut root = Map::new();
    root.insert("traceEvents".into(), Value::Array(events));
    root.insert("displayTimeUnit".into(), Value::Str("ms".into()));
    serde::json::to_string(&Value::Object(root))
}

/// Per span name: `(count, total ns, self ns)`, where a span's self time
/// is its duration minus the durations of its direct children.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.dur_ns;
    }
    let mut table: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let row = table.entry(s.name).or_default();
        row.0 += 1;
        row.1 += s.dur_ns;
        row.2 += s
            .dur_ns
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u64, parent: u64, start: u64, dur: u64) -> Span {
        Span {
            name,
            id,
            parent,
            tid: 0,
            start_ns: start,
            dur_ns: dur,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("workload", 1, 0, 0, 100),
            span("pass", 2, 1, 0, 60),
            span("core.run_spec", 3, 2, 0, 50),
        ];
        let t = self_times(&spans);
        assert_eq!(t["workload"], (1, 100, 40));
        assert_eq!(t["pass"], (1, 60, 10));
        assert_eq!(t["core.run_spec"], (1, 50, 50));
    }

    #[test]
    fn nesting_sets_parent_ids_and_off_records_nothing() {
        let origin = Instant::now();
        let mut on = Tracer::new(true, origin, 1);
        on.begin("outer");
        on.end();
        on.begin("a");
        on.begin("b");
        on.end();
        on.end();
        let b = on.spans.iter().find(|s| s.name == "b").unwrap();
        let a = on.spans.iter().find(|s| s.name == "a").unwrap();
        assert_eq!(b.parent, a.id);
        assert_eq!(a.parent, 0);
        let mut off = Tracer::new(false, origin, 1);
        off.begin("outer");
        off.end();
        assert!(off.spans.is_empty());
        let json = chrome_trace(&on.spans);
        assert!(json.contains("\"traceEvents\""));
    }
}
