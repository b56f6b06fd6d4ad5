//! In-memory span recorder for the traced run.
//!
//! Every call the benchmark makes into a layer is wrapped in a span
//! (name `layer.operation`, start, end, parent, query id). Spans live in a
//! `Vec` until the run ends, then go to `trace_<workload>.jsonl`; the
//! self-time table (a span's duration minus what its children cover) is
//! printed per span name and per layer. The recorder is single-threaded by
//! construction: only the benchmark thread calls into layers.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// `parent` of a root span.
pub const NO_PARENT: u32 = u32::MAX;
/// `query` of a span that belongs to no query (set-up, batch work).
pub const NO_QUERY: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub query: u32,
}

pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder { origin: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under whatever span is open now.
    pub fn enter(&mut self, name: &'static str, query: u32) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, query });
        self.stack.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: u32) {
        let end_ns = self.now_ns();
        assert_eq!(self.stack.pop(), Some(id), "spans must close innermost-first");
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Run `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, query: u32, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, query);
        let out = f();
        self.exit(id);
        out
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write at most `cap` spans, one JSON object a line, oldest first.
    /// Returns how many were written.
    pub fn write_jsonl(&self, out: &mut impl Write, cap: usize) -> std::io::Result<usize> {
        let n = self.spans.len().min(cap);
        for (id, s) in self.spans[..n].iter().enumerate() {
            let parent =
                if s.parent == NO_PARENT { "null".to_string() } else { s.parent.to_string() };
            let query = if s.query == NO_QUERY { "null".to_string() } else { s.query.to_string() };
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"query\":{query}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()?;
        Ok(n)
    }
}

/// What the benchmark threads through every call into a layer: times the
/// call, and in the traced run also records its span. The untraced run
/// pays one predictable branch per call.
pub struct Tracer {
    rec: Option<Recorder>,
}

impl Tracer {
    pub fn off() -> Tracer {
        Tracer { rec: None }
    }

    pub fn on() -> Tracer {
        Tracer { rec: Some(Recorder::new()) }
    }

    pub fn recorder(&self) -> Option<&Recorder> {
        self.rec.as_ref()
    }

    /// Open a span by hand (for a parent that encloses several calls);
    /// close it with [`Self::exit`].
    pub fn enter(&mut self, name: &'static str, query: u32) -> Option<u32> {
        self.rec.as_mut().map(|r| r.enter(name, query))
    }

    pub fn exit(&mut self, id: Option<u32>) {
        if let (Some(r), Some(id)) = (self.rec.as_mut(), id) {
            r.exit(id);
        }
    }

    /// Run `f` as one call into a layer.
    #[inline]
    pub fn call<T>(&mut self, name: &'static str, query: u32, f: impl FnOnce() -> T) -> T {
        match &mut self.rec {
            Some(r) => r.span(name, query, f),
            None => f(),
        }
    }

    /// [`Self::call`], also returning the call's wall time in nanoseconds.
    #[inline]
    pub fn timed<T>(&mut self, name: &'static str, query: u32, f: impl FnOnce() -> T) -> (T, u64) {
        let start = Instant::now();
        let out = self.call(name, query, f);
        (out, start.elapsed().as_nanos() as u64)
    }
}

/// Per-name totals of a span set.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Self time of every span: its duration minus the part of it that its
/// direct children cover. Children of one parent never overlap (one
/// thread, stack discipline), so the covered part is the sum of their
/// durations, clipped to the parent's own interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            let p = &spans[s.parent as usize];
            let start = s.start_ns.max(p.start_ns);
            let end = s.end_ns.min(p.end_ns);
            covered[s.parent as usize] += end.saturating_sub(start);
        }
    }
    spans.iter().zip(&covered).map(|(s, &c)| (s.end_ns - s.start_ns).saturating_sub(c)).collect()
}

/// Totals per span name, and per layer (the name's prefix up to the
/// first `.`), both sorted by name.
pub fn totals(
    spans: &[Span],
) -> (BTreeMap<&'static str, NameTotals>, BTreeMap<String, NameTotals>) {
    let selfs = self_times(spans);
    let mut by_name: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    let mut by_layer: BTreeMap<String, NameTotals> = BTreeMap::new();
    for (s, &self_ns) in spans.iter().zip(&selfs) {
        let dur = s.end_ns - s.start_ns;
        let layer = s.name.split('.').next().unwrap_or(s.name).to_string();
        for t in [by_name.entry(s.name).or_default(), by_layer.entry(layer).or_default()] {
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += self_ns;
        }
    }
    (by_name, by_layer)
}

/// The self-time table of a traced run, ready to print.
pub fn render_table(spans: &[Span]) -> String {
    let (by_name, by_layer) = totals(spans);
    let mut out = String::new();
    out.push_str(&format!(
        "{:<34} {:>9} {:>13} {:>13} {:>11}\n",
        "span", "count", "total_ms", "self_ms", "self_ns/call"
    ));
    for (name, t) in &by_name {
        out.push_str(&format!(
            "{:<34} {:>9} {:>13.3} {:>13.3} {:>11.0}\n",
            name,
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6,
            t.self_ns as f64 / t.count.max(1) as f64
        ));
    }
    out.push_str(&format!("{:<34} {:>9} {:>13} {:>13}\n", "layer", "spans", "", "self_ms"));
    for (layer, t) in &by_layer {
        out.push_str(&format!(
            "{:<34} {:>9} {:>13} {:>13.3}\n",
            layer,
            t.count,
            "",
            t.self_ns as f64 / 1e6
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span { name, start_ns, end_ns, parent, query: NO_QUERY }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = [
            span("bench.event", 0, 100, NO_PARENT),
            span("engine.decode", 10, 30, 0),
            span("estimators.bounds", 30, 70, 0),
            span("estimators.kernel", 40, 60, 2), // grandchild: only its parent loses it
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 20, 20]);
        let (by_name, by_layer) = totals(&spans);
        assert_eq!(by_name["bench.event"], NameTotals { count: 1, total_ns: 100, self_ns: 40 });
        assert_eq!(by_layer["estimators"], NameTotals { count: 2, total_ns: 60, self_ns: 40 });
        // Self times of a tree sum to the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn a_child_leaking_past_its_parent_is_clipped() {
        let spans = [span("a.x", 10, 20, NO_PARENT), span("b.y", 15, 40, 0)];
        assert_eq!(self_times(&spans), vec![5, 25]);
    }

    #[test]
    fn recorder_nests_and_writes_jsonl() {
        let mut r = Recorder::new();
        let outer = r.enter("monitor.ingest", 7);
        r.span("engine.decode", 7, || std::hint::black_box(1 + 1));
        r.exit(outer);
        assert_eq!(r.len(), 2);
        assert_eq!(r.spans()[1].parent, 0);
        assert_eq!(r.spans()[0].parent, NO_PARENT);
        assert!(r.spans()[0].end_ns >= r.spans()[1].end_ns);

        let mut buf = Vec::new();
        assert_eq!(r.write_jsonl(&mut buf, 1).unwrap(), 1);
        let text = String::from_utf8(buf).unwrap();
        let line = crate::json::parse(text.trim()).unwrap();
        assert_eq!(line.get("name").and_then(crate::json::Value::as_str), Some("monitor.ingest"));
        assert_eq!(line.get("query").and_then(crate::json::Value::as_f64), Some(7.0));
        assert_eq!(line.get("parent"), Some(&crate::json::Value::Null));
    }
}
