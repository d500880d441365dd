//! Spans around calls into the layers, kept in memory and written out as
//! JSONL when the run ends.

use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// What was called, e.g. `graph.io.parse` or `core.engine.segment`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the span this call was made from.
    pub parent: Option<usize>,
    /// The operation the span belongs to (0: none, as for kernel replays).
    pub op: usize,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans: a span opened inside another's closure gets it as
/// its parent.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: usize,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer; its clock starts now.
    pub fn new() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new(), open: Vec::new(), op: 0 }
    }

    /// Tags the spans opened from now on with operation `op`.
    pub fn set_op(&mut self, op: usize) {
        self.op = op;
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; returns its result and the
    /// span's duration in nanoseconds.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> (T, u64) {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start_ns: 0, end_ns: 0, parent, op: self.op });
        self.open.push(id);
        let start_ns = self.now();
        let out = f(self);
        let end_ns = self.now();
        self.open.pop();
        self.spans[id].start_ns = start_ns;
        self.spans[id].end_ns = end_ns;
        (out, end_ns - start_ns)
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes `header`, then one JSON object per span, one per line.
    pub fn write_jsonl(&self, path: &Path, header: &str) -> std::io::Result<()> {
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "{header}")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"op\": {}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        w.flush()
    }
}

/// One operation's spans: its root span (named `op`), the part of it that
/// the root's direct children cover, and every span's duration by name.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct OpSpans {
    /// Duration of the root span.
    pub op_ns: u64,
    /// Time the root's direct children cover; the rest is unaccounted.
    pub covered_ns: u64,
    durations: Vec<(&'static str, u64)>,
}

impl OpSpans {
    /// Collects the spans of operation `op`.
    pub fn of(spans: &[Span], op: usize) -> Self {
        let mut out = OpSpans::default();
        let root = spans.iter().position(|s| s.op == op && s.name == "op");
        for (id, s) in spans.iter().enumerate().filter(|(_, s)| s.op == op) {
            if Some(id) == root {
                out.op_ns = s.ns();
            } else if s.parent.is_some() && s.parent == root {
                out.covered_ns += s.ns();
            }
            out.durations.push((s.name, s.ns()));
        }
        out
    }

    /// Durations of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.durations.iter().filter(|(n, _)| *n == name).map(|&(_, ns)| ns).collect()
    }

    /// Total time in spans named `name`.
    pub fn total(&self, name: &str) -> u64 {
        self.durations(name).iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_link_parents_and_account_for_the_root() {
        let mut tr = Tracer::new();
        tr.set_op(1);
        let (x, _) = tr.span("op", |tr| {
            let (a, _) = tr.span("child", |tr| tr.span("grandchild", |_| 2).0);
            let (b, _) = tr.span("child", |_| 3);
            a + b
        });
        assert_eq!(x, 5);
        let spans = tr.spans();
        let parents: Vec<Option<usize>> = spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(1), Some(0)]);
        let op = OpSpans::of(spans, 1);
        assert_eq!(op.op_ns, spans[0].ns());
        assert_eq!(op.covered_ns, spans[1].ns() + spans[3].ns());
        assert!(op.covered_ns <= op.op_ns);
        assert_eq!(op.durations("child").len(), 2);
        assert_eq!(op.total("grandchild"), spans[2].ns());
        assert!(OpSpans::of(spans, 2).durations("child").is_empty());
    }
}
