//! Wall-clock spans recorded by the benchmark around its calls into each
//! layer. A span has a name (the layer's crate prefix plus the call), a
//! start and an end, the span that caused it, and the id of the operation
//! it belongs to. Spans stay in memory and are written out as JSON lines
//! when the run ends.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Operation (request, cell, artifact) the span belongs to.
    pub op: u64,
    /// Layer-qualified call name, e.g. `core.digest`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// In-memory span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    next_op: u64,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            next_op: 0,
        }
    }

    /// A fresh operation id.
    pub fn op(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` inside a span named `name`; spans opened by `f` become its
    /// children.
    pub fn span<T>(&mut self, op: u64, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            op,
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (seconds) of every span named `name`.
    pub fn secs_of(&self, name: &str) -> Vec<f64> {
        secs_named(&self.spans, name)
    }

    /// Summed duration (seconds) of the direct children of span `idx`.
    pub fn child_secs(&self, idx: usize) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(idx))
            .map(Span::secs)
            .sum()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"op\": {}, \"name\": \"{}\", \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.op, s.name, s.start_ns, s.end_ns
            );
        }
        std::fs::write(path, out)
    }
}

/// Durations (seconds) of the spans in `spans` named `name`.
pub fn secs_named(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::secs)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_cover_their_children() {
        let mut t = Tracer::new();
        let op = t.op();
        let v = t.span(op, "outer", |t| {
            t.span(op, "inner.a", |_| std::hint::black_box(1))
                + t.span(op, "inner.b", |_| std::hint::black_box(2))
        });
        assert_eq!(v, 3);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert!(s.iter().all(|x| x.op == op && x.end_ns >= x.start_ns));
        assert!(t.child_secs(0) <= s[0].secs());
    }
}
