//! In-memory spans recorded by the benchmark around its calls into each
//! layer, written out as JSON lines when the run ends.
//!
//! A span's name is `layer.what` (`client.score_set`, `serve.response_render`,
//! `scoring.stats`, ...); its layer is the part before the first dot.
//! Spans that belong to one request share its request id, and a child
//! names its parent by index. Self time is a span's duration minus the
//! part of its interval that its children cover.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// `layer.what`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span in the same trace.
    pub parent: Option<usize>,
    /// The request this span serves.
    pub request: u64,
}

impl Span {
    /// The span's layer: its name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans against one time origin.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty trace whose clock starts at `origin`.
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds from the origin to `at`.
    pub fn offset_ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span and returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        let span = Span {
            name,
            start_ns: self.offset_ns(start),
            end_ns: self.offset_ns(end),
            parent,
            request,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Opens a span that [`Tracer::close`] ends; returns its index.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let now = Instant::now();
        self.record(name, now, now, parent, request)
    }

    /// Ends the span at `index` now.
    pub fn close(&mut self, index: usize) {
        let end = self.offset_ns(Instant::now());
        self.spans[index].end_ns = end;
    }

    /// Runs `f` under a child span of `parent`.
    pub fn time<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        let request = self.spans[parent].request;
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, start, end, Some(parent), request);
        out
    }

    /// Appends spans recorded by another tracer with the same origin,
    /// re-basing their parent indices.
    pub fn absorb(&mut self, spans: Vec<Span>) {
        let base = self.spans.len();
        self.spans.extend(spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Takes the spans, leaving the tracer empty.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }

    /// Writes one JSON object per span.
    ///
    /// # Errors
    ///
    /// I/O failures creating or writing `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, each clipped to the parent's interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered.min(s.duration_ns())
        })
        .collect()
}

/// Total self time per layer, in nanoseconds, over the spans whose index
/// `keep` selects (children of unselected spans still subtract from
/// their parents).
pub fn self_time_by_layer(
    spans: &[Span],
    keep: impl Fn(usize) -> bool,
) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (i, (s, t)) in spans.iter().zip(self_times(spans)).enumerate() {
        if keep(i) {
            *out.entry(s.layer()).or_insert(0) += t;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 7,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("replay.score_set", 0, 100, None),
            // Overlapping children cover 10..50 once, not twice.
            span("serve.decode", 10, 30, Some(0)),
            span("scoring.stats", 20, 50, Some(0)),
            span("serve.render", 60, 70, Some(0)),
            // A child running past its parent only covers up to the end.
            span("serve.encode", 90, 120, Some(0)),
            // A grandchild is charged to its own parent, not the root.
            span("scoring.inner", 25, 35, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 20, 10, 30, 10]);
        let by_layer = self_time_by_layer(&spans, |_| true);
        assert_eq!(by_layer["replay"], 40);
        assert_eq!(by_layer["serve"], 60);
        assert_eq!(by_layer["scoring"], 30);
        let serve_only = self_time_by_layer(&spans, |i| spans[i].layer() == "serve");
        assert_eq!(serve_only.len(), 1);
        assert_eq!(serve_only["serve"], 60);
    }

    #[test]
    fn a_span_fully_covered_by_children_has_no_self_time() {
        let spans = vec![
            span("replay.x", 5, 15, None),
            span("serve.a", 0, 10, Some(0)),
            span("serve.b", 10, 20, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 0);
    }

    #[test]
    fn absorb_rebases_parents() {
        let origin = Instant::now();
        let mut a = Tracer::new(origin);
        let root = a.open("client.x", None, 1);
        a.close(root);
        let mut b = Tracer::new(origin);
        let r = b.open("replay.x", None, 2);
        b.time("serve.y", r, || ());
        a.absorb(b.into_spans());
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.spans()[2].request, 2);
    }
}
