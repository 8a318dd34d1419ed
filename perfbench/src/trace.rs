//! In-memory spans for the traced run.
//!
//! Spans are recorded around the benchmark's calls into each layer's
//! public functions, kept in memory while the workload runs, and written
//! out once at the end. A span's self time is its duration minus the part
//! of its interval covered by its children; children may overlap each
//! other, so the covered part is the length of their union.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

use crate::now;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.deps`.
    pub name: &'static str,
    /// Start, on the benchmark's monotonic clock.
    pub start: Duration,
    /// End, on the same clock.
    pub end: Duration,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Identifier of the operation (compile, request, mix) the span
    /// belongs to.
    pub request: u64,
}

impl Span {
    fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// A single-threaded span recorder.
#[derive(Debug, Default)]
pub struct Tracer {
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// Runs `f` inside a span named `name`; spans opened by `f` become its
    /// children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let id = self.spans.len();
        let start = now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = now();
        out
    }

    /// Records an interval measured elsewhere as a child of the innermost
    /// open span.
    pub fn record(&mut self, name: &'static str, request: u64, start: Duration, end: Duration) {
        self.spans.push(Span {
            name,
            start,
            end,
            parent: self.open.last().copied(),
            request,
        });
    }

    /// The recorded spans, in start order of their opening.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Appends spans recorded by another tracer (another thread), keeping
/// their parent links.
pub fn merge(spans: &mut Vec<Span>, other: Vec<Span>) {
    let offset = spans.len();
    spans.extend(other.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + offset);
        s
    }));
}

/// Self time of every span: its duration minus the union of its children's
/// intervals, clipped to its own.
pub fn self_times(spans: &[Span]) -> Vec<Duration> {
    let mut children: Vec<Vec<(Duration, Duration)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort();
            let mut covered = Duration::ZERO;
            let mut cursor = s.start;
            for (a, b) in kids {
                let a = a.max(cursor);
                let b = b.min(s.end);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.duration().saturating_sub(covered)
        })
        .collect()
}

/// Per-name totals of a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Spans with this name.
    pub calls: u64,
    /// Summed durations.
    pub busy: Duration,
    /// Summed self times.
    pub self_time: Duration,
}

/// Aggregates a trace by span name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.busy += s.duration();
        t.self_time += own;
    }
    out
}

/// Renders a trace as JSON lines (one span per line, times in ns).
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
            s.name,
            s.start.as_nanos(),
            s.end.as_nanos(),
            s.request
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start: Duration::from_nanos(start),
            end: Duration::from_nanos(end),
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span("parent", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),
            // Runs past the parent's end: only 90..100 counts.
            span("c", 90, 120, Some(0)),
            // Nested inside `a`: covers nothing of the parent beyond `a`.
            span("a.inner", 15, 20, Some(1)),
        ];
        let own = self_times(&spans);
        assert_eq!(own[0], Duration::from_nanos(100 - 50 - 10));
        assert_eq!(own[1], Duration::from_nanos(30 - 5));
        assert_eq!(own[2], Duration::from_nanos(30));
        assert_eq!(own[4], Duration::from_nanos(5));
    }

    #[test]
    fn children_nest_under_the_open_span_and_totals_aggregate() {
        let mut t = Tracer::default();
        t.span("outer", 7, |t| {
            t.span("inner", 7, |_| ());
            t.record("measured", 7, Duration::ZERO, Duration::ZERO);
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.request == 7 && s.end >= s.start));
        let totals = totals(spans);
        assert_eq!(totals["outer"].calls, 1);
        assert!(totals["outer"].self_time <= totals["outer"].busy);
        assert_eq!(to_jsonl(spans).lines().count(), 3);
    }
}
