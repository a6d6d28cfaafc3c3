//! In-memory spans around the harness's calls into each layer.
//!
//! The program carries no spans of its own yet, so the traced run measures
//! every layer from outside: one root span per replay step, child spans
//! around public calls only.  Spans are recorded on the harness thread, kept
//! in memory, and written as a chrome trace when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one replay step share this identifier.
    pub replay: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
    replay: u32,
}

/// Per-name totals over a span list.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct NameTotal {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            replay: 0,
        }
    }

    /// Spans begun from now on belong to replay step `id`.
    pub fn set_replay(&mut self, id: u32) {
        self.replay = id;
    }

    pub fn begin(&mut self, name: &'static str) -> usize {
        let now = self.origin.elapsed().as_nanos() as u64;
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            replay: self.replay,
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open one.
    pub fn end(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
    }

    /// Run `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }
}

/// A span's duration minus the part of it its child spans cover.
pub fn self_time_ns(spans: &[Span], id: usize) -> u64 {
    let children: u64 = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(Span::duration_ns)
        .sum();
    spans[id].duration_ns().saturating_sub(children)
}

pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotal> {
    let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for (id, span) in spans.iter().enumerate() {
        let t = out.entry(span.name).or_default();
        t.count += 1;
        t.total_ns += span.duration_ns();
        t.self_ns += self_time_ns(spans, id);
    }
    out
}

/// Chrome-trace JSON (`chrome://tracing`, Perfetto): one complete event per
/// span with its parent and replay id as arguments, plus the driver's own
/// apex table under `apexSummary` as a cross-check, not as a metric.
pub fn chrome_trace_json(spans: &[Span], apex: &[(&'static str, u64, f64)]) -> String {
    let events: Vec<String> = spans
        .iter()
        .enumerate()
        .map(|(id, s)| {
            format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":1,\"args\":{{\"id\":{},\"parent\":{},\"replay\":{},\"self_us\":{:.3}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.duration_ns() as f64 / 1e3,
                id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.replay,
                self_time_ns(spans, id) as f64 / 1e3,
            )
        })
        .collect();
    let apex_rows: Vec<String> = apex
        .iter()
        .map(|(name, count, total_s)| {
            format!("{{\"timer\":\"{name}\",\"count\":{count},\"total_s\":{total_s}}}")
        })
        .collect();
    format!(
        "{{\"traceEvents\":[{}],\"apexSummary\":[{}]}}\n",
        events.join(","),
        apex_rows.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            replay: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 50, 70, Some(0)),
            span("a.inner", 15, 25, Some(1)),
        ];
        assert_eq!(self_time_ns(&spans, 0), 50);
        assert_eq!(self_time_ns(&spans, 1), 20);
        assert_eq!(self_time_ns(&spans, 3), 10);
        let totals = totals_by_name(&spans);
        assert_eq!(
            totals["root"],
            NameTotal {
                count: 1,
                total_ns: 100,
                self_ns: 50
            }
        );
    }

    #[test]
    fn tracer_nests_and_tags_replays() {
        let mut t = Tracer::new();
        t.set_replay(3);
        let root = t.begin("root");
        t.span("child", || ());
        t.end(root);
        assert_eq!(t.spans[1].parent, Some(root));
        assert_eq!(t.spans[1].replay, 3);
        assert!(t.spans[0].end_ns >= t.spans[1].end_ns);
        let json = chrome_trace_json(&t.spans, &[("gravity:kernels", 2, 0.5)]);
        assert!(json.contains("\"parent\":0") && json.contains("apexSummary"));
    }
}
