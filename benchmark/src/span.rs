//! Spans recorded by the harness around calls into each layer.
//!
//! Nothing inside the crates under test is instrumented: a span opens just
//! before the harness calls a public layer function and closes when it
//! returns. Spans stay in memory and are written as JSON lines when the
//! run ends. A span's *self time* is its duration minus the durations of
//! its direct children, so self times of a tree sum to the root's
//! duration and a layer's share is never counted twice.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed (or still open) span. `amount` is bytes for I/O spans and
/// edges for decode/kernel spans, 0 where neither applies.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    /// Index of the enclosing span; `u32::MAX` for a root.
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub amount: u64,
}

pub const NO_PARENT: u32 = u32::MAX;

/// Single-threaded span recorder. A disabled tracer records nothing and
/// its `begin`/`end` cost one branch — that is the "tracing off" side of
/// `trace.overhead_share`.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[derive(Clone, Copy)]
pub struct Open(u32);

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self::with_origin(enabled, Instant::now())
    }

    /// Tracers of several threads share one origin so their timestamps
    /// line up in the merged file.
    pub fn with_origin(enabled: bool, origin: Instant) -> Self {
        Self {
            enabled,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    #[inline]
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(NO_PARENT);
        }
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.open.push(id);
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            amount: 0,
        });
        Open(id)
    }

    #[inline]
    pub fn end(&mut self, open: Open, amount: u64) {
        if !self.enabled {
            return;
        }
        let now = self.origin.elapsed().as_nanos() as u64;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(open.0), "spans must close innermost first");
        let s = &mut self.spans[open.0 as usize];
        s.end_ns = now;
        s.amount = amount;
    }

    /// Run `f` inside a span; `f` returns its result and the amount.
    #[inline]
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce() -> (T, u64)) -> T {
        let open = self.begin(name);
        let (out, amount) = f();
        self.end(open, amount);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn into_spans(self) -> Vec<Span> {
        debug_assert!(self.open.is_empty(), "unclosed span at end of run");
        self.spans
    }
}

/// Totals of one span name over a span list.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotal {
    pub count: u64,
    /// Sum of durations, children included.
    pub total_ns: u64,
    /// Sum of self times (children excluded).
    pub self_ns: u64,
    pub amount: u64,
}

impl LayerTotal {
    pub fn self_s(&self) -> f64 {
        self.self_ns as f64 / 1e9
    }

    pub fn total_s(&self) -> f64 {
        self.total_ns as f64 / 1e9
    }
}

/// Self time of every span: duration minus direct children's durations.
/// `spans[k].parent` indexes into the same slice.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans
        .iter()
        .map(|s| s.end_ns.saturating_sub(s.start_ns))
        .collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let d = s.end_ns.saturating_sub(s.start_ns);
            let p = &mut own[s.parent as usize];
            *p = p.saturating_sub(d);
        }
    }
    own
}

/// Per-name totals, keyed by span name.
pub fn by_layer(spans: &[Span]) -> BTreeMap<&'static str, LayerTotal> {
    let own = self_times(spans);
    let mut out: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(own) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.end_ns.saturating_sub(s.start_ns);
        t.self_ns += self_ns;
        t.amount += s.amount;
    }
    out
}

/// Append the spans of several recorders into one list, re-basing ids and
/// parents so they stay indices into the merged list.
pub fn merge(lists: Vec<Vec<Span>>) -> Vec<Span> {
    let mut out = Vec::with_capacity(lists.iter().map(Vec::len).sum());
    for list in lists {
        let base = out.len() as u32;
        out.extend(list.into_iter().map(|mut s| {
            s.id += base;
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            s
        }));
    }
    out
}

/// Write one JSON object per line: `{id, parent, workload, name,
/// start_ns, end_ns, amount}` (`parent` is `null` for a root).
pub fn write_jsonl(path: &Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = if s.parent == NO_PARENT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{parent},\"workload\":\"{workload}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"amount\":{}}}",
            s.id, s.name, s.start_ns, s.end_ns, s.amount
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns: start,
            end_ns: end,
            amount: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // run [0,100] ⊃ iter [10,90] ⊃ {read [10,30], absorb [30,80] ⊃ inner [40,50]}
        let spans = vec![
            span(0, NO_PARENT, "run", 0, 100),
            span(1, 0, "iter", 10, 90),
            span(2, 1, "read", 10, 30),
            span(3, 1, "absorb", 30, 80),
            span(4, 3, "inner", 40, 50),
        ];
        assert_eq!(self_times(&spans), vec![20, 10, 20, 40, 10]);
        // Self times of a tree sum to the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
        let layers = by_layer(&spans);
        assert_eq!(layers["absorb"].total_ns, 50);
        assert_eq!(layers["absorb"].self_ns, 40);
        assert_eq!(layers["run"].count, 1);
    }

    #[test]
    fn tracer_nests_and_disabled_records_nothing() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer");
        let v = t.scope("inner", || (7, 42));
        t.end(outer, 0);
        assert_eq!(v, 7);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[1].amount, 42);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let mut off = Tracer::new(false);
        let o = off.begin("x");
        off.end(o, 1);
        assert_eq!(off.scope("y", || (3, 9)), 3);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn merge_rebases_parents() {
        let a = vec![span(0, NO_PARENT, "a", 0, 10), span(1, 0, "a1", 1, 2)];
        let b = vec![span(0, NO_PARENT, "b", 0, 10), span(1, 0, "b1", 3, 4)];
        let m = merge(vec![a, b]);
        assert_eq!(m[3].parent, 2);
        assert_eq!(m[3].id, 3);
        assert_eq!(self_times(&m), vec![9, 1, 9, 1]);
    }

    #[test]
    fn jsonl_lines_parse() {
        let dir = crate::scratch::ScratchDir::new("span-test").unwrap();
        let path = dir.path().join("t.jsonl");
        let spans = vec![
            span(0, NO_PARENT, "run", 0, 5),
            span(1, 0, "disk.read", 1, 2),
        ];
        write_jsonl(&path, "w", &spans).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<_> = text
            .lines()
            .map(|l| crate::json::Json::parse(l).unwrap())
            .collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].get("parent"), Some(&crate::json::Json::Null));
        assert_eq!(
            lines[1].get("name").and_then(|n| n.as_str()),
            Some("disk.read")
        );
        assert_eq!(lines[1].get("parent").and_then(|n| n.as_f64()), Some(0.0));
    }
}
