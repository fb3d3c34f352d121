//! In-memory span recorder for the traced run.
//!
//! One span per call the benchmark makes into a layer: name, start, end,
//! the span that was open when it began (its parent) and the operation it
//! belongs to. Spans live in a `Vec` until the run ends; then they are
//! aggregated into per-name self times (span − children) and written out
//! as Chrome trace-event JSON. A disabled tracer records nothing, so the
//! untraced run pays one predictable branch per call site.

use std::fmt::Write as _;
use std::time::Instant;

/// Parent index of a root span.
const ROOT: u32 = u32::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub op: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[derive(Clone, Copy)]
pub struct SpanId(u32);

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// Aggregate of every span sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the time covered by child spans.
    pub self_ns: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self { enabled, epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under whichever span is currently open.
    pub fn begin(&mut self, name: &'static str, op: u64) -> SpanId {
        if !self.enabled {
            return SpanId(ROOT);
        }
        let parent = self.open.last().copied().unwrap_or(ROOT);
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, op });
        self.open.push(id);
        SpanId(id)
    }

    /// Close a span. Spans close in LIFO order (they wrap nested calls).
    pub fn end(&mut self, id: SpanId) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let top = self.open.pop();
        assert_eq!(top, Some(id.0), "spans must close innermost-first");
        self.spans[id.0 as usize].end_ns = end_ns;
    }

    /// Time `f` under a span.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, op);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count, total and self time of every span named `name`.
    pub fn totals(&self, name: &str) -> NameTotals {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child_ns[s.parent as usize] += s.dur_ns();
            }
        }
        let mut t = NameTotals::default();
        for (s, covered) in self.spans.iter().zip(&child_ns) {
            if s.name == name {
                t.count += 1;
                t.total_ns += s.dur_ns();
                t.self_ns += s.dur_ns().saturating_sub(*covered);
            }
        }
        t
    }

    /// Σ durations of the direct children of spans named `parent_name`,
    /// divided by Σ durations of those parents: how much of the parent
    /// the layer spans account for.
    pub fn child_coverage(&self, parent_name: &str) -> f64 {
        let mut parent_ns = 0u64;
        let mut child_ns = 0u64;
        for s in &self.spans {
            if s.name == parent_name {
                parent_ns += s.dur_ns();
            }
            if s.parent != ROOT && self.spans[s.parent as usize].name == parent_name {
                child_ns += s.dur_ns();
            }
        }
        if parent_ns == 0 {
            0.0
        } else {
            child_ns as f64 / parent_ns as f64
        }
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one
    /// complete (`"ph":"X"`) event per span, microsecond timestamps.
    pub fn chrome_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = if s.parent == ROOT { -1 } else { s.parent as i64 };
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"op\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.op
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_disabled_records_nothing() {
        let mut tr = Tracer::new(true);
        let outer = tr.begin("outer", 7);
        tr.span("inner", 7, || std::thread::sleep(std::time::Duration::from_millis(2)));
        tr.span("inner", 7, || ());
        tr.end(outer);
        let o = tr.totals("outer");
        let i = tr.totals("inner");
        assert_eq!((o.count, i.count), (1, 2));
        assert_eq!(o.self_ns, o.total_ns - i.total_ns);
        assert!(i.total_ns >= 2_000_000);
        let cov = tr.child_coverage("outer");
        assert!(cov > 0.0 && cov <= 1.0, "coverage {cov}");
        let json = tr.chrome_json();
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 3);
        assert!(json.contains("\"parent\":0") && json.contains("\"op\":7"));

        let mut off = Tracer::new(false);
        off.span("x", 0, || ());
        assert!(off.spans().is_empty());
    }
}
