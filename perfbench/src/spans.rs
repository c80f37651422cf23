//! In-memory span recording around calls into each layer.
//!
//! A span is a layer call seen from the benchmark: its name, start, end
//! and the span that caused it. Recording is off in untraced runs, where
//! [`Tracer::span`] only calls the closure. Spans are written out once,
//! when the run ends, as Chrome trace-event JSON (loadable in Perfetto).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Identifies a recorded span (its index), or the root when `None`.
pub type SpanId = Option<usize>;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: SpanId,
}

/// Span recorder; a no-op unless enabled.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// Running seconds per span name, so a caller can take the part of
    /// one iteration as a difference.
    totals: BTreeMap<&'static str, f64>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, epoch: Instant::now(), spans: Vec::new(), totals: BTreeMap::new() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Opens a span named `name` under `parent`; `None` when disabled.
    pub fn open(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent });
        Some(self.spans.len() - 1)
    }

    /// Closes a span that [`Tracer::open`] returned.
    pub fn close(&mut self, id: SpanId) {
        let Some(id) = id else { return };
        let end_ns = self.now_ns();
        let s = &mut self.spans[id];
        s.end_ns = end_ns;
        *self.totals.entry(s.name).or_insert(0.0) += dur_s(s);
    }

    /// Runs `f` inside a span named `name` under `parent`; `f` receives
    /// the tracer and the new span's id so that it can open children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        f: impl FnOnce(&mut Tracer, SpanId) -> T,
    ) -> T {
        let id = self.open(name, parent);
        let out = f(self, id);
        self.close(id);
        out
    }

    /// Seconds per span name recorded so far.
    pub fn totals(&self) -> &BTreeMap<&'static str, f64> {
        &self.totals
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Total seconds that any direct children spent under spans named
    /// `parent`, and the total seconds of those parents.
    pub fn child_coverage(&self, parent: &str) -> (f64, f64) {
        let mut parents = 0.0;
        let mut children = 0.0;
        for s in &self.spans {
            if s.name == parent {
                parents += dur_s(s);
            }
            if s.parent.is_some_and(|p| self.spans[p].name == parent) {
                children += dur_s(s);
            }
        }
        (children, parents)
    }

    /// The spans as Chrome trace-event JSON: one complete (`"X"`) event
    /// per span, timestamps in microseconds, with the span's id and its
    /// parent's id in `args`.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| i64::try_from(p).unwrap_or(-1));
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

fn dur_s(s: &Span) -> f64 {
    (s.end_ns - s.start_ns) as f64 / 1e9
}
