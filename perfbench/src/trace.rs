//! In-memory spans around the benchmark's calls into each layer, written
//! out at exit as Chrome trace-event JSON (the format `pigeon train
//! --trace-out` writes, plus a request/document id on every event).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

struct Span {
    name: &'static str,
    /// Microseconds since the tracer's origin.
    start: f64,
    end: f64,
    parent: Option<usize>,
    /// Request or document id.
    id: u64,
    tid: u32,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recording tracer whose timestamps count from `origin`, which must
    /// precede every span it is given.
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            enabled: true,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turns recording on or off; the calls still happen either way, so
    /// timing a pass both ways measures what recording costs.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    fn micros(&self, at: Instant) -> f64 {
        at.duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Opens a span on the calling (main) thread; spans nest.
    pub fn begin(&mut self, name: &'static str, id: u64) {
        if self.enabled {
            let start = self.micros(Instant::now());
            self.open.push(self.spans.len());
            self.spans.push(Span {
                name,
                start,
                end: start,
                parent: self.open.iter().rev().nth(1).copied(),
                id,
                tid: 0,
            });
        }
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if self.enabled {
            let end = self.micros(Instant::now());
            if let Some(i) = self.open.pop() {
                self.spans[i].end = end;
            }
        }
    }

    /// Runs `f` inside a span.
    pub fn time<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
        self.begin(name, id);
        let result = f();
        self.end();
        result
    }

    /// Adds a finished top-level span recorded on another thread.
    pub fn add(&mut self, name: &'static str, id: u64, tid: u32, start: Instant, end: Instant) {
        if self.enabled {
            self.spans.push(Span {
                name,
                start: self.micros(start),
                end: self.micros(end),
                parent: None,
                id,
                tid,
            });
        }
    }

    /// Self time per span name in milliseconds: each span's duration
    /// minus the part of it its direct children cover.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child_time = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_time[p] += span.end - span.start;
            }
        }
        let mut out = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_time) {
            *out.entry(span.name).or_insert(0.0) += (span.end - span.start - children) / 1e3;
        }
        out
    }

    /// Writes every span as a Chrome trace-event document.
    pub fn write_chrome(&self, path: &Path) -> Result<(), String> {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"perfbench\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":{},\"args\":{{\"id\":{}",
                span.name,
                span.start,
                span.end - span.start,
                span.tid,
                span.id
            );
            if let Some(p) = span.parent {
                let _ = write!(out, ",\"parent\":\"{}\"", self.spans[p].name);
            }
            out.push_str("}}");
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))
    }
}
