//! Dependency-free observability for the PIGEON pipeline: RAII spans,
//! counters, fixed-bucket histograms, a Prometheus `/metrics` rendering,
//! and Chrome trace-event export.
//!
//! # Architecture
//!
//! All series live in a process-global [`Registry`] (see [`global`]).
//! Instrumentation sites use the free functions here — [`span`],
//! [`count`], [`counter`], [`histogram`] — which resolve through a
//! thread-local **sink**: normally the global registry, but inside a
//! worker pool each worker writes to a private shard that the pool
//! merges back **in worker order** ([`with_shard`], [`Registry::merge`]).
//! Counters and histogram buckets merge by integer addition, so every
//! jobs-invariant quantity (documents processed, paths extracted, ICM
//! sweeps…) produces byte-identical `/metrics` output for any `--jobs`
//! value — the same determinism contract as the rest of the repo.
//!
//! Timestamps come from an injectable [`Clock`]; tests freeze it
//! ([`ManualClock`]) so even duration histograms are deterministic.
//!
//! The whole layer can be switched off ([`set_enabled`], or the
//! `PIGEON_TELEMETRY=off` environment variable) — [`span`] then returns
//! an inert guard without reading the clock, which is what the overhead
//! numbers in `EXPERIMENTS.md` are measured against.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use pigeon_telemetry as telemetry;
//!
//! let registry = telemetry::Registry::new(Arc::new(telemetry::ManualClock::frozen(0)));
//! registry.counter("pigeon_docs_total", &[]).add(3);
//! let text = registry.render_prometheus();
//! assert!(text.contains("pigeon_docs_total 3"));
//! ```

mod clock;
mod metrics;
mod registry;
mod trace;

pub use clock::{Clock, ManualClock, WallClock};
pub use metrics::{Counter, Gauge, Histogram};
pub use registry::{Registry, SeriesKey};
pub use trace::{render_trace, TraceEvent};

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};

/// The histogram family every [`Span`] observes into, labelled by
/// `phase="<span name>"`.
pub const PHASE_HISTOGRAM: &str = "pigeon_phase_micros";

/// Bucket bounds (µs) for pipeline-phase durations: 100µs … 60s.
pub const PHASE_BOUNDS: &[u64] = &[
    100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000, 60_000_000,
];

/// Bucket bounds (µs) for request latencies: 500µs … 1s.
pub const LATENCY_BOUNDS: &[u64] = &[
    500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 1_000_000,
];

static GLOBAL: OnceLock<Arc<Registry>> = OnceLock::new();
/// 0 = unread (consult the environment), 1 = on, 2 = off.
static ENABLED: AtomicU8 = AtomicU8::new(0);
static TRACING: AtomicBool = AtomicBool::new(false);
static NEXT_TID: AtomicU32 = AtomicU32::new(0);

thread_local! {
    /// Worker-local shard override; `None` routes to the global registry.
    static SINK: RefCell<Option<Arc<Registry>>> = const { RefCell::new(None) };
    /// Names of the spans currently open on this thread (parent tracking).
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
    /// Small dense id for trace events, assigned on first use per thread.
    static TID: RefCell<Option<u32>> = const { RefCell::new(None) };
}

/// The process-global registry (created on first use).
pub fn global() -> &'static Arc<Registry> {
    GLOBAL.get_or_init(|| Arc::new(Registry::default()))
}

/// The registry instrumentation currently writes to: the enclosing
/// worker shard if inside [`with_shard`], otherwise the global registry.
pub fn current() -> Arc<Registry> {
    SINK.with(|sink| match &*sink.borrow() {
        Some(shard) => Arc::clone(shard),
        None => Arc::clone(global()),
    })
}

/// Whether telemetry records anything. Defaults to on; the environment
/// variable `PIGEON_TELEMETRY` set to `0`, `off` or `false` disables it
/// process-wide (the knob behind the overhead measurements).
pub fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => {
            let on = !matches!(
                std::env::var("PIGEON_TELEMETRY").as_deref(),
                Ok("0") | Ok("off") | Ok("false")
            );
            ENABLED.store(if on { 1 } else { 2 }, Ordering::Relaxed);
            on
        }
    }
}

/// Turns the whole layer on or off at runtime.
pub fn set_enabled(on: bool) {
    ENABLED.store(if on { 1 } else { 2 }, Ordering::Relaxed);
}

/// Whether completed spans are additionally collected as trace events
/// (off by default; `--trace-out` turns it on for a run).
pub fn tracing() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// Enables or disables trace-event collection.
pub fn set_tracing(on: bool) {
    TRACING.store(on, Ordering::Relaxed);
}

/// Replaces the global registry's clock (tests inject [`ManualClock`]).
pub fn set_clock(clock: Arc<dyn Clock>) {
    global().set_clock(clock);
}

/// Zeroes every global series and clears the trace buffer.
pub fn reset() {
    global().reset();
}

/// Renders the global registry in Prometheus text format.
pub fn render_prometheus() -> String {
    global().render_prometheus()
}

/// Renders the global trace buffer as Chrome trace-event JSON.
pub fn trace_json() -> String {
    render_trace(&global().trace_events())
}

/// The end-of-run phase-time table (`--timings`).
pub fn phase_summary() -> String {
    global().phase_summary()
}

/// Registers help text for a metric family on the global registry.
pub fn describe(name: &'static str, help: &'static str) {
    global().describe(name, help);
}

/// A counter on the current sink (no labels).
pub fn counter(name: &'static str) -> Arc<Counter> {
    current().counter(name, &[])
}

/// A labelled counter on the current sink.
pub fn counter_with(name: &'static str, labels: &[(&str, &str)]) -> Arc<Counter> {
    current().counter(name, labels)
}

/// A gauge on the current sink (no labels).
pub fn gauge(name: &'static str) -> Arc<Gauge> {
    current().gauge(name, &[])
}

/// A histogram on the current sink.
pub fn histogram(name: &'static str, labels: &[(&str, &str)], bounds: &[u64]) -> Arc<Histogram> {
    current().histogram(name, labels, bounds)
}

/// Adds `n` to `name` on the current sink — no-op when disabled.
pub fn count(name: &'static str, n: u64) {
    if enabled() {
        current().counter(name, &[]).add(n);
    }
}

/// Adds `n` to the labelled series `name{labels}` — no-op when disabled.
pub fn count_with(name: &'static str, labels: &[(&str, &str)], n: u64) {
    if enabled() {
        current().counter(name, labels).add(n);
    }
}

/// Observes `value` into the histogram `name{labels}` with the standard
/// phase bounds — no-op when disabled.
pub fn observe(name: &'static str, labels: &[(&str, &str)], value: u64) {
    if enabled() {
        current()
            .histogram(name, labels, PHASE_BOUNDS)
            .observe(value);
    }
}

/// Runs `f` with all instrumentation on this thread routed to `shard`
/// instead of the global registry. The caller merges the shard back
/// (in worker order) with [`Registry::merge`]. Restores the previous
/// sink on exit, panics included; nests.
pub fn with_shard<R>(shard: &Arc<Registry>, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Arc<Registry>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            SINK.with(|sink| *sink.borrow_mut() = self.0.take());
        }
    }
    let previous = SINK.with(|sink| sink.borrow_mut().replace(Arc::clone(shard)));
    let _restore = Restore(previous);
    f()
}

fn thread_id() -> u32 {
    TID.with(|tid| {
        *tid.borrow_mut()
            .get_or_insert_with(|| NEXT_TID.fetch_add(1, Ordering::Relaxed))
    })
}

/// An open span: entering records the start time and pushes the name on
/// the thread's span stack; dropping observes the duration into
/// [`PHASE_HISTOGRAM`] and, when tracing, appends a trace event with the
/// parent captured at entry. When telemetry is disabled the guard is
/// inert — no clock read, no allocation.
#[must_use = "a span measures the time until it is dropped"]
pub struct Span {
    inner: Option<SpanInner>,
}

struct SpanInner {
    name: &'static str,
    start: u64,
    parent: Option<&'static str>,
    sink: Arc<Registry>,
}

/// Opens a span named `name` on the current sink.
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span { inner: None };
    }
    let sink = current();
    let parent = SPAN_STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let parent = stack.last().copied();
        stack.push(name);
        parent
    });
    Span {
        inner: Some(SpanInner {
            name,
            start: sink.now_micros(),
            parent,
            sink,
        }),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        let end = inner.sink.now_micros();
        let dur = end.saturating_sub(inner.start);
        SPAN_STACK.with(|stack| {
            stack.borrow_mut().pop();
        });
        inner
            .sink
            .histogram(PHASE_HISTOGRAM, &[("phase", inner.name)], PHASE_BOUNDS)
            .observe(dur);
        if tracing() {
            inner.sink.record_trace(TraceEvent {
                name: inner.name,
                ts: inner.start,
                dur,
                tid: thread_id(),
                parent: inner.parent,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Global-state tests share the process registry; serialize them.
    static LOCK: Mutex<()> = Mutex::new(());

    fn fresh_global() -> std::sync::MutexGuard<'static, ()> {
        let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(true);
        set_tracing(false);
        set_clock(Arc::new(ManualClock::frozen(0)));
        reset();
        guard
    }

    #[test]
    fn spans_observe_the_phase_histogram() {
        let _guard = fresh_global();
        set_clock(Arc::new(ManualClock::stepping(0, 10)));
        {
            let _outer = span("outer");
            let _inner = span("inner");
        }
        let h = global().histogram(PHASE_HISTOGRAM, &[("phase", "outer")], PHASE_BOUNDS);
        assert_eq!(h.count(), 1);
        let h = global().histogram(PHASE_HISTOGRAM, &[("phase", "inner")], PHASE_BOUNDS);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn tracing_records_parent_links() {
        let _guard = fresh_global();
        set_clock(Arc::new(ManualClock::stepping(0, 1)));
        set_tracing(true);
        {
            let _outer = span("t_outer");
            let _inner = span("t_inner");
        }
        set_tracing(false);
        let events = global().trace_events();
        assert_eq!(events.len(), 2);
        let inner = events.iter().find(|e| e.name == "t_inner").unwrap();
        let outer = events.iter().find(|e| e.name == "t_outer").unwrap();
        assert_eq!(inner.parent, Some("t_outer"));
        assert_eq!(outer.parent, None);
        // Well-nested: the child interval lies inside the parent's.
        assert!(outer.ts <= inner.ts);
        assert!(inner.ts + inner.dur <= outer.ts + outer.dur);
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _guard = fresh_global();
        set_enabled(false);
        {
            let _s = span("ghost");
        }
        set_enabled(true);
        let h = global().histogram(PHASE_HISTOGRAM, &[("phase", "ghost")], PHASE_BOUNDS);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn shards_capture_and_merge_worker_metrics() {
        let _guard = fresh_global();
        let shard = Arc::new(global().shard());
        with_shard(&shard, || {
            count("pigeon_shard_test_total", 4);
        });
        // Nothing reached the global registry yet.
        assert_eq!(global().counter("pigeon_shard_test_total", &[]).get(), 0);
        global().merge(&shard);
        assert_eq!(global().counter("pigeon_shard_test_total", &[]).get(), 4);
    }

    #[test]
    fn phase_summary_lists_recorded_phases() {
        let _guard = fresh_global();
        set_clock(Arc::new(ManualClock::stepping(0, 500)));
        {
            let _s = span("summary_phase");
        }
        let table = phase_summary();
        assert!(table.contains("summary_phase"), "{table}");
        assert!(table.contains("phase"), "{table}");
    }
}
