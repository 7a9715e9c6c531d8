//! Integration tests for the telemetry layer against the real training
//! and prediction pipeline: jobs-invariance of the Prometheus
//! exposition, well-nestedness of the exported Chrome trace, and the ICM
//! sweep count of one prediction.
//!
//! The tests drive the process-global registry, so they serialise on a
//! shared lock; the exposition and trace tests pin the clock to a
//! deterministic [`ManualClock`].

use pigeon::corpus::{generate, CorpusConfig, Language};
use pigeon::telemetry;
use pigeon::telemetry::ManualClock;
use pigeon::{Pigeon, PigeonConfig};
use std::sync::{Arc, Mutex};

static LOCK: Mutex<()> = Mutex::new(());

fn sources() -> Vec<String> {
    generate(
        Language::JavaScript,
        &CorpusConfig::default().with_files(12),
    )
    .docs
    .into_iter()
    .map(|d| d.source)
    .collect()
}

/// Trains one small model with the given worker count and returns the
/// full `/metrics` exposition it produced.
fn train_metrics(sources: &[String], jobs: usize) -> String {
    // A frozen clock makes every span duration zero, so the exposition
    // depends only on event *counts* — which must not depend on `jobs`.
    telemetry::set_clock(Arc::new(ManualClock::frozen(0)));
    telemetry::reset();
    let refs: Vec<&str> = sources.iter().map(String::as_str).collect();
    let config = PigeonConfig::builder().jobs(jobs).build().expect("valid");
    Pigeon::train_variable_namer(Language::JavaScript, &refs, &config).expect("trains");
    telemetry::render_prometheus()
}

#[test]
fn metrics_are_byte_identical_for_any_jobs() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    telemetry::set_enabled(true);
    let sources = sources();
    let serial = train_metrics(&sources, 1);
    let parallel = train_metrics(&sources, 4);
    assert_eq!(
        serial, parallel,
        "metrics must not depend on the worker count"
    );
    for family in [
        "pigeon_documents_extracted_total",
        "pigeon_paths_extracted_total",
        "pigeon_pool_items_total",
        "pigeon_crf_updates_total",
        "pigeon_phase_micros_bucket",
        "pigeon_phase_micros_count",
    ] {
        assert!(serial.contains(family), "missing {family} in:\n{serial}");
    }
    // Prometheus text framing: HELP/TYPE headers and a +Inf bucket.
    assert!(serial.contains("# TYPE pigeon_phase_micros histogram"));
    assert!(serial.contains("le=\"+Inf\""));
}

#[test]
fn trace_export_is_valid_json_with_well_nested_spans() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    telemetry::set_enabled(true);
    // A stepping clock gives every event a distinct, strictly increasing
    // timestamp, so interval containment is a meaningful nesting check.
    telemetry::set_clock(Arc::new(ManualClock::stepping(0, 1)));
    telemetry::reset();
    telemetry::set_tracing(true);
    let sources = sources();
    let refs: Vec<&str> = sources.iter().map(String::as_str).collect();
    let config = PigeonConfig::builder().jobs(1).build().expect("valid");
    Pigeon::train_variable_namer(Language::JavaScript, &refs, &config).expect("trains");
    telemetry::set_tracing(false);

    let json = telemetry::trace_json();
    let doc: serde_json::Value = serde_json::from_str(&json).expect("trace is valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .expect("traceEvents array");
    assert!(!events.is_empty(), "trace must record the pipeline spans");

    let field = |e: &serde_json::Value, k: &str| -> u64 {
        e.get(k).and_then(|v| v.as_u64()).expect("numeric field")
    };
    let names: Vec<&str> = events
        .iter()
        .map(|e| e.get("name").and_then(|n| n.as_str()).expect("name"))
        .collect();
    assert!(names.contains(&"train"), "{names:?}");
    assert!(names.contains(&"parse_extract"), "{names:?}");
    assert!(names.contains(&"crf_epoch"), "{names:?}");

    // Every event naming a parent must sit strictly inside some same-tid
    // event of that name: the spans form a forest, not a soup.
    for e in events {
        let Some(parent) = e.get("args").and_then(|a| a.get("parent")) else {
            continue;
        };
        let parent = parent.as_str().expect("parent name");
        let (ts, dur, tid) = (field(e, "ts"), field(e, "dur"), field(e, "tid"));
        let enclosed = events.iter().any(|p| {
            p.get("name").and_then(|n| n.as_str()) == Some(parent)
                && field(p, "tid") == tid
                && field(p, "ts") < ts
                && ts + dur <= field(p, "ts") + field(p, "dur")
        });
        assert!(
            enclosed,
            "span {:?} (ts {ts}, dur {dur}) not enclosed by its parent {parent:?}",
            e.get("name")
        );
    }
}

/// `Pigeon::predict` runs ICM once per program and ranks every unknown's
/// candidates against that one assignment, so its sweep count is bounded
/// by the model's sweep limit, not by the number of unknowns.
#[test]
fn predict_runs_one_inference_per_program() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    telemetry::set_enabled(true);
    let sources = sources();
    let refs: Vec<&str> = sources.iter().map(String::as_str).collect();
    let config = PigeonConfig::builder().jobs(1).build().expect("valid");
    let namer = Pigeon::train_variable_namer(Language::JavaScript, &refs, &config).expect("trains");
    let max_passes = namer.crf_model().max_passes() as u64;
    // Every generated document in one program: more unknowns than the
    // sweep limit, so one inference per unknown could not stay under it.
    let program = sources.join("\n");
    let sweeps = telemetry::counter("pigeon_icm_sweeps_total");
    let before = sweeps.get();
    let predictions = namer.predict(&program).expect("program parses");
    let added = sweeps.get() - before;
    assert!(
        predictions.len() as u64 > max_passes,
        "{} unknowns, sweep limit {max_passes}",
        predictions.len()
    );
    assert!(
        (1..=max_passes).contains(&added),
        "one predict over {} unknowns ran {added} ICM sweeps; one inference allows 1..={max_passes}",
        predictions.len()
    );
}
