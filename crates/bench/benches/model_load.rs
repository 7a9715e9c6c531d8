//! Model cold-start: JSON load (parse + validate + recompile) vs the
//! compiled binary artifact (bulk array reads) across quantizations.
//!
//! Writes `BENCH_MODEL_LOAD.json` at the repo root (override the path
//! with `PIGEON_BENCH_OUT`) with median/p95 per loader and host
//! metadata, the machine-readable snapshot CI and EXPERIMENTS.md track.
//! The loaders are timed interleaved, one load of each per iteration,
//! and each `speedup_vs_json` is the median of the per-iteration
//! ratios: the loads of one iteration ran back to back, so their
//! quotient cancels what the host did at that moment.

use pigeon::corpus::{generate, CorpusConfig, Language};
use pigeon::crf::artifact::Quant;
use pigeon::{Pigeon, PigeonConfig};
use pigeon_bench::{bench_files, median_ratio, summarize, time, Section};

const ITERATIONS: usize = 40;

fn main() {
    let files = bench_files(400);
    let section = Section::begin("Model load: JSON vs compiled artifact");

    let corpus = generate(
        Language::JavaScript,
        &CorpusConfig::default().with_files(files),
    );
    let sources: Vec<&str> = corpus.docs.iter().map(|d| d.source.as_str()).collect();
    let namer =
        Pigeon::train_variable_namer(Language::JavaScript, &sources, &PigeonConfig::default())
            .expect("trains");
    let json = namer.to_json().expect("serialises");

    let artifacts: Vec<(String, Vec<u8>)> = [Quant::F32, Quant::F16, Quant::I8]
        .into_iter()
        .map(|quant| {
            let bytes = namer.to_artifact(quant).expect("compiles");
            (format!("artifact_{}", quant.name()), bytes)
        })
        .collect();

    // The loaders run interleaved: each iteration times the JSON load
    // and every artifact load back to back, so host drift over the run
    // lands on all of them alike and cancels in the speedups instead of
    // skewing the JSON denominator.
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); 1 + artifacts.len()];
    for _ in 0..ITERATIONS {
        times[0].push(time(|| Pigeon::from_json(&json).expect("loads")));
        for ((_, bytes), t) in artifacts.iter().zip(&mut times[1..]) {
            t.push(time(|| Pigeon::from_artifact(bytes).expect("loads")));
        }
    }
    let json_t = &times[0];
    // `(name, bytes, median, p95, speedup_vs_json)` per loader.
    let rows: Vec<(&str, usize, f64, f64, f64)> = std::iter::once(("json", json.len()))
        .chain(
            artifacts
                .iter()
                .map(|(name, bytes)| (name.as_str(), bytes.len())),
        )
        .zip(&times)
        .map(|((name, bytes), t)| {
            let (median, p95) = summarize(t.clone());
            let speedup = median_ratio(json_t, t);
            (name, bytes, median, p95, speedup)
        })
        .collect();

    println!(
        "{:<14} {:>12} {:>14} {:>14} {:>9}",
        "Loader", "Bytes", "Median (µs)", "p95 (µs)", "Speedup"
    );
    for (name, bytes, median, p95, speedup) in &rows {
        println!("{name:<14} {bytes:>12} {median:>14.1} {p95:>14.1} {speedup:>8.1}×");
    }

    let entries: Vec<String> = rows
        .iter()
        .map(|(name, bytes, median, p95, speedup)| {
            format!(
                "    \"{name}\": {{\"bytes\": {bytes}, \"median_micros\": {median:.1}, \
                 \"p95_micros\": {p95:.1}, \"speedup_vs_json\": {speedup:.2}}}"
            )
        })
        .collect();
    let report = format!
        // One key per loader plus host metadata; CI compares the
        // artifact speedup against the committed snapshot.
        (
        "{{\n  \"bench\": \"model_load\",\n  \"corpus_files\": {files},\n  \
         \"iterations\": {ITERATIONS},\n  \"host\": {{\"os\": \"{}\", \"arch\": \"{}\", \
         \"cores\": {}}},\n  \"loaders\": {{\n{}\n  }}\n}}\n",
        std::env::consts::OS,
        std::env::consts::ARCH,
        std::thread::available_parallelism().map_or(0, usize::from),
        entries.join(",\n")
    );
    let out = std::env::var("PIGEON_BENCH_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_MODEL_LOAD.json").to_owned()
    });
    std::fs::write(&out, report).expect("writes snapshot");
    println!("\nwrote {out}");
    section.end();
}
