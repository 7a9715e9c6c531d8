//! Benchmark and experiment harness for the PIGEON reproduction.
//!
//! One `harness = false` bench target per table and figure of the paper
//! (run with `cargo bench -p pigeon-bench --bench table2`, or everything
//! via `cargo bench --workspace`), plus Criterion microbenchmarks of the
//! extraction and inference hot paths. Experiment sizes scale with the
//! `PIGEON_FILES` environment variable (files per corpus; default keeps
//! the full suite in the tens of minutes).

use std::time::Instant;

/// Files per corpus for headline experiments; override with
/// `PIGEON_FILES`.
pub fn bench_files(default: usize) -> usize {
    std::env::var("PIGEON_FILES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Runs `f` once and returns its wall time in microseconds.
pub fn time<T>(f: impl FnOnce() -> T) -> f64 {
    let t = Instant::now();
    std::hint::black_box(f());
    t.elapsed().as_secs_f64() * 1e6
}

/// `(median, p95)` of a set of timings.
pub fn summarize(mut micros: Vec<f64>) -> (f64, f64) {
    micros.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let p95 = micros[((micros.len() - 1) * 95) / 100];
    (micros[micros.len() / 2], p95)
}

/// The median of the per-iteration ratios `num[i] / den[i]`: the gated
/// benches time both paths of a ratio back to back in each iteration,
/// so each quotient cancels what the host did at that moment.
pub fn median_ratio(num: &[f64], den: &[f64]) -> f64 {
    summarize(num.iter().zip(den).map(|(n, d)| n / d).collect()).0
}

/// Formats a `[0, 1]` accuracy as a percentage string.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Prints a standard experiment header with timing bookkeeping.
pub struct Section {
    started: Instant,
}

impl Section {
    /// Prints the banner and starts the clock.
    pub fn begin(title: &str) -> Section {
        println!("\n=== {title} ===");
        Section {
            started: Instant::now(),
        }
    }

    /// Prints the elapsed time.
    pub fn end(self) {
        println!(
            "[section took {:.1}s]",
            self.started.elapsed().as_secs_f64()
        );
    }
}
