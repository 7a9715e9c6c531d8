//! The repository benchmark: four seeded workloads that drive the pigeon
//! library and its in-process server the way users do, an untraced run
//! that reports end-to-end metrics, and a traced run that times the calls
//! the benchmark makes into each module's public functions.
//!
//! Run one workload from the repository root:
//!
//! ```text
//! cargo run --quiet --offline --release --manifest-path perfbench/Cargo.toml -- \
//!     --light-rps 50 --workload predict_small --seed 1 --seconds 15 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the lines before it
//! are a human-readable report. The process exits non-zero when an
//! output check fails. See `perfbench/README.md` for the workloads and
//! the metric definitions.

mod host;
mod http;
mod predict;
mod trace;
mod train;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

use pigeon::corpus::{self, CorpusConfig, Document, Language};
use pigeon::Prediction;

/// The metric tables of `BENCHMARK.json` (read from the working
/// directory, the repository root): name and unit, in file order.
struct MetricTables {
    end_to_end: Vec<(String, String)>,
    per_layer: Vec<(String, String)>,
}

impl MetricTables {
    fn load() -> Result<MetricTables, String> {
        let text = std::fs::read_to_string("BENCHMARK.json")
            .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
        let doc: serde_json::Value =
            serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let table = |key: &str| -> Result<Vec<(String, String)>, String> {
            doc.get(key)
                .and_then(|t| t.as_array())
                .ok_or_else(|| format!("BENCHMARK.json: no `{key}` list"))?
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|v| v.as_str()).map(str::to_owned);
                    field("name")
                        .zip(field("unit"))
                        .ok_or_else(|| format!("BENCHMARK.json: a `{key}` entry lacks name/unit"))
                })
                .collect()
        };
        Ok(MetricTables {
            end_to_end: table("end_to_end")?,
            per_layer: table("per_layer")?,
        })
    }
}

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The open-loop rate of `predict_small`, requests per second.
    pub light_rps: Option<f64>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut light_rps = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => workload = Some(value.to_owned()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got {value}")),
                }
            }
            "--light-rps" => {
                let r: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --light-rps {value}"))?;
                if !(r > 0.0 && r.is_finite()) {
                    return Err(format!("--light-rps must be positive, got {value}"));
                }
                light_rps = Some(r);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace,
        light_rps,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload predict_small|predict_files|train|train_distributed \
                 --seed N [--seconds S] [--trace 0|1] [--light-rps R]"
            );
            std::process::exit(2);
        }
    };
    let tables = match MetricTables::load() {
        Ok(tables) => tables,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let work = match WorkDir::create(&args) {
        Ok(work) => work,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let result = match args.workload.as_str() {
        "predict_small" => predict::run_small(&args, &work),
        "predict_files" => predict::run_files(&args, &work),
        "train" => train::run_train(&args, &work),
        "train_distributed" => train::run_distributed(&args, &work),
        other => Err(format!("unknown workload `{other}`")),
    };
    drop(work);
    match result {
        Ok(outcome) => {
            let correct = outcome.print(&args, &tables);
            if !correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    }
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted in the timed phases (requests, trainings, jobs).
    pub attempted: u64,
    /// Of those, the ones that failed (non-2xx, I/O error, error result).
    pub failed: u64,
    /// Output-check failures; any entry makes the run incorrect.
    pub check_failures: Vec<String>,
    /// Metric values by name (end-to-end or per-layer, per `--trace`).
    pub metrics: BTreeMap<String, f64>,
    /// Report lines printed before the JSON result.
    pub report: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_owned(), value);
    }

    /// Records `<span>_ms`, the span's self time divided by `units`, for
    /// each of `spans`; the per-layer time metrics are named this way.
    pub fn set_self_times(&mut self, self_ms: &BTreeMap<&str, f64>, spans: &[&str], units: f64) {
        for span in spans {
            let total = self_ms.get(span).copied().unwrap_or(0.0);
            self.set(&format!("{span}_ms"), total / units);
        }
    }

    pub fn line(&mut self, line: impl Into<String>) {
        self.report.push(line.into());
    }

    /// Reports the host's steal over the timed phases.
    pub fn host(&mut self, kept: f64) {
        self.line(format!(
            "host steal {:.1}% of CPU time over the timed phase; its times below are scaled \
             by {kept:.4}, its rates divided by it",
            100.0 * (1.0 - kept)
        ));
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }

    /// Prints the report and, last, the JSON result: every metric of the
    /// run's table, per-layer ones the workload never touched as 0.
    /// Returns whether every output check passed.
    fn print(mut self, args: &Args, tables: &MetricTables) -> bool {
        let table = if args.trace {
            &tables.per_layer
        } else {
            &tables.end_to_end
        };
        // A traced run also measures the end-to-end figures (they are in
        // the report); only the per-layer ones go into its result.
        for name in self.metrics.keys() {
            let listed = |t: &[(String, String)]| t.iter().any(|(n, _)| n == name);
            if !listed(&tables.end_to_end) && !listed(&tables.per_layer) {
                self.check_failures
                    .push(format!("metric {name} is not listed in BENCHMARK.json"));
            }
        }
        println!(
            "perfbench {} seed {} ({}), {} cores",
            args.workload,
            args.seed,
            if args.trace { "traced" } else { "untraced" },
            nproc()
        );
        for line in &self.report {
            println!("  {line}");
        }
        let fail_ratio = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "  fail_ratio {fail_ratio:.6} ({} failed of {} attempted)",
            self.failed, self.attempted
        );
        let mut metrics = Vec::new();
        for (name, unit) in table {
            let value = match self.metrics.get(name.as_str()) {
                Some(&v) => v,
                None if args.trace => 0.0,
                None => {
                    self.check_failures
                        .push(format!("end-to-end metric {name} was not measured"));
                    f64::NAN
                }
            };
            println!("  {name} = {value} {unit}");
            metrics.push(format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_string(name),
                json_number(value),
                json_string(unit)
            ));
        }
        for failure in &self.check_failures {
            println!("  CHECK FAILED: {failure}");
        }
        let correct = self.check_failures.is_empty() && self.attempted > 0;
        println!(
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        );
        correct
    }
}

fn json_string(s: &str) -> String {
    serde_json::to_string(&serde_json::Value::String(s.to_owned()))
        .expect("a string always serialises")
}

/// A finite number in JSON, or `null` where the value is unavailable.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// Worker threads and connections the load generator may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// An independent seed for one input stream of a run.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    pigeon::core::derive_seed(seed, stream)
}

/// `files` generated documents of `language` with `functions` functions
/// each (inclusive range), from one seed stream.
pub fn generate(
    language: Language,
    files: usize,
    seed: u64,
    functions: (usize, usize),
) -> Vec<Document> {
    let cfg = CorpusConfig {
        files,
        min_functions: functions.0,
        max_functions: functions.1,
        seed,
        ..CorpusConfig::default()
    };
    corpus::generate(language, &cfg).docs
}

/// Nearest-rank percentile of an ascending slice (`q` in (0, 1]).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Top-1 / top-5 hit counts over predicted elements, scored against the
/// name the program was written with.
#[derive(Default, Clone, Copy)]
pub struct Accuracy {
    pub elements: u64,
    pub top1: u64,
    pub top5: u64,
}

impl Accuracy {
    pub fn add(&mut self, predictions: &[Prediction]) {
        for p in predictions {
            self.elements += 1;
            if p.predicted_name == p.current_name {
                self.top1 += 1;
            }
            if p.candidates
                .iter()
                .take(5)
                .any(|(name, _)| *name == p.current_name)
            {
                self.top5 += 1;
            }
        }
    }

    pub fn record(&self, outcome: &mut Outcome) {
        let n = self.elements.max(1) as f64;
        outcome.set("top1_accuracy", self.top1 as f64 / n);
        outcome.set("top5_accuracy", self.top5 as f64 / n);
        outcome.line(format!(
            "top1_accuracy {:.4} / top5_accuracy {:.4} share over {} predicted elements",
            self.top1 as f64 / n,
            self.top5 as f64 / n,
            self.elements
        ));
    }
}

/// Resets the kernel's peak-RSS mark (`VmHWM`) to the current RSS, so
/// the peak read after the timed phase excludes input preparation.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Records `peak_rss_mb` from `VmHWM`; unavailable (reported as such)
/// where `/proc/self/status` does not exist.
pub fn record_peak_rss(outcome: &mut Outcome) {
    let kb = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        });
    match kb {
        Some(kb) => {
            outcome.set("peak_rss_mb", kb / 1024.0);
            outcome.line(format!("peak_rss_mb {:.1} MB", kb / 1024.0));
        }
        None => {
            outcome.set("peak_rss_mb", f64::NAN);
            outcome.line("peak_rss_mb unavailable (no /proc/self/status on this OS)");
        }
    }
}

/// A per-process scratch directory under the build directory, removed
/// when the run ends. Trace files go next to it and are kept.
pub struct WorkDir {
    pub root: PathBuf,
    pub trace_file: PathBuf,
}

impl WorkDir {
    fn create(args: &Args) -> Result<WorkDir, String> {
        let base = PathBuf::from(
            std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "perfbench/target".to_owned()),
        )
        .join("perfbench");
        let root = base.join(format!("work-{}", std::process::id()));
        std::fs::create_dir_all(&root).map_err(|e| format!("{}: {e}", root.display()))?;
        let trace_file = base.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        Ok(WorkDir { root, trace_file })
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}
