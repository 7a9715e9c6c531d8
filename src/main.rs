//! The `pigeon` command-line tool: extract AST paths, generate corpora,
//! train name predictors, and query them — the workflow of the paper's
//! PIGEON tool as a CLI.
//!
//! ```text
//! pigeon paths    --language js FILE              # print path-contexts
//! pigeon generate --language js --files N DIR     # write a corpus
//! pigeon train    --language js --out model.json FILE...
//! pigeon compile  --out model.pgnc model.json     # compiled binary artifact
//! pigeon predict  --model model.json FILE         # suggest names
//! pigeon serve    --model model.json --port 7470  # HTTP prediction server
//! pigeon serve    --cache-dir DIR                 # distributed-training coordinator
//! pigeon experiment --language js [--files N]     # quick accuracy run
//! pigeon audit    --language js PATH...           # static-analysis audit
//! ```

use pigeon::analysis::{audit_sources, lint_artifact, lint_crf, AuditConfig, Severity, SourceUnit};
use pigeon::core::{extract, parallel_map_indexed, Abstraction, ExtractionConfig};
use pigeon::corpus::{generate, CorpusConfig, Language};
use pigeon::crf::artifact::{container_kind, is_artifact, Quant, KIND_CHECKPOINT, KIND_PARTIAL};
use pigeon::crf::checkpoint::{decode_checkpoint, encode_checkpoint};
use pigeon::crf::TrainControl;
use pigeon::distrib::{language_ext, list_corpus, run_worker, WorkerOptions};
use pigeon::eval::partial::decode_partial;
use pigeon::eval::{run_name_experiment, ElementClass, NameExperiment};
use pigeon::serve::{bind, ServeConfig};
use pigeon::{Pigeon, PigeonConfig, TrainRun};
use std::path::Path;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("paths") => cmd_paths(&args[1..]),
        Some("generate") => cmd_generate(&args[1..]),
        Some("train") => cmd_train(&args[1..]),
        Some("merge") => cmd_merge(&args[1..]),
        Some("compile") => cmd_compile(&args[1..]),
        Some("predict") => cmd_predict(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("work") => cmd_work(&args[1..]),
        Some("experiment") => cmd_experiment(&args[1..]),
        // `audit` owns its exit code: 0 clean, 2 when findings reach the
        // `--deny` level, 1 (below) for usage/IO errors.
        Some("audit") => {
            return match cmd_audit(&args[1..]) {
                Ok(code) => code,
                Err(message) => {
                    eprintln!("error: {message}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("--help" | "-h" | "help") | None => {
            print!("{HELP}");
            Ok(())
        }
        Some(other) => Err(format!("unknown command `{other}`; try `pigeon help`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

const HELP: &str = "\
pigeon — a general path-based representation for predicting program properties

USAGE:
  pigeon paths      --language LANG [--max-length N] [--max-width N]
                    [--abstraction LEVEL] FILE
  pigeon generate   --language LANG [--files N] [--seed N] [--jobs N] DIR
  pigeon train      --language LANG --out MODEL.json [--task vars|methods]
                    [--max-length N] [--max-width N] [--jobs N]
                    [--keep-prob P] [--dataflow-contexts BOOL]
                    [--trace-out FILE] [--timings BOOL]
                    [--shard I/N --emit-partial OUT.part]
                    [--checkpoint-every N --checkpoint-dir D] [--resume D]
                    [--update MODEL --add DIR]
                    [--synthetic N | FILE...]
  pigeon merge      --out MODEL[.json|.pgnc] [--quantize f32|f16|i8]
                    PART.part...
  pigeon compile    --out OUT.pgnc [--quantize f32|f16|i8] MODEL.json
  pigeon predict    --model MODEL[.json|.pgnc] [--trace-out FILE]
                    [--timings BOOL] FILE
  pigeon serve      (--model MODEL[.json|.pgnc] | --cache-dir DIR | both)
                    [--host ADDR] [--port N] [--jobs N]
                    [--max-request-bytes N] [--read-timeout-ms N]
                    [--idle-timeout SECS] [--keep-alive BOOL]
                    [--max-conn-requests N] [--batch-max N]
                    [--batch-wait-ms N] [--queue-cap N]
                    [--lease-timeout-ms N]
  pigeon work       --coordinator URL [--worker NAME] [--poll-ms N]
                    [--throttle-ms N] [--jobs N] [--exit-when-idle BOOL]
  pigeon experiment --language LANG [--files N] [--task vars|methods]
                    [--jobs N] [--max-length N] [--max-width N]
                    [--dataflow-contexts BOOL]
                    [--trace-out FILE] [--timings BOOL]
  pigeon audit      [--language LANG PATH...] [--model MODEL[.json|.pgnc]]
                    [--format text|json] [--deny info|warning|error]
                    [--jobs N] [--near-dups true|false]
                    [--list-codes true]

Flags take `--name value` or `--name=value`; a flag a subcommand does
not know is an error, never silently ignored. `pigeon <command> --help`
prints that command's flag table with one line of help per flag.

LANG: js | java | python | csharp
LEVEL: full | no-arrows | forget-order | first-top-last | first-last | top | no-path

DEFAULTS:
  --max-length  7 for `paths` (the paper's Table 2 JavaScript setting),
                4 for `train` (tuned for the small synthetic corpora);
                every command and model loader admits at most 16
  --max-width   3; every command and model loader admits at most 8
  --jobs        1 (serial; 0 = all cores). Workers parallelise per-file
                parse + path extraction, the CRF's statistics pass, and
                held-out evaluation; the trained model is byte-identical
                for any value.
  --keep-prob   1.0 (keep every path-context; lower values downsample
                training contexts, §5.5 of the paper)
  --dataflow-contexts  false. When true, `train`/`experiment` also
                extract edge-typed data-flow path-contexts: last-write
                (`lw:`) and last-use (`lu:`) edges from the data-flow
                engine, connected by AST paths and fed to the CRF next
                to the syntactic paths. The flag is stored in the model
                (JSON, .pgnc and partials), so `predict`/`serve` extract
                the same features automatically; with it off, every
                output is byte-identical to builds without the flag.

DISTRIBUTED & INCREMENTAL TRAINING:
  --shard I/N       run extraction over the I-th of N deterministic
                    corpus slices only (0-based), writing the slice's
                    documents to a training partial with --emit-partial;
                    give every worker the SAME corpus (same FILEs or the
                    same --synthetic N). `pigeon merge` combines the
                    partials, in any order, and finishes training,
                    byte-identical to one single-process `pigeon train`
                    for any shard count.
  --checkpoint-every N  snapshot SGD state to --checkpoint-dir every N
                    epochs; Ctrl-C also writes a final checkpoint before
                    exiting. Resume with --resume DIR against the same
                    corpus and flags: the final model is identical to an
                    uninterrupted run.
  --update MODEL --add DIR  fold the new documents in DIR into an
                    existing JSON model without re-extracting the
                    original corpus (approximate: the base model's
                    truncated count tables seed the statistics).
                    Compiled .pgnc models cannot be updated — update the
                    JSON model and recompile.

MULTI-BOX DISTRIBUTED TRAINING:
  `pigeon serve --cache-dir DIR` with no --model runs a model-less
  coordinator (its --max-request-bytes defaults to 64 MiB, room for
  partial uploads).
  POST a job to /v1/train-jobs ({\"corpus_dir\", \"language\", \"out\",
  \"shard_count\", knobs…}); `pigeon work --coordinator URL` workers
  poll /v1/leases for shard assignments, extract their slice of the
  (shared-filesystem) corpus, and upload partials to /v1/partials.
  Partials are content-addressed by (training config, shard coords,
  corpus bytes): a worker checks GET /v1/partials/<key> before doing
  any work, so re-runs and restarts only re-extract shards whose
  inputs actually changed. Shards whose lease expires (straggler or
  dead worker) are reassigned with capped exponential backoff. Once
  coverage is exact the coordinator merges and writes `out` —
  byte-identical to one single-process `pigeon train` — and serves it
  as the active model. `pigeon serve --model M --cache-dir DIR` arms
  the same surface next to an already-loaded model.

COMPILE:
  Freezes a JSON model into the compiled binary artifact (`.pgnc`):
  magic + checksummed sections holding the CSR-packed inference tables,
  loaded by `predict`/`serve`/`audit` with bulk array reads — no JSON
  parsing, no recompilation — for near-instant replica cold start.
  Every `--model` flag accepts either format (sniffed by magic), and
  `POST /v1/models` hot-swaps artifact bytes directly.
  --quantize    f32 (default, byte-exact weights), f16 (half the
                weight bytes), i8 (quarter, one scale per path).
                Quantized models are decision-identical to the f32
                reference in all released tests; verify any model with
                `pigeon audit --model OUT.pgnc`.

AUDIT:
  Static analysis over sources and trained models. PATHs are source
  files or directories (directories are walked for the language's
  extension, sorted by name). Checks: AST well-formedness (codes ast-*),
  scope/binding cross-check (scope-*), data-flow lints (use-before-def:
  a read no definition can reach; dead-store: a written value that can
  never be read; write-write-shadow: a store overwritten before any
  read; unused-binding: a variable that is never read), corpus
  duplication and near-duplication (corpus-*, split-leak), and model
  sanity (model-*) when --model is given. The data-flow lints run on
  per-function control-flow graphs with fixed-point reaching-definition
  and liveness analyses; findings are deterministic and byte-identical
  for any --jobs value. `--list-codes true` prints the full code
  catalog (text or --format json) and exits. --model also accepts training partials
  and SGD checkpoints (kind sniffed from the container): partials get a
  full decode, including the check that they hold exactly their shard's
  documents (partial-*), checkpoints a full state validation
  (checkpoint-*).
  --format      text (default) or json (schema pigeon-audit/1)
  --deny        fail when any diagnostic is at or above this severity
                (default: error)
  --jobs        0 = all cores; output is byte-identical for any value
  --near-dups   false skips the O(files²) MinHash near-duplicate scan
  Exit status: 0 clean, 2 denied findings, 1 usage or I/O error.

OBSERVABILITY:
  --trace-out FILE  write a Chrome trace-event JSON timeline of the
                    run's pipeline spans (open in chrome://tracing or
                    Perfetto)
  --timings BOOL    print a per-phase wall-time table to stderr
  PIGEON_TELEMETRY  set to 0/off/false to disable all telemetry
                    collection (counters, spans, /metrics)

SERVE (v1 API; every JSON response carries \"api\": \"pigeon/1\"):
  POST /v1/predict       {\"source\": \"<program>\"}        → predictions
  POST /v1/predict_batch {\"sources\": [\"<program>\", …]}  → per-source results
  POST /v1/models        <model JSON or .pgnc artifact bytes> — load +
                         hot-swap the active model (format sniffed)
  GET  /v1/models        list loaded model versions
  GET  /v1/models/<v>    one version's detail + per-version counters
  POST /v1/train-jobs    start a distributed train job (coordinator)
  GET  /v1/train-jobs    list jobs; /v1/train-jobs/<id> adds per-shard
                         states; /v1/train-jobs/<id>/model the result
  POST /v1/leases        worker shard-assignment poll
  POST /v1/partials      upload one .pgnc training partial
  GET  /v1/partials/<k>  fetch a cached partial by content address
  GET  /v1/stats         request/latency/throughput counters, per-model
                         version slices (JSON)
  GET  /v1/health        liveness probe
  GET  /v1/metrics       Prometheus text exposition
  Unversioned paths (/predict, /stats, …) answer 404. Error bodies
  carry a stable `code`. The full route contract lives in API.md.
  Connections are HTTP/1.1 keep-alive; /v1/predict requests coalesce
  into micro-batches through a bounded admission queue (full queue →
  429 with Retry-After).
  --port        7470 (0 = ephemeral, printed on startup)
  --jobs        0 = one worker per core
  --idle-timeout  0 = serve until SIGINT/SIGTERM
  --keep-alive  true; false closes after every response
  --max-conn-requests  1000 requests served per connection before close
  --batch-max   16, largest micro-batch handed to predict_batch
  --batch-wait-ms  2, how long the batcher waits for companion requests
  --queue-cap   256 queued predicts before the server answers 429
";

/// A parsed `--name value` flag list.
type Flags = Vec<(String, String)>;

/// Minimal flag parser: returns (flags, positionals). Accepts both
/// `--name value` and `--name=value`; a flag may not swallow the next
/// flag as its value (`--out --language js` is an error, not a flag
/// named `out` with the value `--language`).
fn parse_flags(args: &[String]) -> Result<(Flags, Vec<String>), String> {
    let mut flags = Vec::new();
    let mut positional = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if let Some(name) = a.strip_prefix("--") {
            if let Some((name, value)) = name.split_once('=') {
                flags.push((name.to_owned(), value.to_owned()));
                i += 1;
            } else {
                let value = args
                    .get(i + 1)
                    .ok_or_else(|| format!("flag --{name} needs a value"))?;
                if value.starts_with("--") {
                    return Err(format!(
                        "flag --{name} needs a value, but got flag `{value}` \
                         (use --{name}=VALUE if the value really starts with --)"
                    ));
                }
                flags.push((name.to_owned(), value.clone()));
                i += 2;
            }
        } else {
            positional.push(a.clone());
            i += 1;
        }
    }
    Ok((flags, positional))
}

/// One flag a subcommand accepts: `(name, one-line help)`. Each command
/// declares a single table, and that table drives both validation
/// ([`check_flags`]) and the generated `pigeon <command> --help` output
/// ([`print_command_help`]) — the help can never drift from what the
/// command actually accepts.
type FlagSpec = (&'static str, &'static str);

/// Rejects flags the subcommand does not understand: a typo like
/// `--max-legnth` must be an error, not a silently applied default.
fn check_flags(command: &str, flags: &Flags, allowed: &[FlagSpec]) -> Result<(), String> {
    for (name, _) in flags {
        if !allowed.iter().any(|(a, _)| a == name) {
            let allowed_list: Vec<String> = allowed.iter().map(|(a, _)| format!("--{a}")).collect();
            return Err(format!(
                "unknown flag --{name} for `pigeon {command}` (allowed: {})",
                allowed_list.join(", ")
            ));
        }
    }
    Ok(())
}

/// `--help`/`-h` anywhere in a subcommand's arguments. Checked before
/// [`parse_flags`] runs: `--help` takes no value, which the parser
/// would otherwise reject.
fn help_requested(args: &[String]) -> bool {
    args.iter().any(|a| a == "--help" || a == "-h")
}

/// Renders a command's help from the same flag table `check_flags`
/// validates against.
fn print_command_help(command: &str, summary: &str, positional: &str, allowed: &[FlagSpec]) {
    let width = allowed.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
    println!("pigeon {command} — {summary}");
    println!();
    println!("USAGE:");
    let trailer = if positional.is_empty() {
        String::new()
    } else {
        format!(" {positional}")
    };
    println!("  pigeon {command} [FLAGS]{trailer}");
    if !allowed.is_empty() {
        println!();
        println!("FLAGS:");
        for (name, help) in allowed {
            println!("  --{name:<width$}  {help}");
        }
    }
}

fn flag<'a>(flags: &'a [(String, String)], name: &str) -> Option<&'a str> {
    flags
        .iter()
        .rev()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
}

fn required_language(flags: &[(String, String)]) -> Result<Language, String> {
    let name = flag(flags, "language").ok_or("--language is required")?;
    Language::from_name(name).ok_or_else(|| format!("unknown language `{name}`"))
}

fn parse_usize(flags: &[(String, String)], name: &str, default: usize) -> Result<usize, String> {
    match flag(flags, name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{name} expects a number, got `{v}`")),
    }
}

fn parse_f64(flags: &[(String, String)], name: &str, default: f64) -> Result<f64, String> {
    match flag(flags, name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{name} expects a number, got `{v}`")),
    }
}

fn parse_bool(flags: &[(String, String)], name: &str, default: bool) -> Result<bool, String> {
    match flag(flags, name) {
        None => Ok(default),
        Some("true") => Ok(true),
        Some("false") => Ok(false),
        Some(v) => Err(format!("--{name} expects true or false, got `{v}`")),
    }
}

/// The shared `--trace-out FILE` / `--timings BOOL` observability flags.
/// Parse before the instrumented work runs (trace recording must be
/// armed up front), then call [`Observability::finish`] once it is done.
struct Observability {
    trace_out: Option<String>,
    timings: bool,
}

impl Observability {
    fn from_flags(flags: &Flags) -> Result<Self, String> {
        let trace_out = flag(flags, "trace-out").map(str::to_owned);
        let timings = parse_bool(flags, "timings", false)?;
        if trace_out.is_some() {
            pigeon::telemetry::set_tracing(true);
        }
        Ok(Observability { trace_out, timings })
    }

    fn finish(&self) -> Result<(), String> {
        if let Some(path) = &self.trace_out {
            std::fs::write(path, pigeon::telemetry::trace_json())
                .map_err(|e| format!("{path}: {e}"))?;
        }
        if self.timings {
            eprint!("{}", pigeon::telemetry::phase_summary());
        }
        Ok(())
    }
}

fn read_file(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

fn read_bytes(path: &str) -> Result<Vec<u8>, String> {
    std::fs::read(path).map_err(|e| format!("{path}: {e}"))
}

/// Loads a model from disk in either format: compiled `.pgnc` artifact
/// (sniffed by magic) or JSON.
fn load_model(path: &str) -> Result<Pigeon, String> {
    Pigeon::load(&read_bytes(path)?).map_err(|e| format!("{path}: {e}"))
}

const PATHS_FLAGS: &[FlagSpec] = &[
    ("language", "source language: js | java | python | csharp"),
    (
        "max-length",
        "longest AST path kept (default 7, the paper's Table 2 setting, at most 16)",
    ),
    ("max-width", "widest AST path kept (default 3, at most 8)"),
    (
        "abstraction",
        "path abstraction level: full | no-arrows | forget-order | first-top-last | \
         first-last | top | no-path",
    ),
];

fn cmd_paths(args: &[String]) -> Result<(), String> {
    if help_requested(args) {
        print_command_help(
            "paths",
            "print a file's AST path-contexts",
            "FILE",
            PATHS_FLAGS,
        );
        return Ok(());
    }
    let (flags, positional) = parse_flags(args)?;
    check_flags("paths", &flags, PATHS_FLAGS)?;
    let language = required_language(&flags)?;
    let [file] = positional.as_slice() else {
        return Err("expected exactly one FILE".into());
    };
    let extraction = extraction_limits(&flags, ExtractionConfig::with_limits(7, 3))?;
    let (max_length, max_width) = (extraction.max_length, extraction.max_width);
    let abstraction = match flag(&flags, "abstraction") {
        None => Abstraction::Full,
        Some(name) => {
            Abstraction::from_name(name).ok_or_else(|| format!("unknown abstraction `{name}`"))?
        }
    };
    let source = read_file(file)?;
    let ast = language.parse(&source)?;
    let contexts = extract(&ast, &extraction);
    println!(
        "{} path-contexts (max_length {max_length}, max_width {max_width}, α = {abstraction}):",
        contexts.len()
    );
    for ctx in &contexts {
        println!(
            "⟨{}, {}, {}⟩",
            ctx.start,
            abstraction.apply(&ctx.path),
            ctx.end
        );
    }
    Ok(())
}

const GENERATE_FLAGS: &[FlagSpec] = &[
    ("language", "source language: js | java | python | csharp"),
    ("files", "number of files to generate (default 100)"),
    ("seed", "corpus generator seed (default 0x914700D5)"),
    (
        "jobs",
        "verification worker threads; 0 = all cores (default 1)",
    ),
];

fn cmd_generate(args: &[String]) -> Result<(), String> {
    if help_requested(args) {
        print_command_help(
            "generate",
            "write a synthetic training corpus",
            "DIR",
            GENERATE_FLAGS,
        );
        return Ok(());
    }
    let (flags, positional) = parse_flags(args)?;
    check_flags("generate", &flags, GENERATE_FLAGS)?;
    let language = required_language(&flags)?;
    let [dir] = positional.as_slice() else {
        return Err("expected exactly one output DIR".into());
    };
    let files = parse_usize(&flags, "files", 100)?;
    let seed = parse_usize(&flags, "seed", 0x9147_00D5)? as u64;
    let jobs = parse_usize(&flags, "jobs", 1)?;
    let corpus = generate(
        language,
        &CorpusConfig::default().with_files(files).with_seed(seed),
    );
    let ext = language_ext(language);
    // Round-trip every document through the matching parser and the
    // well-formedness + scope checks before anything touches disk: a
    // generator bug must fail the run loudly, not poison a corpus.
    let verdicts = parallel_map_indexed(&corpus.docs, jobs, |i, doc| {
        let name = format!("doc{i:05}.{ext}");
        let ast = language
            .parse(&doc.source)
            .map_err(|e| format!("{name}: generated source fails to re-parse: {e}"))?;
        ast.check_invariants().map_err(|e| format!("{name}: {e}"))?;
        let errors: Vec<String> = pigeon::analysis::audit_ast(language, &name, &ast)
            .into_iter()
            .filter(|d| d.severity >= Severity::Warning)
            .map(|d| d.render_text())
            .collect();
        if errors.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "{name}: generated source fails the well-formedness audit: {}",
                errors.join("; ")
            ))
        }
    });
    if let Some(failure) = verdicts.into_iter().find_map(Result::err) {
        return Err(failure);
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
    for (i, doc) in corpus.docs.iter().enumerate() {
        let path = Path::new(dir).join(format!("doc{i:05}.{ext}"));
        std::fs::write(&path, &doc.source).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let stats = corpus.stats();
    println!(
        "wrote {} files ({:.1} KB, {} functions) to {dir}",
        stats.files,
        stats.bytes as f64 / 1024.0,
        stats.functions
    );
    Ok(())
}

/// `--max-length`/`--max-width` over `default`'s limits, bounded by
/// `PigeonConfigBuilder::build` as every trained predictor's limits are.
fn extraction_limits(
    flags: &[(String, String)],
    default: ExtractionConfig,
) -> Result<ExtractionConfig, String> {
    PigeonConfig::builder()
        .extraction(default)
        .limits(
            parse_usize(flags, "max-length", default.max_length)?,
            parse_usize(flags, "max-width", default.max_width)?,
        )
        .build()
        .map(|config| config.extraction)
        .map_err(|e| e.to_string())
}

fn train_config(flags: &[(String, String)]) -> Result<PigeonConfig, String> {
    // Default length 4 (the facade's training default, tuned for the
    // synthetic corpora) — deliberately shorter than `pigeon paths`'
    // default of 7, which shows the paper's untuned Table 2 setting.
    // The builder owns the validation (`keep_prob` must be a probability
    // in (0, 1], limits must be non-zero, …).
    PigeonConfig::builder()
        .limits(
            parse_usize(flags, "max-length", 4)?,
            parse_usize(flags, "max-width", 3)?,
        )
        .jobs(parse_usize(flags, "jobs", 1)?)
        .keep_prob(parse_f64(flags, "keep-prob", 1.0)?)
        .dataflow_contexts(parse_bool(flags, "dataflow-contexts", false)?)
        .build()
        .map_err(|e| e.to_string())
}

/// Maps a `--task` value to the prediction target.
fn parse_task(task: &str) -> Result<ElementClass, String> {
    match task {
        "vars" => Ok(ElementClass::Variable),
        "methods" => Ok(ElementClass::Method),
        other => Err(format!("unknown task `{other}` (vars|methods)")),
    }
}

/// Parses `--shard I/N` (0-based index, total count).
fn parse_shard(spec: &str) -> Result<(usize, usize), String> {
    let bad = || format!("--shard expects I/N (e.g. 0/4), got `{spec}`");
    let (i, n) = spec.split_once('/').ok_or_else(bad)?;
    let index: usize = i.parse().map_err(|_| bad())?;
    let count: usize = n.parse().map_err(|_| bad())?;
    if count == 0 || index >= count {
        return Err(format!(
            "--shard index {index} out of range {count} (indices are 0-based)"
        ));
    }
    Ok((index, count))
}

/// Set by the SIGINT handler `pigeon train` installs when checkpointing
/// is on; the SGD loop polls it between instances.
static TRAIN_INTERRUPT: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_train_interrupt_handler() {
    extern "C" fn on_signal(_signum: i32) {
        TRAIN_INTERRUPT.store(true, Ordering::SeqCst);
    }
    extern "C" {
        // Provided by libc, which std already links.
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    let handler = on_signal as extern "C" fn(i32) as *const () as usize;
    unsafe {
        signal(SIGINT, handler);
    }
}

#[cfg(not(unix))]
fn install_train_interrupt_handler() {}

/// The checkpoint file inside `--checkpoint-dir` / `--resume` DIR.
fn checkpoint_path(dir: &str) -> std::path::PathBuf {
    Path::new(dir).join("checkpoint.pgnc")
}

const TRAIN_FLAGS: &[FlagSpec] = &[
    ("language", "source language: js | java | python | csharp"),
    ("out", "where to write the trained model (MODEL.json)"),
    ("task", "prediction target: vars (default) | methods"),
    (
        "max-length",
        "longest AST path kept (default 4, at most 16)",
    ),
    ("max-width", "widest AST path kept (default 3, at most 8)"),
    (
        "jobs",
        "worker threads; 0 = all cores (default 1; output is identical for any value)",
    ),
    (
        "keep-prob",
        "path-context keep probability in (0, 1] (default 1.0)",
    ),
    (
        "dataflow-contexts",
        "also extract edge-typed data-flow path-contexts (default false)",
    ),
    ("synthetic", "train on N generated files instead of FILEs"),
    (
        "shard",
        "run only the I-th of N corpus slices (I/N); requires --emit-partial",
    ),
    (
        "emit-partial",
        "where the shard's training partial goes (OUT.pgnc)",
    ),
    (
        "checkpoint-every",
        "snapshot SGD state every N epochs (requires --checkpoint-dir)",
    ),
    (
        "checkpoint-dir",
        "directory holding the training checkpoint",
    ),
    (
        "resume",
        "resume from a checkpoint directory (same corpus and flags)",
    ),
    (
        "update",
        "fold new documents into this existing JSON model (requires --add)",
    ),
    ("add", "directory of new documents for --update"),
    (
        "trace-out",
        "write a Chrome trace-event JSON timeline to FILE",
    ),
    (
        "timings",
        "print a per-phase wall-time table to stderr (true|false)",
    ),
];

fn cmd_train(args: &[String]) -> Result<(), String> {
    if help_requested(args) {
        print_command_help(
            "train",
            "train a name-prediction model",
            "[FILE...]",
            TRAIN_FLAGS,
        );
        return Ok(());
    }
    let (flags, positional) = parse_flags(args)?;
    check_flags("train", &flags, TRAIN_FLAGS)?;
    // A shard worker writes only its partial; every other mode writes a
    // model and therefore needs --out.
    let model_out = flag(&flags, "out");
    let require_out = || model_out.ok_or("--out is required");
    let observability = Observability::from_flags(&flags)?;

    // Incremental update: no extraction over the original corpus.
    if let Some(model_path) = flag(&flags, "update") {
        let out = require_out()?;
        let add_dir = flag(&flags, "add").ok_or("--update requires --add NEW_DOCS_DIR")?;
        // The update keeps the base model's language, task, extraction
        // limits and training knobs, so any other flag would be ignored.
        const UPDATE_FLAGS: [&str; 5] = ["update", "add", "out", "trace-out", "timings"];
        for (name, _) in TRAIN_FLAGS {
            if !UPDATE_FLAGS.contains(name) && flag(&flags, name).is_some() {
                return Err(format!("--update cannot be combined with --{name}"));
            }
        }
        if !positional.is_empty() {
            return Err(
                "--update cannot be combined with FILE arguments; new documents come from --add"
                    .into(),
            );
        }
        let base = load_model(model_path)?;
        let files = list_corpus(base.language(), add_dir)?;
        let refs: Vec<&str> = files.iter().map(|(_, s)| s.as_str()).collect();
        let updated = base.update(&refs).map_err(|e| e.to_string())?;
        let json = updated.to_json().map_err(|e| e.to_string())?;
        std::fs::write(out, json).map_err(|e| format!("{out}: {e}"))?;
        observability.finish()?;
        println!(
            "folded {} new files from {add_dir} into {model_path}; model saved to {out}",
            refs.len()
        );
        return Ok(());
    }
    if flag(&flags, "add").is_some() {
        return Err("--add requires --update MODEL".into());
    }

    let language = required_language(&flags)?;
    let target = parse_task(flag(&flags, "task").unwrap_or("vars"))?;
    let config = train_config(&flags)?;

    let sources: Vec<String> = if let Some(n) = flag(&flags, "synthetic") {
        let n: usize = n
            .parse()
            .map_err(|_| format!("--synthetic expects a number, got `{n}`"))?;
        generate(language, &CorpusConfig::default().with_files(n))
            .docs
            .into_iter()
            .map(|d| d.source)
            .collect()
    } else if positional.is_empty() {
        return Err("provide training FILEs or --synthetic N".into());
    } else {
        positional
            .iter()
            .map(|p| read_file(p))
            .collect::<Result<_, _>>()?
    };
    let refs: Vec<&str> = sources.iter().map(String::as_str).collect();

    // Shard worker: extraction + statistics over a corpus slice only.
    if let Some(spec) = flag(&flags, "shard") {
        let emit =
            flag(&flags, "emit-partial").ok_or("--shard requires --emit-partial OUT.part")?;
        for conflict in ["checkpoint-every", "checkpoint-dir", "resume"] {
            if flag(&flags, conflict).is_some() {
                return Err(format!("--shard cannot be combined with --{conflict}"));
            }
        }
        let (index, count) = parse_shard(spec)?;
        let bytes = Pigeon::build_training_partial(language, target, &refs, index, count, &config)
            .map_err(|e| e.to_string())?;
        std::fs::write(emit, &bytes).map_err(|e| format!("{emit}: {e}"))?;
        observability.finish()?;
        println!(
            "shard {index}/{count}: training partial for {} of {} files saved to {emit} \
             ({} bytes); combine with `pigeon merge`",
            pigeon::eval::shard_range(refs.len(), index, count).len(),
            refs.len(),
            bytes.len()
        );
        return Ok(());
    }
    if flag(&flags, "emit-partial").is_some() {
        return Err("--emit-partial requires --shard I/N".into());
    }

    let checkpoint_every = parse_usize(&flags, "checkpoint-every", 0)?;
    let checkpoint_dir = flag(&flags, "checkpoint-dir");
    let resume_dir = flag(&flags, "resume");
    if checkpoint_every > 0 && checkpoint_dir.is_none() {
        return Err("--checkpoint-every requires --checkpoint-dir DIR".into());
    }

    let out = require_out()?;

    // One trainer for every mode: without a checkpoint directory no
    // snapshot is written and no interrupt handler is installed.
    let resume = match resume_dir {
        None => None,
        Some(dir) => {
            let path = checkpoint_path(dir);
            let bytes = read_bytes(&path.display().to_string())?;
            let state =
                decode_checkpoint(&bytes).map_err(|e| format!("{}: {e}", path.display()))?;
            println!(
                "resuming from {} (epoch {}/{}, instance {})",
                path.display(),
                state.epoch(),
                state.total_epochs(),
                state.pos()
            );
            Some(state)
        }
    };
    let save_dir = checkpoint_dir.or(resume_dir);
    let mut save_error: Option<String> = None;
    let save = |state: &pigeon::crf::TrainState, error: &mut Option<String>| {
        let dir = save_dir.expect("checkpointing paths require a directory");
        let path = checkpoint_path(dir);
        let result = std::fs::create_dir_all(dir)
            .map_err(|e| format!("{dir}: {e}"))
            .and_then(|()| {
                std::fs::write(&path, encode_checkpoint(state))
                    .map_err(|e| format!("{}: {e}", path.display()))
            });
        if let Err(e) = result {
            // Keep training; a full disk must not kill the run, but the
            // user needs to know resume is not covered up to here.
            eprintln!("warning: checkpoint not saved: {e}");
            *error = Some(e);
        } else {
            *error = None;
        }
    };
    if save_dir.is_some() {
        install_train_interrupt_handler();
    }
    let mut on_checkpoint = |state: &pigeon::crf::TrainState| save(state, &mut save_error);
    let interrupt = || TRAIN_INTERRUPT.load(Ordering::SeqCst);
    // Without a directory to save to, no hook is installed, so the run
    // never snapshots and never fingerprints its corpus.
    let hooked = save_dir.is_some();
    let control = TrainControl {
        resume,
        checkpoint_every,
        on_checkpoint: if hooked {
            Some(&mut on_checkpoint)
        } else {
            None
        },
        interrupt: if hooked { Some(&interrupt) } else { None },
    };
    let run = Pigeon::train_namer_resumable(language, target, &refs, &config, control)
        .map_err(|e| e.to_string())?;
    match run {
        TrainRun::Completed(model) => {
            let json = model.to_json().map_err(|e| e.to_string())?;
            std::fs::write(out, json).map_err(|e| format!("{out}: {e}"))?;
            // A stale snapshot would silently resume a finished run.
            if let Some(dir) = save_dir {
                let _ = std::fs::remove_file(checkpoint_path(dir));
            }
            observability.finish()?;
            println!("trained on {} files; model saved to {out}", refs.len());
            Ok(())
        }
        TrainRun::Interrupted(state) => {
            let dir = save_dir
                .ok_or("interrupted, but no --checkpoint-dir or --resume directory to save to")?;
            let mut error = None;
            save(&state, &mut error);
            if let Some(e) = error {
                return Err(format!("interrupted, and the final checkpoint failed: {e}"));
            }
            observability.finish()?;
            println!(
                "interrupted at epoch {}/{} (instance {}); checkpoint saved to {} — \
                 resume with `pigeon train --resume {dir}` and the same corpus and flags",
                state.epoch(),
                state.total_epochs(),
                state.pos(),
                checkpoint_path(dir).display()
            );
            Ok(())
        }
    }
}

const MERGE_FLAGS: &[FlagSpec] = &[
    (
        "out",
        "where to write the finished model (MODEL.json or MODEL.pgnc)",
    ),
    (
        "quantize",
        "artifact weight quantization: f32 (default) | f16 | i8",
    ),
    (
        "trace-out",
        "write a Chrome trace-event JSON timeline to FILE",
    ),
    (
        "timings",
        "print a per-phase wall-time table to stderr (true|false)",
    ),
];

fn cmd_merge(args: &[String]) -> Result<(), String> {
    if help_requested(args) {
        print_command_help(
            "merge",
            "combine shard partials into a finished model",
            "PART.pgnc...",
            MERGE_FLAGS,
        );
        return Ok(());
    }
    let (flags, positional) = parse_flags(args)?;
    check_flags("merge", &flags, MERGE_FLAGS)?;
    let out = flag(&flags, "out").ok_or("--out is required (MODEL.json or MODEL.pgnc)")?;
    if positional.is_empty() {
        return Err(
            "provide partial files (written by `pigeon train --shard I/N --emit-partial`)".into(),
        );
    }
    let quant = match flag(&flags, "quantize") {
        None => Quant::F32,
        Some(name) => {
            Quant::from_name(name).ok_or_else(|| format!("unknown quantization `{name}`"))?
        }
    };
    let observability = Observability::from_flags(&flags)?;
    let parts: Vec<Vec<u8>> = positional
        .iter()
        .map(|p| read_bytes(p))
        .collect::<Result<_, _>>()?;
    let model = Pigeon::from_partials(&parts).map_err(|e| e.to_string())?;
    if out.ends_with(".pgnc") {
        let bytes = model.to_artifact(quant).map_err(|e| e.to_string())?;
        std::fs::write(out, &bytes).map_err(|e| format!("{out}: {e}"))?;
    } else {
        let json = model.to_json().map_err(|e| e.to_string())?;
        std::fs::write(out, json).map_err(|e| format!("{out}: {e}"))?;
    }
    observability.finish()?;
    println!(
        "merged {} partials; finished model saved to {out}",
        parts.len()
    );
    Ok(())
}

const COMPILE_FLAGS: &[FlagSpec] = &[
    ("out", "where to write the compiled artifact (OUT.pgnc)"),
    ("quantize", "weight quantization: f32 (default) | f16 | i8"),
];

fn cmd_compile(args: &[String]) -> Result<(), String> {
    if help_requested(args) {
        print_command_help(
            "compile",
            "freeze a model into the compiled binary artifact",
            "MODEL.json",
            COMPILE_FLAGS,
        );
        return Ok(());
    }
    let (flags, positional) = parse_flags(args)?;
    check_flags("compile", &flags, COMPILE_FLAGS)?;
    let (input, output) = match (flag(&flags, "out"), positional.as_slice()) {
        (Some(out), [input]) => (input.as_str(), out),
        (Some(_), rest) => {
            return Err(format!(
                "--out takes exactly one MODEL positional, got {}",
                rest.len()
            ));
        }
        (None, _) => return Err("expected `pigeon compile --out OUT.pgnc MODEL.json`".into()),
    };
    let quant = match flag(&flags, "quantize") {
        None => Quant::F32,
        Some(name) => {
            Quant::from_name(name).ok_or_else(|| format!("unknown quantization `{name}`"))?
        }
    };
    // Load through the sniffing path so recompiling an artifact (e.g.
    // to change quantization) works just like compiling JSON.
    let model = load_model(input)?;
    let bytes = model.to_artifact(quant).map_err(|e| e.to_string())?;
    std::fs::write(output, &bytes).map_err(|e| format!("{output}: {e}"))?;
    println!(
        "compiled {input} → {output} ({} bytes, {} quantization)",
        bytes.len(),
        quant.name()
    );
    Ok(())
}

const PREDICT_FLAGS: &[FlagSpec] = &[
    (
        "model",
        "trained model to load, JSON or compiled .pgnc (sniffed by magic)",
    ),
    (
        "trace-out",
        "write a Chrome trace-event JSON timeline to FILE",
    ),
    (
        "timings",
        "print a per-phase wall-time table to stderr (true|false)",
    ),
];

fn cmd_predict(args: &[String]) -> Result<(), String> {
    if help_requested(args) {
        print_command_help(
            "predict",
            "suggest names for a file's elements",
            "FILE",
            PREDICT_FLAGS,
        );
        return Ok(());
    }
    let (flags, positional) = parse_flags(args)?;
    check_flags("predict", &flags, PREDICT_FLAGS)?;
    let model_path = flag(&flags, "model").ok_or("--model is required")?;
    let [file] = positional.as_slice() else {
        return Err("expected exactly one FILE".into());
    };
    let observability = Observability::from_flags(&flags)?;
    let model = load_model(model_path)?;
    let source = read_file(file)?;
    let predictions = model.predict(&source).map_err(|e| e.to_string())?;
    observability.finish()?;
    if predictions.is_empty() {
        println!("no predictable elements found");
        return Ok(());
    }
    for p in predictions {
        let top: Vec<&str> = p
            .candidates
            .iter()
            .take(5)
            .map(|(n, _)| n.as_str())
            .collect();
        println!(
            "{:<16} → {:<16} (top: {})",
            p.current_name,
            p.predicted_name,
            top.join(", ")
        );
    }
    Ok(())
}

const SERVE_FLAGS: &[FlagSpec] = &[
    (
        "model",
        "trained model to serve, JSON or compiled .pgnc (sniffed by magic); \
         optional with --cache-dir",
    ),
    ("host", "interface to bind (default 127.0.0.1)"),
    (
        "port",
        "port to bind; 0 = ephemeral, printed on startup (default 7470)",
    ),
    ("jobs", "worker threads; 0 = one per core"),
    (
        "max-request-bytes",
        "largest accepted request body (default 1 MiB; 64 MiB without --model)",
    ),
    ("read-timeout-ms", "per-connection socket read timeout"),
    (
        "idle-timeout",
        "exit after SECS without a request; 0 = serve forever",
    ),
    (
        "keep-alive",
        "honor HTTP/1.1 persistent connections (default true)",
    ),
    (
        "max-conn-requests",
        "requests served per connection before close (default 1000)",
    ),
    (
        "batch-max",
        "largest micro-batch handed to predict_batch (default 16)",
    ),
    (
        "batch-wait-ms",
        "how long the batcher waits for companion requests (default 2)",
    ),
    (
        "queue-cap",
        "queued predicts before the server answers 429 (default 256)",
    ),
    (
        "cache-dir",
        "partial cache directory; arms the distributed-training routes",
    ),
    (
        "lease-timeout-ms",
        "base shard-lease duration before reassignment (default 60000)",
    ),
];

/// Builds a [`ServeConfig`] from the `serve` flags.
fn serve_config(flags: &Flags) -> Result<ServeConfig, String> {
    let defaults = ServeConfig::default();
    let port = parse_usize(flags, "port", defaults.port as usize)?;
    let port =
        u16::try_from(port).map_err(|_| format!("--port expects 0..=65535, got `{port}`"))?;
    let idle_secs = parse_usize(flags, "idle-timeout", 0)?;
    Ok(ServeConfig {
        host: flag(flags, "host").unwrap_or(&defaults.host).to_owned(),
        port,
        workers: parse_usize(flags, "jobs", defaults.workers)?,
        max_request_bytes: parse_usize(flags, "max-request-bytes", defaults.max_request_bytes)?,
        read_timeout: Duration::from_millis(parse_usize(
            flags,
            "read-timeout-ms",
            defaults.read_timeout.as_millis() as usize,
        )? as u64),
        idle_timeout: (idle_secs > 0).then(|| Duration::from_secs(idle_secs as u64)),
        keep_alive: parse_bool(flags, "keep-alive", defaults.keep_alive)?,
        max_conn_requests: parse_usize(flags, "max-conn-requests", defaults.max_conn_requests)?,
        batch_max: parse_usize(flags, "batch-max", defaults.batch_max)?,
        batch_wait: Duration::from_millis(parse_usize(
            flags,
            "batch-wait-ms",
            defaults.batch_wait.as_millis() as usize,
        )? as u64),
        queue_cap: parse_usize(flags, "queue-cap", defaults.queue_cap)?,
        cache_dir: flag(flags, "cache-dir").map(str::to_owned),
        lease_timeout: Duration::from_millis(parse_usize(
            flags,
            "lease-timeout-ms",
            defaults.lease_timeout.as_millis() as usize,
        )? as u64),
    })
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    if help_requested(args) {
        print_command_help(
            "serve",
            "HTTP prediction server and training coordinator (v1 API)",
            "",
            SERVE_FLAGS,
        );
        return Ok(());
    }
    let (flags, positional) = parse_flags(args)?;
    check_flags("serve", &flags, SERVE_FLAGS)?;
    if !positional.is_empty() {
        return Err(format!(
            "serve takes no positional arguments, got `{}`",
            positional[0]
        ));
    }
    let mut config = serve_config(&flags)?;
    let model = match flag(&flags, "model") {
        Some(path) => Some(load_model(path)?),
        None if config.cache_dir.is_some() => {
            // A model-less coordinator takes partial uploads, far larger
            // than predict bodies: give it a roomier default body bound.
            if flag(&flags, "max-request-bytes").is_none() {
                config.max_request_bytes = 64 << 20;
            }
            None
        }
        None => return Err("serve needs --model MODEL, --cache-dir DIR, or both".into()),
    };
    bind(&config)?.run(model)
}

const WORK_FLAGS: &[FlagSpec] = &[
    (
        "coordinator",
        "coordinator base URL, e.g. http://127.0.0.1:7470 (required)",
    ),
    (
        "worker",
        "worker name reported on leases (default worker-<pid>)",
    ),
    (
        "poll-ms",
        "delay between lease polls while waiting (default 500)",
    ),
    (
        "throttle-ms",
        "artificial delay before each upload (straggler injection; default 0)",
    ),
    ("jobs", "extraction worker threads; 0 = all cores"),
    (
        "exit-when-idle",
        "exit once the coordinator has no work (default true)",
    ),
];

fn cmd_work(args: &[String]) -> Result<(), String> {
    if help_requested(args) {
        print_command_help("work", "distributed-training worker loop", "", WORK_FLAGS);
        return Ok(());
    }
    let (flags, positional) = parse_flags(args)?;
    check_flags("work", &flags, WORK_FLAGS)?;
    if !positional.is_empty() {
        return Err(format!(
            "work takes no positional arguments, got `{}`",
            positional[0]
        ));
    }
    let coordinator = flag(&flags, "coordinator")
        .ok_or("--coordinator is required (e.g. http://127.0.0.1:7470)")?;
    let options = WorkerOptions {
        coordinator: coordinator.to_owned(),
        name: flag(&flags, "worker")
            .map(str::to_owned)
            .unwrap_or_else(|| format!("worker-{}", std::process::id())),
        poll: Duration::from_millis(parse_usize(&flags, "poll-ms", 500)? as u64),
        throttle: Duration::from_millis(parse_usize(&flags, "throttle-ms", 0)? as u64),
        jobs: parse_usize(&flags, "jobs", 0)?,
        exit_when_idle: parse_bool(&flags, "exit-when-idle", true)?,
    };
    run_worker(&options)
}

const EXPERIMENT_FLAGS: &[FlagSpec] = &[
    ("language", "source language: js | java | python | csharp"),
    ("files", "synthetic corpus size (default 400)"),
    ("task", "prediction target: vars (default) | methods"),
    ("jobs", "worker threads; 0 = all cores (default 1)"),
    (
        "max-length",
        "override the per-language tuned path length limit (at most 16)",
    ),
    (
        "max-width",
        "override the per-language tuned path width limit (at most 8)",
    ),
    (
        "dataflow-contexts",
        "also extract edge-typed data-flow path-contexts (default false)",
    ),
    (
        "trace-out",
        "write a Chrome trace-event JSON timeline to FILE",
    ),
    (
        "timings",
        "print a per-phase wall-time table to stderr (true|false)",
    ),
];

fn cmd_experiment(args: &[String]) -> Result<(), String> {
    if help_requested(args) {
        print_command_help(
            "experiment",
            "train + evaluate on a synthetic corpus",
            "",
            EXPERIMENT_FLAGS,
        );
        return Ok(());
    }
    let (flags, _) = parse_flags(args)?;
    check_flags("experiment", &flags, EXPERIMENT_FLAGS)?;
    let language = required_language(&flags)?;
    let files = parse_usize(&flags, "files", 400)?;
    let task = flag(&flags, "task").unwrap_or("vars");
    let mut exp = match task {
        "vars" => NameExperiment::var_names(language),
        "methods" => NameExperiment::method_names(language),
        other => return Err(format!("unknown task `{other}` (vars|methods)")),
    };
    exp.corpus = exp.corpus.with_files(files);
    exp.jobs = parse_usize(&flags, "jobs", 1)?;
    // The per-language tuned limits unless overridden — that is how the
    // equal-context-budget comparison (data-flow paths vs longer AST
    // paths) is run.
    exp.extraction = extraction_limits(&flags, exp.extraction)?;
    if parse_bool(&flags, "dataflow-contexts", false)? {
        exp = exp.with_dataflow(pigeon::dataflow_edge_features);
    }
    let observability = Observability::from_flags(&flags)?;
    let out = run_name_experiment(&exp);
    observability.finish()?;
    println!(
        "{language} {task}: accuracy {:.1}%  top-{} {:.1}%  F1 {:.1}  ({} predictions, {} features, trained in {:.1}s)",
        100.0 * out.accuracy,
        exp.top_k,
        100.0 * out.topk_accuracy,
        100.0 * out.f1,
        out.n_test,
        out.n_features,
        out.train_secs,
    );
    Ok(())
}

/// Prints the stable diagnostic-code catalog (`pigeon audit
/// --list-codes true`). The JSON form carries the same `pigeon-audit/1`
/// schema tag as audit reports and is byte-stable: the catalog is
/// sorted by code and the serde shim's object keys are ordered.
fn print_code_catalog(format: &str) {
    let catalog = pigeon::analysis::code_catalog();
    if format == "json" {
        let codes: Vec<serde_json::Value> = catalog
            .iter()
            .map(|&(code, description)| {
                serde_json::json!({ "code": code, "description": description })
            })
            .collect();
        let value = serde_json::json!({
            "schema": "pigeon-audit/1",
            "codes": serde_json::Value::Array(codes),
        });
        println!(
            "{}",
            serde_json::to_string(&value).expect("code catalog serializes")
        );
    } else {
        let width = catalog.iter().map(|&(c, _)| c.len()).max().unwrap_or(0);
        for (code, description) in catalog {
            println!("{code:width$}  {description}");
        }
    }
}

/// Expands `paths` into audit units: files are taken as-is, directories
/// are walked (non-recursively) for the language's extension, sorted by
/// name so the report is stable.
fn collect_audit_units(language: Language, paths: &[String]) -> Result<Vec<SourceUnit>, String> {
    let ext = language_ext(language);
    let mut units = Vec::new();
    for path in paths {
        let meta = std::fs::metadata(path).map_err(|e| format!("{path}: {e}"))?;
        if meta.is_dir() {
            let mut files: Vec<std::path::PathBuf> = std::fs::read_dir(path)
                .map_err(|e| format!("{path}: {e}"))?
                .filter_map(|entry| entry.ok().map(|e| e.path()))
                .filter(|p| p.is_file() && p.extension().is_some_and(|e| e == ext))
                .collect();
            files.sort();
            for file in files {
                let name = file.display().to_string();
                units.push(SourceUnit {
                    source: read_file(&name)?,
                    name,
                });
            }
        } else {
            units.push(SourceUnit {
                name: path.clone(),
                source: read_file(path)?,
            });
        }
    }
    Ok(units)
}

const AUDIT_FLAGS: &[FlagSpec] = &[
    (
        "language",
        "source language for PATHs: js | java | python | csharp",
    ),
    (
        "model",
        "model, partial or checkpoint to audit (kind sniffed from the container)",
    ),
    (
        "format",
        "report format: text (default) | json (schema pigeon-audit/1)",
    ),
    (
        "deny",
        "fail (exit 2) at or above this severity: info | warning | error (default)",
    ),
    (
        "jobs",
        "worker threads; 0 = all cores (output is byte-identical for any value)",
    ),
    (
        "near-dups",
        "run the O(files²) MinHash near-duplicate scan (default true)",
    ),
    (
        "list-codes",
        "print the diagnostic-code catalog and exit (true)",
    ),
];

fn cmd_audit(args: &[String]) -> Result<ExitCode, String> {
    if help_requested(args) {
        print_command_help(
            "audit",
            "static-analysis audit over sources and models",
            "[PATH...]",
            AUDIT_FLAGS,
        );
        return Ok(ExitCode::SUCCESS);
    }
    let (flags, positional) = parse_flags(args)?;
    check_flags("audit", &flags, AUDIT_FLAGS)?;
    let format = flag(&flags, "format").unwrap_or("text");
    if !matches!(format, "text" | "json") {
        return Err(format!("--format expects text or json, got `{format}`"));
    }
    if parse_bool(&flags, "list-codes", false)? {
        print_code_catalog(format);
        return Ok(ExitCode::SUCCESS);
    }
    let deny = match flag(&flags, "deny") {
        None => Severity::Error,
        Some(name) => Severity::from_name(name)
            .ok_or_else(|| format!("--deny expects info, warning or error, got `{name}`"))?,
    };
    let jobs = parse_usize(&flags, "jobs", 0)?;
    let near_dups = match flag(&flags, "near-dups") {
        None | Some("true") => true,
        Some("false") => false,
        Some(v) => return Err(format!("--near-dups expects true or false, got `{v}`")),
    };
    let model_path = flag(&flags, "model");
    if positional.is_empty() && model_path.is_none() {
        return Err("provide source PATHs (with --language) and/or --model MODEL.json".into());
    }

    let mut report = pigeon::analysis::Report::default();
    if !positional.is_empty() {
        let language = required_language(&flags)?;
        let units = collect_audit_units(language, &positional)?;
        report = audit_sources(
            language,
            &units,
            &AuditConfig {
                jobs,
                near_dups,
                ..AuditConfig::default()
            },
        );
    }
    if let Some(path) = model_path {
        report.units_audited += 1;
        let bytes = read_bytes(path)?;
        if container_kind(&bytes) == Some(KIND_PARTIAL) {
            // Training partial: full container + content decode, which
            // also holds the documents to exactly the shard's range.
            match decode_partial(&bytes) {
                Err(e) => report.diagnostics.push(pigeon::analysis::Diagnostic::new(
                    "partial-load",
                    Severity::Error,
                    path,
                    e,
                )),
                Ok(partial) => report.diagnostics.push(pigeon::analysis::Diagnostic::new(
                    "partial-info",
                    Severity::Info,
                    path,
                    format!(
                        "valid shard {}/{} with {} of {} documents",
                        partial.meta.shard_index,
                        partial.meta.shard_count,
                        partial.docs.len(),
                        partial.meta.total_docs
                    ),
                )),
            }
        } else if container_kind(&bytes) == Some(KIND_CHECKPOINT) {
            // SGD checkpoint: the decoder validates the container, the
            // shuffle permutation, weight/sum sort order and finiteness.
            match decode_checkpoint(&bytes) {
                Err(e) => report.diagnostics.push(pigeon::analysis::Diagnostic::new(
                    "checkpoint-load",
                    Severity::Error,
                    path,
                    e,
                )),
                Ok(state) => report.diagnostics.push(pigeon::analysis::Diagnostic::new(
                    "checkpoint-info",
                    Severity::Info,
                    path,
                    format!(
                        "valid checkpoint at epoch {}/{} (instance {})",
                        state.epoch(),
                        state.total_epochs(),
                        state.pos()
                    ),
                )),
            }
        } else if is_artifact(&bytes) {
            // Compiled artifact: the decoder enforces container
            // integrity (magic, checksums, section bounds, id ranges);
            // lint_artifact surfaces violations as diagnostics and
            // runs the usual model-health lints on a clean decode.
            report.diagnostics.extend(lint_artifact(path, &bytes));
        } else {
            match String::from_utf8(bytes)
                .map_err(|e| e.to_string())
                .and_then(|json| Pigeon::from_json(&json).map_err(|e| e.to_string()))
            {
                Err(e) => report.diagnostics.push(pigeon::analysis::Diagnostic::new(
                    "model-load",
                    Severity::Error,
                    path,
                    e,
                )),
                Ok(model) => {
                    let language = model.language();
                    report.diagnostics.extend(
                        lint_crf(
                            path,
                            model.crf_model(),
                            model.vocabs().features.len(),
                            model.vocabs().labels.len(),
                        )
                        .into_iter()
                        .map(|d| d.with_language(language)),
                    );
                }
            }
        }
    }

    match format {
        "json" => println!("{}", report.render_json()),
        _ => print!("{}", report.render_text()),
    }
    Ok(if report.denied_count(deny) > 0 {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_flags_splits_flags_and_positionals() {
        let (flags, pos) = parse_flags(&args(&["--language", "js", "a.js", "b.js"])).unwrap();
        assert_eq!(flags, [("language".to_owned(), "js".to_owned())]);
        assert_eq!(pos, ["a.js", "b.js"]);
    }

    #[test]
    fn parse_flags_accepts_equals_syntax() {
        let (flags, pos) = parse_flags(&args(&["--jobs=4", "--keep-prob=0.5", "f.js"])).unwrap();
        assert_eq!(
            flags,
            [
                ("jobs".to_owned(), "4".to_owned()),
                ("keep-prob".to_owned(), "0.5".to_owned()),
            ]
        );
        assert_eq!(pos, ["f.js"]);
    }

    #[test]
    fn parse_flags_equals_value_may_start_with_dashes() {
        let (flags, _) = parse_flags(&args(&["--out=--weird.json"])).unwrap();
        assert_eq!(flags, [("out".to_owned(), "--weird.json".to_owned())]);
    }

    #[test]
    fn parse_flags_rejects_flag_shaped_value() {
        let err = parse_flags(&args(&["--out", "--language", "js"])).unwrap_err();
        assert!(err.contains("--out needs a value"), "{err}");
        assert!(err.contains("--language"), "{err}");
    }

    #[test]
    fn parse_flags_rejects_trailing_flag() {
        let err = parse_flags(&args(&["--language", "js", "--out"])).unwrap_err();
        assert!(err.contains("--out needs a value"), "{err}");
    }

    #[test]
    fn train_config_validates_keep_prob() {
        let flags = vec![("keep-prob".to_owned(), "1.5".to_owned())];
        let err = train_config(&flags).unwrap_err();
        assert!(err.contains("keep_prob"), "{err}");
        assert!(err.contains("(0, 1]"), "{err}");
    }

    #[test]
    fn train_config_rejects_zero_max_length() {
        let flags = vec![("max-length".to_owned(), "0".to_owned())];
        let err = train_config(&flags).unwrap_err();
        assert!(err.contains("max_length"), "{err}");
    }

    #[test]
    fn parse_bool_accepts_true_false_only() {
        assert!(parse_bool(&[], "timings", false).is_ok_and(|b| !b));
        let flags = vec![("timings".to_owned(), "true".to_owned())];
        assert!(parse_bool(&flags, "timings", false).unwrap());
        let flags = vec![("timings".to_owned(), "yes".to_owned())];
        assert!(parse_bool(&flags, "timings", false).is_err());
    }

    #[test]
    fn last_occurrence_of_a_flag_wins() {
        let (flags, _) = parse_flags(&args(&["--jobs", "2", "--jobs", "8"])).unwrap();
        assert_eq!(flag(&flags, "jobs"), Some("8"));
    }
}
