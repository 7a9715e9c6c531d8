//! The training workloads: `train` (the default `pigeon train` path for
//! all four languages) and `train_distributed` (JS training through an
//! in-process coordinator and `nproc` worker threads).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use pigeon::core::{derive_seed, downsample, DOWNSAMPLE_SEED};
use pigeon::corpus::Language;
use pigeon::crf::artifact::{write_artifact, ArtifactMeta, Quant};
use pigeon::crf::{train_from_statistics, CrfConfig, CrfModel, RawStatistics};
use pigeon::distrib::{language_ext, list_corpus, run_worker, WorkerOptions};
use pigeon::eval::partial::{decode_partial, merge_partials};
use pigeon::eval::{build_name_graph, extract_edge_features, ElementClass, Representation, Vocabs};
use pigeon::serve::{self, ServeConfig};
use pigeon::{Pigeon, PigeonConfig};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::host::Host;
use crate::http::{wait_healthy, Client};
use crate::trace::Tracer;
use crate::{
    generate, median, ms, nproc, record_peak_rss, reset_peak_rss, sub_seed, Accuracy, Args,
    Outcome, WorkDir,
};

/// Training files per language (generator defaults).
const TRAIN_FILES: usize = 300;
/// Held-out files per language for the accuracy metrics.
const HELD_OUT: usize = 200;
/// Corpus reads per `train` run; `setup_s` is their median.
const READS: usize = 21;
/// Timed repetitions at least, even past `--seconds`.
const MIN_REPS: usize = 3;
/// Shards per distributed job, per worker thread.
const SHARDS_PER_WORKER: usize = 4;
/// Worker lease-poll interval.
const WORKER_POLL: Duration = Duration::from_millis(5);
/// Model-download poll interval of the submitting client.
const STATUS_POLL: Duration = Duration::from_millis(2);
/// How long one distributed job may run before the run fails.
const JOB_LIMIT: Duration = Duration::from_secs(60);

/// The four paper languages, in `train` order.
const LANGUAGES: [Language; 4] = [
    Language::JavaScript,
    Language::Java,
    Language::Python,
    Language::CSharp,
];

fn parse_span(language: Language) -> &'static str {
    match language {
        Language::JavaScript => "js.parse",
        Language::Java => "java.parse",
        Language::Python => "python.parse",
        Language::CSharp => "csharp.parse",
    }
}

fn parse_bytes_metric(language: Language) -> &'static str {
    match language {
        Language::JavaScript => "js.parse_bytes",
        Language::Java => "java.parse_bytes",
        Language::Python => "python.parse_bytes",
        Language::CSharp => "csharp.parse_bytes",
    }
}

/// One language's generated corpus: training files on disk (the order
/// `list_corpus` reads them back in is the file order) and held-out
/// sources in memory.
struct LangCorpus {
    language: Language,
    dir: PathBuf,
    held_out: Vec<String>,
}

fn write_corpus(
    args: &Args,
    work: &WorkDir,
    languages: &[Language],
) -> Result<Vec<LangCorpus>, String> {
    let mut out = Vec::new();
    for (l, &language) in LANGUAGES.iter().enumerate() {
        if !languages.contains(&language) {
            continue;
        }
        let dir = work.root.join(format!("corpus-{}", language_ext(language)));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let docs = generate(
            language,
            TRAIN_FILES,
            sub_seed(args.seed, 10 + l as u64),
            (1, 3),
        );
        for (i, doc) in docs.iter().enumerate() {
            let path = dir.join(format!("doc{i:05}.{}", language_ext(language)));
            std::fs::write(&path, &doc.source).map_err(|e| format!("{}: {e}", path.display()))?;
        }
        let held_out = generate(
            language,
            HELD_OUT,
            sub_seed(args.seed, 20 + l as u64),
            (1, 3),
        )
        .into_iter()
        .map(|d| d.source)
        .collect();
        out.push(LangCorpus {
            language,
            dir,
            held_out,
        });
    }
    Ok(out)
}

fn read_corpus(corpus: &LangCorpus) -> Result<Vec<String>, String> {
    let dir = corpus.dir.to_str().ok_or("non-UTF-8 work directory")?;
    Ok(list_corpus(corpus.language, dir)?
        .into_iter()
        .map(|(_, source)| source)
        .collect())
}

fn train_config() -> Result<PigeonConfig, String> {
    PigeonConfig::builder()
        .jobs(nproc())
        .build()
        .map_err(|e| e.to_string())
}

fn score(model: &Pigeon, held_out: &[String], accuracy: &mut Accuracy) -> Result<(), String> {
    for source in held_out {
        accuracy.add(&model.predict(source).map_err(|e| e.to_string())?);
    }
    Ok(())
}

/// What the facade writes for one language: model JSON and `.pgnc`.
struct Written {
    json: String,
    pgnc: Vec<u8>,
}

fn facade_train(
    language: Language,
    sources: &[&str],
    cfg: &PigeonConfig,
) -> Result<(Pigeon, Written), String> {
    let model = Pigeon::train_variable_namer(language, sources, cfg).map_err(|e| e.to_string())?;
    let json = model.to_json().map_err(|e| e.to_string())?;
    let pgnc = model.to_artifact(Quant::F32).map_err(|e| e.to_string())?;
    Ok((model, Written { json, pgnc }))
}

/// `train`: repeated four-language trainings at `jobs = nproc`, from
/// sources in memory to JSON and `.pgnc` bytes.
pub fn run_train(args: &Args, work: &WorkDir) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let cfg = train_config()?;
    let corpora = write_corpus(args, work, &LANGUAGES)?;
    reset_peak_rss();

    let mut reads = Vec::new();
    let mut sources = Vec::new();
    for _ in 0..READS {
        let t = Instant::now();
        sources = corpora
            .iter()
            .map(read_corpus)
            .collect::<Result<Vec<_>, _>>()?;
        reads.push(t.elapsed().as_secs_f64());
    }
    let files: usize = sources.iter().map(Vec::len).sum();
    let bytes: usize = sources.iter().flatten().map(String::len).sum();

    let refs: Vec<Vec<&str>> = sources
        .iter()
        .map(|s| s.iter().map(String::as_str).collect())
        .collect();
    let host = Host::start();
    let mut reps = Vec::new();
    let mut first: Option<Vec<Written>> = None;
    let mut models = Vec::new();
    let start = Instant::now();
    while reps.len() < MIN_REPS || start.elapsed().as_secs_f64() < args.seconds {
        let t = Instant::now();
        let mut written = Vec::new();
        models.clear();
        outcome.attempted += 1;
        for (corpus, refs) in corpora.iter().zip(&refs) {
            match facade_train(corpus.language, refs, &cfg) {
                Ok((model, w)) => {
                    models.push(model);
                    written.push(w);
                }
                Err(e) => {
                    outcome.failed += 1;
                    outcome.check(false, || {
                        format!("{} training failed: {e}", corpus.language)
                    });
                    break;
                }
            }
        }
        reps.push(t.elapsed().as_secs_f64());
        match &first {
            None => first = Some(written),
            Some(first) => outcome.check(
                first.len() == written.len()
                    && first
                        .iter()
                        .zip(&written)
                        .all(|(a, b)| a.json == b.json && a.pgnc == b.pgnc),
                || format!("repetition {} wrote different model bytes", reps.len()),
            ),
        }
    }
    let kept = host.finish();
    record_peak_rss(&mut outcome);
    outcome.host(kept);
    let setup = median(&reads);
    outcome.set("setup_s", setup);
    outcome.line(format!(
        "setup_s {setup:.4} s (median of {READS} reads of {files} files, {bytes} bytes)"
    ));
    let train_s = median(&reps) * kept;
    outcome.set("latency_p50_ms", train_s * 1e3);
    outcome.set("files_per_s", files as f64 / train_s);
    outcome.line(format!(
        "train_s {train_s:.4} s (median of {} four-language trainings, jobs {}, to JSON and .pgnc; \
         {:.4} s wall); {:.1} files/s",
        reps.len(),
        cfg.jobs,
        median(&reps),
        files as f64 / train_s
    ));

    let mut accuracy = Accuracy::default();
    for (corpus, model) in corpora.iter().zip(&models) {
        score(model, &corpus.held_out, &mut accuracy)?;
    }
    accuracy.record(&mut outcome);

    if args.trace {
        let first = first.ok_or("no training repetition ran")?;
        traced_train(&corpora, &refs, &first, &mut outcome, work)?;
    }
    Ok(outcome)
}

/// Rebuilds one language's model through the public layer calls the
/// facade composes, each inside a span; returns what `to_json` and
/// `to_artifact` would write.
fn replay_train(
    tracer: &mut Tracer,
    language: Language,
    sources: &[&str],
    cfg: &PigeonConfig,
    counts: &mut BTreeMap<&'static str, f64>,
) -> Result<Written, String> {
    let rep = Representation::AstPaths(cfg.abstraction);
    let mut vocabs = Vocabs::new();
    let mut instances = Vec::with_capacity(sources.len());
    for (i, source) in sources.iter().enumerate() {
        let id = i as u64;
        *counts.entry(parse_bytes_metric(language)).or_default() += source.len() as f64;
        let ast = tracer.time(parse_span(language), id, || language.parse(source))?;
        let mut features = tracer.time("core.extract", id, || {
            extract_edge_features(language, &ast, rep, &cfg.extraction)
        });
        *counts.entry("core.contexts").or_default() += features.len() as f64;
        if cfg.dataflow_contexts {
            let flow = tracer.time("analysis.dataflow", id, || {
                pigeon::dataflow_edge_features(language, &ast, &cfg.extraction, cfg.abstraction)
            });
            *counts.entry("analysis.flow_contexts").or_default() += flow.len() as f64;
            features.extend(flow);
        }
        let mut rng = SmallRng::seed_from_u64(derive_seed(DOWNSAMPLE_SEED, id));
        let features = downsample(features, cfg.keep_prob, &mut rng);
        let graph = tracer.time("eval.graph", id, || {
            build_name_graph(
                language,
                &ast,
                ElementClass::Variable,
                &features,
                &mut vocabs,
                true,
            )
        });
        *counts.entry("eval.unknowns").or_default() += graph.unknown_nodes.len() as f64;
        *counts.entry("eval.factors").or_default() +=
            (graph.instance.pairwise.len() + graph.instance.unary.len()) as f64;
        instances.push(graph.instance);
    }
    let num_labels = vocabs.labels.len() as u32;
    let stats = tracer.time("crf.stats", 0, || {
        RawStatistics::collect(&instances, num_labels)
    });
    let crf_cfg = CrfConfig {
        jobs: cfg.jobs,
        ..cfg.crf
    };
    let model = tracer.time("crf.sgd", 0, || {
        train_from_statistics(&instances, num_labels, &crf_cfg, stats)
    })?;
    write_model(tracer, language, cfg, &vocabs, &model)
}

/// The model file and artifact for a model built outside the facade:
/// the same fields, in the same order, that `Pigeon::to_json` and
/// `Pigeon::to_artifact` write.
fn write_model(
    tracer: &mut Tracer,
    language: Language,
    cfg: &PigeonConfig,
    vocabs: &Vocabs,
    model: &CrfModel,
) -> Result<Written, String> {
    let labels: Vec<String> = vocabs.labels.iter().map(|(_, s)| s.clone()).collect();
    let features: Vec<String> = vocabs.features.iter().map(|(_, s)| s.clone()).collect();
    let json = tracer
        .time("pigeon.to_json", 0, || {
            let mut file = serde_json::json!({
                "language": language.name(),
                "target": "variables",
                "max_length": cfg.extraction.max_length,
                "max_width": cfg.extraction.max_width,
                "semi_paths": cfg.extraction.semi_paths,
                "abstraction": cfg.abstraction.name(),
                "top_k": cfg.top_k,
                "labels": labels,
                "features": features,
                "model": model.to_json()?,
            });
            if cfg.dataflow_contexts {
                file.as_object_mut()
                    .expect("json! object literal")
                    .insert("dataflow_contexts".to_owned(), serde_json::json!(true));
            }
            serde_json::to_string(&file)
        })
        .map_err(|e| e.to_string())?;
    let meta = ArtifactMeta {
        language: language.name().to_owned(),
        target: "variables".to_owned(),
        abstraction: cfg.abstraction.name().to_owned(),
        max_length: cfg.extraction.max_length as u32,
        max_width: cfg.extraction.max_width as u32,
        semi_paths: cfg.extraction.semi_paths,
        top_k: cfg.top_k as u32,
        dataflow_contexts: cfg.dataflow_contexts,
    };
    let pgnc = tracer.time("pigeon.to_artifact", 0, || {
        write_artifact(&meta, &labels, &features, model, Quant::F32)
    })?;
    Ok(Written { json, pgnc })
}

/// Layers whose self times add up to one facade training.
const TRAIN_LAYERS: &[&str] = &[
    "js.parse",
    "java.parse",
    "python.parse",
    "csharp.parse",
    "core.extract",
    "analysis.dataflow",
    "eval.graph",
    "crf.stats",
    "crf.sgd",
    "pigeon.to_json",
    "pigeon.to_artifact",
];

/// The traced `train` run: a serial facade training for reference, then
/// the layer replay untraced and traced. The replayed bytes must equal
/// the facade's.
fn traced_train(
    corpora: &[LangCorpus],
    refs: &[Vec<&str>],
    facade_written: &[Written],
    outcome: &mut Outcome,
    work: &WorkDir,
) -> Result<(), String> {
    let cfg = PigeonConfig {
        jobs: 1,
        ..train_config()?
    };
    // Each language runs three times back to back: the facade, then the
    // layer replay untraced and traced.
    let mut tracer = Tracer::new(Instant::now());
    let mut counts = BTreeMap::new();
    let mut pass_ms = [0.0; 2];
    for (l, ((corpus, refs), facade)) in corpora.iter().zip(refs).zip(facade_written).enumerate() {
        tracer.set_enabled(true);
        tracer.time("pigeon.train", l as u64, || {
            facade_train(corpus.language, refs, &cfg)
        })?;
        for (pass, traced) in [false, true].into_iter().enumerate() {
            tracer.set_enabled(traced);
            let mut scratch = BTreeMap::new();
            let counts = if traced { &mut counts } else { &mut scratch };
            let t = Instant::now();
            let written = replay_train(&mut tracer, corpus.language, refs, &cfg, counts)?;
            pass_ms[pass] += ms(t.elapsed());
            outcome.check(written.json == facade.json, || {
                format!(
                    "{}: the model rebuilt from layer calls differs from Pigeon::to_json",
                    corpus.language
                )
            });
            outcome.check(written.pgnc == facade.pgnc, || {
                format!(
                    "{}: the artifact rebuilt from layer calls differs from Pigeon::to_artifact",
                    corpus.language
                )
            });
        }
    }
    let self_ms = tracer.self_ms();
    let layer = |name: &str| self_ms.get(name).copied().unwrap_or(0.0);
    outcome.set_self_times(&self_ms, TRAIN_LAYERS, 1.0);
    for (name, total) in counts {
        outcome.set(name, total);
    }
    let facade = layer("pigeon.train");
    let layers: f64 = TRAIN_LAYERS.iter().map(|l| layer(l)).sum();
    reconcile(outcome, "train (jobs 1)", facade, layers, pass_ms);
    write_trace(&tracer, work, outcome)
}

/// Records the reconciliation of layer self times against the facade
/// call they decompose, and the tracing overhead of the replay.
fn reconcile(outcome: &mut Outcome, what: &str, facade: f64, layers: f64, pass_ms: [f64; 2]) {
    let unaccounted = facade - layers;
    let share = 100.0 * unaccounted / facade.max(1e-9);
    let overhead = 100.0 * (pass_ms[1] - pass_ms[0]) / pass_ms[0].max(1e-9);
    outcome.set("reconcile.unaccounted_pct", share);
    outcome.set("trace.overhead_pct", overhead);
    outcome.line(format!(
        "reconcile: facade {what} {facade:.1} ms = layers {layers:.1} + unaccounted \
         {unaccounted:.1} ms ({share:.1}%{}); tracing overhead {overhead:.2}% ({:.1} ms traced \
         vs {:.1} ms untraced replay)",
        if share.abs() > 10.0 {
            ", OVER the 10% bound"
        } else {
            ""
        },
        pass_ms[1],
        pass_ms[0]
    ));
}

/// An in-process coordinator with a fresh partial cache.
struct Coordinator {
    addr: std::net::SocketAddr,
    handle: std::thread::JoinHandle<Result<(), String>>,
}

impl Coordinator {
    fn start(cache_dir: &Path) -> Result<Coordinator, String> {
        let cfg = ServeConfig {
            port: 0,
            cache_dir: Some(
                cache_dir
                    .to_str()
                    .ok_or("non-UTF-8 work directory")?
                    .to_owned(),
            ),
            ..ServeConfig::default()
        };
        let bound = serve::bind(&cfg)?;
        let addr = bound.addr();
        let handle = std::thread::spawn(move || bound.run(None));
        wait_healthy(addr, Duration::from_secs(60))?;
        Ok(Coordinator { addr, handle })
    }

    fn stop(self) -> Result<(), String> {
        serve::request_shutdown();
        self.handle
            .join()
            .map_err(|_| "coordinator thread panicked".to_owned())?
    }
}

/// Posts one job, runs `workers` worker threads until it is done, and
/// downloads the merged model.
fn run_job(
    coordinator: &Coordinator,
    corpus_dir: &Path,
    out: &Path,
    shards: usize,
    workers: usize,
) -> Result<Vec<u8>, String> {
    let mut client = Client::new(coordinator.addr);
    let body = serde_json::json!({
        "corpus_dir": corpus_dir.to_str().ok_or("non-UTF-8 work directory")?,
        "out": out.to_str().ok_or("non-UTF-8 work directory")?,
        "language": "js",
        "shard_count": shards,
    });
    let body = serde_json::to_string(&body).map_err(|e| e.to_string())?;
    let r = client.request("POST", "/v1/train-jobs", body.as_bytes())?;
    if r.status != 200 {
        return Err(format!(
            "POST /v1/train-jobs answered {}: {}",
            r.status,
            String::from_utf8_lossy(&r.body)
        ));
    }
    let job: serde_json::Value = serde_json::from_str(&String::from_utf8_lossy(&r.body))
        .map_err(|e| format!("job response: {e}"))?;
    let id = job
        .get("id")
        .and_then(|v| v.as_u64())
        .ok_or("job without id")?;
    let url = format!("http://{}", coordinator.addr);
    let deadline = Instant::now() + JOB_LIMIT;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let opts = WorkerOptions {
                    coordinator: url.clone(),
                    name: format!("bench-{w}"),
                    poll: WORKER_POLL,
                    throttle: Duration::ZERO,
                    jobs: 1,
                    exit_when_idle: true,
                };
                scope.spawn(move || run_worker(&opts))
            })
            .collect();
        // The model route answers 409 until the job is done and the model
        // after, so polling it also downloads the result.
        let model = loop {
            match client.request("GET", &format!("/v1/train-jobs/{id}/model"), b"") {
                Ok(r) if r.status == 200 => break Ok(r.body),
                Ok(r) if r.status == 409 && Instant::now() < deadline => {
                    std::thread::sleep(STATUS_POLL)
                }
                Ok(r) => {
                    break Err(format!(
                        "job {id} did not finish ({}): {}",
                        r.status,
                        String::from_utf8_lossy(&r.body)
                    ))
                }
                Err(e) => break Err(format!("job {id}: {e}")),
            }
        };
        if model.is_err() {
            // Idle-exiting workers only leave once the job is over; a
            // stopped coordinator sends them home through their retry bound.
            serve::request_shutdown();
        }
        for h in handles {
            let worker = h.join().map_err(|_| "worker thread panicked".to_owned())?;
            if model.is_ok() {
                worker?;
            }
        }
        model
    })
}

/// `train_distributed`: the JS corpus of `train`, trained through the
/// coordinator and `nproc` worker threads; each repetition gets a fresh
/// coordinator and cache directory, so no shard is served from cache.
pub fn run_distributed(args: &Args, work: &WorkDir) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let cfg = train_config()?;
    let corpus = write_corpus(args, work, &[Language::JavaScript])?
        .pop()
        .expect("one language");
    let sources = read_corpus(&corpus)?;
    let refs: Vec<&str> = sources.iter().map(String::as_str).collect();
    let baseline = Instant::now();
    let (reference, written) = facade_train(Language::JavaScript, &refs, &cfg)?;
    let baseline = baseline.elapsed();
    drop(written.pgnc);
    let workers = nproc();
    let shards = workers * SHARDS_PER_WORKER;
    reset_peak_rss();

    let host = Host::start();
    let mut setups = Vec::new();
    let mut jobs = Vec::new();
    let start = Instant::now();
    while jobs.len() < MIN_REPS || start.elapsed().as_secs_f64() < args.seconds {
        let rep = jobs.len();
        let cache = work.root.join(format!("cache-{rep}"));
        let t = Instant::now();
        let coordinator = Coordinator::start(&cache)?;
        setups.push(t.elapsed().as_secs_f64());
        let out = work.root.join(format!("model-{rep}.json"));
        let t = Instant::now();
        outcome.attempted += 1;
        let result = run_job(&coordinator, &corpus.dir, &out, shards, workers);
        jobs.push(t.elapsed().as_secs_f64());
        coordinator.stop()?;
        match result {
            Ok(model) => outcome.check(model == written.json.as_bytes(), || {
                format!("job {rep}: the merged model differs from single-process training")
            }),
            Err(e) => {
                outcome.failed += 1;
                outcome.check(false, || format!("job {rep} failed: {e}"));
            }
        }
        let _ = std::fs::remove_dir_all(&cache);
    }
    let kept = host.finish();
    record_peak_rss(&mut outcome);
    outcome.host(kept);
    let train_s = median(&jobs) * kept;
    outcome.set("setup_s", median(&setups));
    outcome.set("latency_p50_ms", train_s * 1e3);
    outcome.set("files_per_s", sources.len() as f64 / train_s);
    outcome.line(format!(
        "setup_s {:.4} s (median of {} coordinator start-ups until the first health 200)",
        median(&setups),
        setups.len()
    ));
    outcome.line(format!(
        "train_s {train_s:.4} s (median of {} jobs: {} files, {shards} shards, {workers} worker \
         threads; POST to model download; {:.4} s wall); single-process baseline {:.4} s wall",
        jobs.len(),
        sources.len(),
        median(&jobs),
        baseline.as_secs_f64()
    ));
    let mut accuracy = Accuracy::default();
    score(&reference, &corpus.held_out, &mut accuracy)?;
    accuracy.record(&mut outcome);

    if args.trace {
        let job_ms = train_s * 1e3;
        traced_distributed(
            &refs,
            shards,
            workers,
            job_ms,
            &written.json,
            &mut outcome,
            work,
        )?;
    }
    Ok(outcome)
}

/// The traced `train_distributed` run: every shard's partial built in
/// process, then the merge replayed through its public layers; the
/// merged bytes must equal single-process training.
fn traced_distributed(
    refs: &[&str],
    shards: usize,
    workers: usize,
    job_ms: f64,
    reference_json: &str,
    outcome: &mut Outcome,
    work: &WorkDir,
) -> Result<(), String> {
    let language = Language::JavaScript;
    let cfg = PigeonConfig {
        jobs: 1,
        ..train_config()?
    };
    // Every step runs twice back to back, untraced then traced.
    let mut tracer = Tracer::new(Instant::now());
    let mut pass_ms = [0.0; 2];
    let mut parts = Vec::new();
    for shard in 0..shards {
        for (pass, traced) in [false, true].into_iter().enumerate() {
            tracer.set_enabled(traced);
            let t = Instant::now();
            let part = tracer.time("eval.partial_build", shard as u64, || {
                Pigeon::build_training_partial(
                    language,
                    ElementClass::Variable,
                    refs,
                    shard,
                    shards,
                    &cfg,
                )
            });
            pass_ms[pass] += ms(t.elapsed());
            if traced {
                parts.push(part.map_err(|e| e.to_string())?);
            }
        }
    }
    let partial_bytes: usize = parts.iter().map(Vec::len).sum();
    for (pass, traced) in [false, true].into_iter().enumerate() {
        tracer.set_enabled(traced);
        let t = Instant::now();
        let merged = tracer.time("eval.merge", 0, || {
            let decoded = parts
                .iter()
                .map(|p| decode_partial(p))
                .collect::<Result<Vec<_>, _>>()?;
            merge_partials(&decoded)
        })?;
        let num_labels = merged.vocabs.labels.len() as u32;
        let crf_cfg = CrfConfig {
            jobs: 1,
            ..merged.meta.crf
        };
        let model = tracer.time("crf.sgd", 0, || {
            train_from_statistics(&merged.instances, num_labels, &crf_cfg, merged.stats)
        })?;
        let written = write_model(&mut tracer, language, &cfg, &merged.vocabs, &model)?;
        pass_ms[pass] += ms(t.elapsed());
        outcome.check(written.json == reference_json, || {
            "the merge replayed from partials differs from single-process training".to_owned()
        });
    }
    let self_ms = tracer.self_ms();
    let layer = |name: &str| self_ms.get(name).copied().unwrap_or(0.0);
    let spans = [
        "eval.partial_build",
        "eval.merge",
        "crf.sgd",
        "pigeon.to_json",
    ];
    outcome.set_self_times(&self_ms, &spans, 1.0);
    outcome.set("eval.partial_bytes", partial_bytes as f64);
    // The coordinator's share: merge, finish (SGD) and the model file.
    let merge_finish = layer("eval.merge") + layer("crf.sgd") + layer("pigeon.to_json");
    let build_per_worker = layer("eval.partial_build") / workers as f64;
    let overhead = job_ms - build_per_worker - merge_finish;
    outcome.set("distrib.overhead_ms", overhead);
    outcome.line(format!(
        "distrib: job {job_ms:.1} ms = shard builds {build_per_worker:.1} ms per worker \
         ({workers} workers) + merge and finish {merge_finish:.1} ms + overhead {overhead:.1} ms"
    ));
    reconcile(
        outcome,
        "job",
        job_ms,
        build_per_worker + merge_finish,
        pass_ms,
    );
    write_trace(&tracer, work, outcome)
}

fn write_trace(tracer: &Tracer, work: &WorkDir, outcome: &mut Outcome) -> Result<(), String> {
    tracer.write_chrome(&work.trace_file)?;
    outcome.line(format!("trace written to {}", work.trace_file.display()));
    Ok(())
}
