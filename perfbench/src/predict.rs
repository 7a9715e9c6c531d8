//! The serving workloads: `predict_small` (interactive editor traffic to
//! `POST /v1/predict`) and `predict_files` (whole-file deobfuscation
//! through `POST /v1/predict_batch`), both against an in-process
//! `pigeon::serve` server started with `ServeConfig::default()` on an
//! ephemeral port.

use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pigeon::corpus::Language;
use pigeon::crf::artifact::Quant;
use pigeon::eval::{build_name_graph_lookup, extract_edge_features, ElementClass, Representation};
use pigeon::serve::{self, ServeConfig};
use pigeon::{Pigeon, PigeonConfig, Prediction};

use crate::host::Host;
use crate::http::{wait_healthy, Client};
use crate::trace::Tracer;
use crate::{
    generate, median, ms, nproc, percentile, record_peak_rss, reset_peak_rss, sub_seed, Accuracy,
    Args, Outcome, WorkDir,
};

/// Training files behind the `predict_small` model (generator defaults).
const SMALL_TRAIN_FILES: usize = 300;
/// Distinct function-sized query programs per `predict_small` run.
const SMALL_QUERIES: usize = 400;
/// Server set-ups per run; `setup_s` is their median.
const SMALL_SETUPS: usize = 51;
/// Share of the measured seconds spent in the open-loop phase.
const LIGHT_SHARE: f64 = 0.5;

/// Training files behind the `predict_files` model (generator defaults,
/// data-flow contexts on).
const FILES_TRAIN_FILES: usize = 100;
/// Distinct whole files per `predict_files` run.
const FILES_POOL: usize = 72;
/// The seed of the `predict_files` training corpus, the same for every run.
const FILES_MODEL_SEED: u64 = 0;
/// Files per `predict_batch` request.
const FILES_PER_REQUEST: usize = 3;
/// Server set-ups per run; each loads the JSON model.
const FILES_SETUPS: usize = 3;
/// Files the traced run replays through the layer calls.
const FILES_REPLAYED: usize = 6;

/// A prediction as names only: current, predicted, candidates in order.
type Named = (String, String, Vec<String>);

fn named(predictions: &[Prediction]) -> Vec<Named> {
    predictions
        .iter()
        .map(|p| {
            (
                p.current_name.clone(),
                p.predicted_name.clone(),
                p.candidates.iter().map(|(n, _)| n.clone()).collect(),
            )
        })
        .collect()
}

/// Parses the `predictions` array of a response body.
fn named_json(predictions: &serde_json::Value) -> Option<Vec<Named>> {
    predictions
        .as_array()?
        .iter()
        .map(|p| {
            let candidates = p
                .get("candidates")?
                .as_array()?
                .iter()
                .map(|c| Some(c.as_array()?.first()?.as_str()?.to_owned()))
                .collect::<Option<Vec<String>>>()?;
            Some((
                p.get("current_name")?.as_str()?.to_owned(),
                p.get("predicted_name")?.as_str()?.to_owned(),
                candidates,
            ))
        })
        .collect()
}

/// The JSON the server renders for one program's predictions.
fn predictions_json(predictions: &[Prediction]) -> serde_json::Value {
    serde_json::Value::Array(
        predictions
            .iter()
            .map(|p| {
                serde_json::json!({
                    "current_name": p.current_name,
                    "predicted_name": p.predicted_name,
                    "candidates": serde_json::Value::Array(
                        p.candidates
                            .iter()
                            .map(|(name, score)| serde_json::json!([name, score]))
                            .collect(),
                    ),
                })
            })
            .collect(),
    )
}

/// An in-process server on an ephemeral port.
struct Server {
    addr: SocketAddr,
    handle: JoinHandle<Result<(), String>>,
}

impl Server {
    /// `Pigeon::load` of the model bytes, bind, run, until the first
    /// `/v1/health` 200. Returns the server, the whole set-up time and
    /// the load time alone.
    fn start(model_bytes: &[u8]) -> Result<(Server, Duration, Duration), String> {
        let start = Instant::now();
        let model = Pigeon::load(model_bytes).map_err(|e| e.to_string())?;
        let loaded = start.elapsed();
        let cfg = ServeConfig {
            port: 0,
            ..ServeConfig::default()
        };
        let bound = serve::bind(&cfg)?;
        let addr = bound.addr();
        let handle = std::thread::spawn(move || bound.run(Some(model)));
        wait_healthy(addr, Duration::from_secs(60))?;
        Ok((Server { addr, handle }, start.elapsed(), loaded))
    }

    fn stop(self) -> Result<(), String> {
        serve::request_shutdown();
        self.handle
            .join()
            .map_err(|_| "server thread panicked".to_owned())?
    }
}

/// Starts the server `setups` times and keeps the last one. Returns it
/// with the median set-up time in seconds and the median load time.
fn set_up(model_bytes: &[u8], setups: usize) -> Result<(Server, f64, Duration), String> {
    let mut times = Vec::new();
    let mut loads = Vec::new();
    for i in 0..setups {
        let (server, took, load) = Server::start(model_bytes)?;
        times.push(took.as_secs_f64());
        loads.push(ms(load));
        if i + 1 == setups {
            let load = Duration::from_secs_f64(median(&loads) / 1e3);
            return Ok((server, median(&times), load));
        }
        server.stop()?;
    }
    unreachable!("setups is at least 1")
}

/// Records `setup_s` for `setups` server starts.
fn record_setup(outcome: &mut Outcome, setup: f64, setups: usize, load: Duration) {
    outcome.set("setup_s", setup);
    outcome.line(format!(
        "setup_s {setup:.4} s (median of {setups}: load {:.1} ms + bind + first health)",
        ms(load)
    ));
}

/// One request the load generator can send.
struct Request {
    body: String,
    /// Indices of the programs it carries.
    files: Vec<usize>,
}

/// What one load phase observed.
#[derive(Default)]
struct Phase {
    attempted: u64,
    failed: u64,
    /// Connections the phase's clients reopened.
    reconnects: u64,
    /// Latency from when each request was due (open loop) or sent
    /// (closed loop), ms.
    latency: Vec<f64>,
    /// Send time to response, ms, with the request index.
    service: Vec<(usize, f64)>,
    /// Open loop: how late each send was, ms.
    lateness: Vec<f64>,
    /// Closed loop: summed per-client completion rate, files/s.
    files_per_s: f64,
    /// Distinct response bodies per request index, for the output check.
    bodies: HashMap<usize, Vec<Vec<u8>>>,
    /// (request index, client, send, done) for the trace.
    spans: Vec<(usize, u32, Instant, Instant)>,
    first_error: Option<String>,
}

impl Phase {
    fn merge(&mut self, other: Phase) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.latency.extend(other.latency);
        self.service.extend(other.service);
        self.lateness.extend(other.lateness);
        self.files_per_s += other.files_per_s;
        for (k, bodies) in other.bodies {
            let slot = self.bodies.entry(k).or_default();
            for b in bodies {
                if !slot.contains(&b) {
                    slot.push(b);
                }
            }
        }
        self.spans.extend(other.spans);
        if self.first_error.is_none() {
            self.first_error = other.first_error;
        }
    }

    /// Sends request `index` and records it; returns when it finished.
    fn send(
        &mut self,
        client: &mut Client,
        tid: u32,
        path: &str,
        requests: &[Request],
        index: usize,
    ) -> Instant {
        let slot = index % requests.len();
        let sent = Instant::now();
        let result = client.request("POST", path, requests[slot].body.as_bytes());
        let done = Instant::now();
        self.attempted += 1;
        self.service.push((index, ms(done - sent)));
        self.spans.push((index, tid, sent, done));
        match result {
            Ok(r) if (200..300).contains(&r.status) => {
                let slot_bodies = self.bodies.entry(slot).or_default();
                if !slot_bodies.contains(&r.body) {
                    slot_bodies.push(r.body);
                }
            }
            Ok(r) => {
                self.failed += 1;
                self.first_error.get_or_insert_with(|| {
                    format!(
                        "{path} answered {}: {}",
                        r.status,
                        String::from_utf8_lossy(&r.body)
                    )
                });
            }
            Err(e) => {
                self.failed += 1;
                self.first_error.get_or_insert(e);
            }
        }
        done
    }
}

/// Open loop: request `i` is due at `start + i / rate`; one thread per
/// client takes due requests in order, so a stall delays later ones and
/// shows in their latency (timed from when each was due).
fn open_loop(clients: &mut [Client], requests: &[Request], rate: f64, seconds: f64) -> Phase {
    let total = (rate * seconds).round().max(1.0) as usize;
    let next = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(20);
    let mut phase = Phase::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let next = &next;
                scope.spawn(move || {
                    let mut mine = Phase::default();
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        if i >= total {
                            break;
                        }
                        let due = start + Duration::from_secs_f64(i as f64 / rate);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        mine.lateness
                            .push(ms(Instant::now().saturating_duration_since(due)));
                        let done = mine.send(client, c as u32 + 1, "/v1/predict", requests, i);
                        mine.latency.push(ms(done - due));
                    }
                    mine
                })
            })
            .collect();
        for h in handles {
            phase.merge(h.join().expect("load thread panicked"));
        }
    });
    phase
}

/// Closed loop: each client sends its next request as soon as the
/// previous one completes, until `seconds` pass.
fn closed_loop(
    clients: &mut [Client],
    path: &str,
    requests: &[Request],
    seconds: f64,
    first: usize,
) -> Phase {
    let next = AtomicUsize::new(first);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut phase = Phase::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let next = &next;
                scope.spawn(move || {
                    let mut mine = Phase::default();
                    let mut files = 0usize;
                    let mut last = start;
                    while Instant::now() < deadline {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        let sent = Instant::now();
                        let failed_before = mine.failed;
                        last = mine.send(client, c as u32 + 1, path, requests, i);
                        mine.latency.push(ms(last - sent));
                        if mine.failed == failed_before {
                            files += requests[i % requests.len()].files.len();
                        }
                    }
                    let busy = (last - start).as_secs_f64();
                    if busy > 0.0 {
                        mine.files_per_s = files as f64 / busy;
                    }
                    mine
                })
            })
            .collect();
        for h in handles {
            phase.merge(h.join().expect("load thread panicked"));
        }
    });
    phase
}

/// Checks every distinct response body against the in-process
/// predictions for the programs its request carried.
fn check_responses(
    phase: &Phase,
    requests: &[Request],
    expected: &[Vec<Named>],
    outcome: &mut Outcome,
) {
    let mut checked = 0;
    for (slot, bodies) in &phase.bodies {
        let files = &requests[*slot].files;
        for body in bodies {
            checked += 1;
            let parsed: Option<Vec<Vec<Named>>> = std::str::from_utf8(body)
                .ok()
                .and_then(|text| serde_json::from_str::<serde_json::Value>(text).ok())
                .and_then(|v| match v.get("results") {
                    Some(results) => results
                        .as_array()?
                        .iter()
                        .map(|r| named_json(r.get("predictions")?))
                        .collect(),
                    None => Some(vec![named_json(v.get("predictions")?)?]),
                });
            let want: Vec<&Vec<Named>> = files.iter().map(|&f| &expected[f]).collect();
            let ok = parsed.as_ref().is_some_and(|got| {
                got.len() == want.len() && got.iter().zip(&want).all(|(g, w)| g == *w)
            });
            outcome.check(ok, || {
                format!(
                    "response for request {slot} differs from in-process Pigeon::predict: {}",
                    String::from_utf8_lossy(body)
                        .chars()
                        .take(300)
                        .collect::<String>()
                )
            });
        }
    }
    outcome.line(format!(
        "checked {checked} distinct response bodies against in-process Pigeon::predict"
    ));
}

/// In-process `Pigeon::predict` of every program on `nproc` threads: the
/// names each response must carry, in program order, and their accuracy.
fn reference_predictions(
    model: &Pigeon,
    sources: &[String],
) -> Result<(Vec<Vec<Named>>, Accuracy), String> {
    let next = AtomicUsize::new(0);
    let mut predicted: Vec<Option<Vec<Prediction>>> = vec![None; sources.len()];
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..nproc())
            .map(|_| {
                let next = &next;
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        let Some(source) = sources.get(i) else { break };
                        mine.push((i, model.predict(source)));
                    }
                    mine
                })
            })
            .collect();
        for h in handles {
            for (i, result) in h.join().expect("predict thread panicked") {
                predicted[i] = Some(result.map_err(|e| format!("program {i}: {e}"))?);
            }
        }
        Ok::<(), String>(())
    })?;
    let mut accuracy = Accuracy::default();
    let mut expected = Vec::with_capacity(predicted.len());
    for p in predicted {
        let p = p.expect("every program was predicted");
        accuracy.add(&p);
        expected.push(named(&p));
    }
    Ok((expected, accuracy))
}

/// Deltas of the server's queue-wait and batch-size histograms.
struct Scrape(BTreeMap<String, f64>);

impl Scrape {
    fn take(addr: SocketAddr) -> Result<Scrape, String> {
        let r = Client::new(addr).request("GET", "/v1/metrics", b"")?;
        let text = String::from_utf8_lossy(&r.body);
        let mut series = BTreeMap::new();
        for line in text.lines().filter(|l| {
            l.starts_with("pigeon_queue_wait_micros") || l.starts_with("pigeon_batch_size")
        }) {
            if let Some((key, value)) = line.rsplit_once(' ') {
                if let Ok(v) = value.parse::<f64>() {
                    series.insert(key.to_owned(), v);
                }
            }
        }
        Ok(Scrape(series))
    }

    fn delta(&self, before: &Scrape, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0) - before.0.get(key).copied().unwrap_or(0.0)
    }

    /// A quantile of the queue wait in ms, interpolated inside the
    /// histogram bucket that holds it.
    fn queue_wait_ms(&self, before: &Scrape, q: f64) -> f64 {
        let prefix = "pigeon_queue_wait_micros_bucket{le=\"";
        let mut buckets: Vec<(f64, f64)> = self
            .0
            .keys()
            .filter_map(|k| {
                let bound = k.strip_prefix(prefix)?.strip_suffix("\"}")?;
                let bound = if bound == "+Inf" {
                    f64::INFINITY
                } else {
                    bound.parse().ok()?
                };
                Some((bound, self.delta(before, k)))
            })
            .collect();
        buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
        let total = buckets.last().map_or(0.0, |b| b.1);
        if total <= 0.0 {
            return 0.0;
        }
        let target = q * total;
        let (mut lower, mut below) = (0.0, 0.0);
        for (bound, cumulative) in buckets {
            if cumulative >= target {
                if bound.is_infinite() {
                    return lower / 1e3;
                }
                let inside = (cumulative - below).max(1.0);
                return (lower + (bound - lower) * (target - below) / inside) / 1e3;
            }
            (lower, below) = (bound, cumulative);
        }
        lower / 1e3
    }
}

/// Per-layer replay of one program through the calls `Pigeon::predict`
/// makes, each inside a span. Counts go into `counts`.
fn replay_predict(
    tracer: &mut Tracer,
    model: &Pigeon,
    cfg: &PigeonConfig,
    source: &str,
    id: u64,
    counts: &mut BTreeMap<&'static str, f64>,
) -> Result<Vec<Prediction>, String> {
    let language = Language::JavaScript;
    let sweeps = pigeon::telemetry::counter("pigeon_icm_sweeps_total");
    *counts.entry("js.parse_bytes").or_default() += source.len() as f64;
    let ast = tracer.time("js.parse", id, || language.parse(source))?;
    let rep = Representation::AstPaths(cfg.abstraction);
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
    let vocabs = model.vocabs();
    let graph = tracer.time("eval.graph", id, || {
        build_name_graph_lookup(language, &ast, ElementClass::Variable, &features, vocabs)
    });
    *counts.entry("eval.unknowns").or_default() += graph.unknown_nodes.len() as f64;
    *counts.entry("eval.factors").or_default() +=
        (graph.instance.pairwise.len() + graph.instance.unary.len()) as f64;
    let crf = model.crf_model();
    let sweeps_before = sweeps.get();
    let labels = tracer.time("crf.icm", id, || crf.predict(&graph.instance));
    let mut out = Vec::with_capacity(graph.unknown_nodes.len());
    for &node in &graph.unknown_nodes {
        let top = tracer.time("crf.topk", id, || {
            crf.top_k(&graph.instance, node, cfg.top_k)
        });
        out.push(Prediction {
            current_name: graph.node_names[node].clone(),
            predicted_name: vocabs.label_name(labels[node]).to_owned(),
            candidates: top
                .into_iter()
                .map(|(l, s)| (vocabs.label_name(l).to_owned(), s))
                .collect(),
        });
    }
    *counts.entry("crf.topk_calls").or_default() += graph.unknown_nodes.len() as f64;
    *counts.entry("crf.icm_sweeps").or_default() += (sweeps.get() - sweeps_before) as f64;
    Ok(out)
}

/// Layers whose self times add up to `pigeon.predict_ms`.
const PREDICT_LAYERS: &[&str] = &[
    "js.parse",
    "core.extract",
    "analysis.dataflow",
    "eval.graph",
    "crf.icm",
    "crf.topk",
];

/// Replays one request through the layer calls: decode the body,
/// predict each of its programs, encode the route's response.
fn replay_request(
    tracer: &mut Tracer,
    served: &Served,
    k: usize,
    request: &Request,
    counts: &mut BTreeMap<&'static str, f64>,
) -> Result<Vec<Vec<Prediction>>, String> {
    let id = k as u64;
    let body = tracer
        .time("serde_json.decode", id, || {
            serde_json::from_str::<serde_json::Value>(&request.body)
        })
        .map_err(|e| format!("request body: {e}"))?;
    std::hint::black_box(body);
    *counts.entry("serde_json.decode_bytes").or_default() += request.body.len() as f64;
    let mut results = Vec::new();
    for &f in &request.files {
        let source = &served.sources[f];
        results.push(replay_predict(
            tracer,
            served.model,
            served.cfg,
            source,
            f as u64,
            counts,
        )?);
    }
    let response = tracer.time("serde_json.encode", id, || {
        let response = if served.batch {
            let items: Vec<serde_json::Value> = results
                .iter()
                .map(|p| serde_json::json!({ "predictions": predictions_json(p) }))
                .collect();
            serde_json::json!({
                "model_version": 1,
                "results": serde_json::Value::Array(items),
            })
        } else {
            serde_json::json!({
                "model_version": 1,
                "predictions": predictions_json(&results[0]),
            })
        };
        serde_json::to_string(&response)
    });
    std::hint::black_box(response.map_err(|e| format!("response: {e}"))?);
    Ok(results)
}

/// The traced replay shared by both serving workloads. Each request runs
/// three times back to back: its programs through the facade, then the
/// layer replay untraced and traced; the last two differ by the tracing
/// overhead. Returns the facade time per program (ms) for the
/// serve-overhead subtraction.
fn traced_replay(
    tracer: &mut Tracer,
    served: &Served,
    requests: &[Request],
    outcome: &mut Outcome,
) -> Result<HashMap<usize, f64>, String> {
    let units: usize = requests.iter().map(|r| r.files.len()).sum();
    let mut facade_ms = HashMap::new();
    let mut pass_ms = [0.0; 2];
    let mut counts = BTreeMap::new();
    for (k, request) in requests.iter().enumerate() {
        for &f in &request.files {
            let t = Instant::now();
            let got = tracer.time("pigeon.predict", f as u64, || {
                served.model.predict(&served.sources[f])
            });
            facade_ms.insert(f, ms(t.elapsed()));
            let got = got.map_err(|e| e.to_string())?;
            outcome.check(named(&got) == served.expected[f], || {
                format!("facade predict of program {f} changed between calls")
            });
        }
        for (pass, traced) in [false, true].into_iter().enumerate() {
            tracer.set_enabled(traced);
            let mut scratch = BTreeMap::new();
            let counts = if traced { &mut counts } else { &mut scratch };
            let t = Instant::now();
            tracer.begin("serve.replay", k as u64);
            let results = replay_request(tracer, served, k, request, counts)?;
            tracer.end();
            pass_ms[pass] += ms(t.elapsed());
            for (&f, got) in request.files.iter().zip(&results) {
                outcome.check(named(got) == served.expected[f], || {
                    format!("layer replay of program {f} differs from Pigeon::predict")
                });
            }
        }
    }
    let per = |x: f64| x / units.max(1) as f64;
    let self_ms = tracer.self_ms();
    let mut spans = vec!["serde_json.decode", "serde_json.encode", "pigeon.predict"];
    spans.extend(PREDICT_LAYERS);
    outcome.set_self_times(&self_ms, &spans, units.max(1) as f64);
    for (name, total) in counts {
        outcome.set(name, per(total));
    }
    let predict = per(self_ms.get("pigeon.predict").copied().unwrap_or(0.0));
    let layers: f64 = PREDICT_LAYERS
        .iter()
        .map(|l| per(self_ms.get(l).copied().unwrap_or(0.0)))
        .sum();
    let unaccounted = predict - layers;
    let share = 100.0 * unaccounted / predict.max(1e-9);
    outcome.set("pigeon.unaccounted_ms", unaccounted);
    outcome.set("reconcile.unaccounted_pct", share);
    let overhead = 100.0 * (pass_ms[1] - pass_ms[0]) / pass_ms[0].max(1e-9);
    outcome.set("trace.overhead_pct", overhead);
    outcome.line(format!(
        "reconcile: pigeon.predict_ms {predict:.4} = layers {layers:.4} + unaccounted \
         {unaccounted:.4} ms per program ({share:.1}%{}) over {units} programs; \
         tracing overhead {overhead:.2}% ({:.1} ms traced vs {:.1} ms untraced replay)",
        if share.abs() > 10.0 {
            ", OVER the 10% bound"
        } else {
            ""
        },
        pass_ms[1],
        pass_ms[0]
    ));
    Ok(facade_ms)
}

/// A finished serving run, as its traced half needs it.
struct Served<'a> {
    /// The in-memory model the served copy was written from.
    model: &'a Pigeon,
    cfg: &'a PigeonConfig,
    sources: &'a [String],
    requests: &'a [Request],
    /// Names the in-process facade predicted, per program.
    expected: &'a [Vec<Named>],
    phase: &'a Phase,
    /// `/v1/metrics` before and after the load phases.
    scrapes: [&'a Scrape; 2],
    load: Duration,
    model_bytes: usize,
    /// The requests go to `predict_batch` (else `/v1/predict`).
    batch: bool,
    /// When the load phases began; the trace's time zero.
    origin: Instant,
}

/// The traced half of a serving run: replays the first `replayed`
/// requests through the layer calls and records the per-layer metrics.
/// `serve.overhead_p50_ms` is taken over requests with an index below
/// `overhead_below` whose programs were all replayed.
fn trace_serving(
    served: &Served,
    replayed: usize,
    overhead_below: usize,
    work: &WorkDir,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let mut tracer = Tracer::new(served.origin);
    let phase = served.phase;
    for &(i, tid, sent, done) in &phase.spans {
        tracer.add("serve.request", i as u64, tid, sent, done);
    }
    let facade = traced_replay(&mut tracer, served, &served.requests[..replayed], outcome)?;
    let mut overheads: Vec<f64> = phase
        .service
        .iter()
        .filter(|(i, _)| *i < overhead_below)
        .filter_map(|&(i, service)| {
            let files = &served.requests[i % served.requests.len()].files;
            let inside: Option<f64> = files.iter().map(|f| facade.get(f)).sum();
            inside.map(|inside| service - inside)
        })
        .collect();
    overheads.sort_by(f64::total_cmp);
    let [before, after] = served.scrapes;
    outcome.set("serve.overhead_p50_ms", percentile(&overheads, 0.5));
    outcome.set("serve.queue_wait_p50_ms", after.queue_wait_ms(before, 0.5));
    outcome.set("serve.queue_wait_p99_ms", after.queue_wait_ms(before, 0.99));
    let batches = after.delta(before, "pigeon_batch_size_count");
    if batches > 0.0 {
        outcome.set(
            "serve.batch_size_mean",
            after.delta(before, "pigeon_batch_size_sum") / batches,
        );
    }
    outcome.set("serve.errors", phase.failed as f64);
    outcome.set("serve.reconnects", phase.reconnects as f64);
    outcome.set("pigeon.load_ms", ms(served.load));
    outcome.set("pigeon.model_bytes", served.model_bytes as f64);
    tracer.write_chrome(&work.trace_file)?;
    outcome.line(format!("trace written to {}", work.trace_file.display()));
    Ok(())
}

fn record_phase(outcome: &mut Outcome, phase: &Phase) {
    outcome.attempted += phase.attempted;
    outcome.failed += phase.failed;
    if let Some(e) = &phase.first_error {
        outcome.line(format!("first failure: {e}"));
    }
}

/// `predict_small`: function-sized JS programs against a `.pgnc` model,
/// an open-loop phase at the fixed light rate, then a closed loop with
/// `nproc` connections.
pub fn run_small(args: &Args, work: &WorkDir) -> Result<Outcome, String> {
    let rate = args
        .light_rps
        .ok_or("predict_small needs --light-rps (the constant in BENCHMARK.json)")?;
    let mut outcome = Outcome::default();
    let language = Language::JavaScript;
    let cfg = PigeonConfig::builder()
        .jobs(nproc())
        .build()
        .map_err(|e| e.to_string())?;
    // The trained model stays in memory as the reference the served
    // `.pgnc` copy must agree with.
    let reference = train(language, SMALL_TRAIN_FILES, args.seed, &cfg)?;
    let model_bytes = reference
        .to_artifact(Quant::F32)
        .map_err(|e| e.to_string())?;
    let sources: Vec<String> = generate(language, SMALL_QUERIES, sub_seed(args.seed, 2), (1, 3))
        .into_iter()
        .map(|d| d.source)
        .collect();
    let requests: Vec<Request> = sources
        .iter()
        .enumerate()
        .map(|(i, s)| Request {
            body: serde_json::to_string(&serde_json::json!({ "source": s }))
                .expect("a string always serialises"),
            files: vec![i],
        })
        .collect();
    reset_peak_rss();

    let (server, setup, load) = set_up(&model_bytes, SMALL_SETUPS)?;
    let host = Host::start();
    // One keep-alive connection per client thread for the whole run, so
    // long runs cross the server's `max_conn_requests` and reconnect.
    let conns = nproc();
    let mut clients: Vec<Client> = (0..conns).map(|_| Client::new(server.addr)).collect();
    let origin = Instant::now();
    let before = Scrape::take(server.addr)?;
    let light = open_loop(&mut clients, &requests, rate, args.seconds * LIGHT_SHARE);
    // Request indices below this are the open-loop ones.
    let light_requests = light.attempted as usize;
    let closed = closed_loop(
        &mut clients,
        "/v1/predict",
        &requests,
        args.seconds * (1.0 - LIGHT_SHARE),
        light_requests,
    );
    let reconnects: u64 = clients.iter().map(Client::reconnects).sum();
    drop(clients);
    let after = Scrape::take(server.addr)?;
    server.stop()?;
    let kept = host.finish();
    record_peak_rss(&mut outcome);
    outcome.host(kept);
    record_setup(&mut outcome, setup, SMALL_SETUPS, load);

    let mut latency = light.latency.clone();
    latency.sort_by(f64::total_cmp);
    let mut lateness = light.lateness.clone();
    lateness.sort_by(f64::total_cmp);
    let p50 = percentile(&latency, 0.5) * kept;
    outcome.set("latency_p50_ms", p50);
    outcome.set("files_per_s", closed.files_per_s / kept);
    outcome.line(format!(
        "light_p50_ms {p50:.3} ms, light_p99_ms {:.3} ms ({} requests at {rate} req/s open \
         loop, {conns} connections; timed from when due; wall p50 {:.3} ms)",
        percentile(&latency, 0.99) * kept,
        latency.len(),
        percentile(&latency, 0.5)
    ));
    outcome.line(format!(
        "open-loop generator lateness: p50 {:.3} ms, p99 {:.3} ms, max {:.3} ms",
        percentile(&lateness, 0.5),
        percentile(&lateness, 0.99),
        lateness.last().copied().unwrap_or(0.0)
    ));
    let mut closed_latency = closed.latency.clone();
    closed_latency.sort_by(f64::total_cmp);
    outcome.line(format!(
        "peak_rps {:.1} req/s ({} requests, {conns} closed-loop connections, p50 {:.3} ms; \
         {:.1} req/s wall)",
        closed.files_per_s / kept,
        closed.attempted,
        percentile(&closed_latency, 0.5) * kept,
        closed.files_per_s
    ));
    outcome.line(format!(
        "reconnects {reconnects} (the server closes a connection after max_conn_requests)"
    ));

    let mut phase = light;
    phase.merge(closed);
    phase.reconnects = reconnects;
    record_phase(&mut outcome, &phase);
    let (expected, accuracy) = reference_predictions(&reference, &sources)?;
    check_responses(&phase, &requests, &expected, &mut outcome);

    if args.trace {
        let served = Served {
            model: &reference,
            cfg: &cfg,
            sources: &sources,
            requests: &requests,
            expected: &expected,
            phase: &phase,
            scrapes: [&before, &after],
            load,
            model_bytes: model_bytes.len(),
            batch: false,
            origin,
        };
        // Every program is replayed; the overhead comes from the
        // open-loop requests, which run on an otherwise idle server.
        trace_serving(&served, requests.len(), light_requests, work, &mut outcome)?;
    }
    accuracy.record(&mut outcome);
    Ok(outcome)
}

/// A variable namer trained on `files` generated JS files at the
/// generator defaults.
fn train(
    language: Language,
    files: usize,
    seed: u64,
    cfg: &PigeonConfig,
) -> Result<Pigeon, String> {
    let docs = generate(language, files, sub_seed(seed, 1), (1, 3));
    let sources: Vec<&str> = docs.iter().map(|d| d.source.as_str()).collect();
    Pigeon::train_variable_namer(language, &sources, cfg).map_err(|e| e.to_string())
}

/// The function count of pool file `i`, 20..=40. Each request's three
/// files add up to 90 functions (`20 + k`, `40 - k`, `30`, with `k`
/// cycling through 0..=10), so request costs and every prefix of the pool
/// mix small and large files alike from seed to seed.
fn file_functions(i: usize) -> usize {
    let k = (i / FILES_PER_REQUEST) % 11;
    match i % FILES_PER_REQUEST {
        0 => 20 + k,
        1 => 40 - k,
        _ => 30,
    }
}

/// `predict_files`: whole JS files of 20–40 functions, several per
/// `predict_batch` request, from `nproc` closed-loop clients, against a
/// data-flow model loaded from the JSON `pigeon train --out` writes.
pub fn run_files(args: &Args, work: &WorkDir) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let language = Language::JavaScript;
    let cfg = PigeonConfig::builder()
        .jobs(nproc())
        .dataflow_contexts(true)
        .build()
        .map_err(|e| e.to_string())?;
    // One model for every seed: with 100 training files the model's size,
    // and with it the JSON load and per-file inference cost, varied with
    // the seed more than the query files did. The trained model stays in
    // memory as the reference the served JSON copy must agree with.
    let reference = train(language, FILES_TRAIN_FILES, FILES_MODEL_SEED, &cfg)?;
    let model_bytes = reference.to_json().map_err(|e| e.to_string())?.into_bytes();
    let sources: Vec<String> = (0..FILES_POOL)
        .map(|i| {
            let n = file_functions(i);
            generate(language, 1, sub_seed(args.seed, 100 + i as u64), (n, n))
                .pop()
                .expect("one document")
                .source
        })
        .collect();
    let requests: Vec<Request> = (0..FILES_POOL / FILES_PER_REQUEST)
        .map(|k| {
            let files: Vec<usize> = (k * FILES_PER_REQUEST..(k + 1) * FILES_PER_REQUEST).collect();
            let batch: Vec<&str> = files.iter().map(|&f| sources[f].as_str()).collect();
            Request {
                body: serde_json::to_string(&serde_json::json!({ "sources": batch }))
                    .expect("strings always serialise"),
                files,
            }
        })
        .collect();
    let bytes: usize = sources.iter().map(String::len).sum();
    outcome.line(format!(
        "{} files of 20-40 functions, {:.0} bytes mean, {} per request; model JSON {} bytes",
        sources.len(),
        bytes as f64 / sources.len() as f64,
        FILES_PER_REQUEST,
        model_bytes.len()
    ));
    reset_peak_rss();

    let (server, setup, load) = set_up(&model_bytes, FILES_SETUPS)?;
    let host = Host::start();
    let conns = nproc();
    let mut clients: Vec<Client> = (0..conns).map(|_| Client::new(server.addr)).collect();
    let origin = Instant::now();
    let before = Scrape::take(server.addr)?;
    let mut phase = closed_loop(
        &mut clients,
        "/v1/predict_batch",
        &requests,
        args.seconds,
        0,
    );
    phase.reconnects = clients.iter().map(Client::reconnects).sum();
    drop(clients);
    let after = Scrape::take(server.addr)?;
    server.stop()?;
    let kept = host.finish();
    record_peak_rss(&mut outcome);
    outcome.host(kept);
    record_setup(&mut outcome, setup, FILES_SETUPS, load);

    let mut latency = phase.latency.clone();
    latency.sort_by(f64::total_cmp);
    let p50 = percentile(&latency, 0.5) * kept;
    outcome.set("latency_p50_ms", p50);
    outcome.set("files_per_s", phase.files_per_s / kept);
    outcome.line(format!(
        "files_per_s {:.3} files/s ({} requests of {FILES_PER_REQUEST} files, {conns} closed-loop \
         clients); request p50 {p50:.1} ms; {:.3} files/s wall",
        phase.files_per_s / kept,
        phase.attempted,
        phase.files_per_s
    ));
    record_phase(&mut outcome, &phase);

    // Accuracy covers the whole pool, not just the files sent, so it does
    // not depend on how far the clients got.
    let (expected, accuracy) = reference_predictions(&reference, &sources)?;
    check_responses(&phase, &requests, &expected, &mut outcome);

    if args.trace {
        let served = Served {
            model: &reference,
            cfg: &cfg,
            sources: &sources,
            requests: &requests,
            expected: &expected,
            phase: &phase,
            scrapes: [&before, &after],
            load,
            model_bytes: model_bytes.len(),
            batch: true,
            origin,
        };
        let replayed = (FILES_REPLAYED / FILES_PER_REQUEST).max(1);
        trace_serving(&served, replayed, usize::MAX, work, &mut outcome)?;
    }
    accuracy.record(&mut outcome);
    Ok(outcome)
}
