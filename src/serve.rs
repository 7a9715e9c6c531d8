//! `pigeon serve`: a dependency-free high-throughput HTTP prediction
//! server.
//!
//! The lineage system of the paper's CRF — Nice2Predict, deployed at
//! jsnice.org — was a prediction *service*; this module turns a trained
//! [`Pigeon`] model into one using nothing beyond `std`. Three layers
//! carry the traffic:
//!
//! 1. **Keep-alive connections.** HTTP/1.1 connections are persistent by
//!    default: each worker loops `read_request` on its socket until the
//!    client sends `Connection: close`, the idle read timeout passes
//!    between requests (closed silently — no 408 written into the void),
//!    or the per-connection request cap is reached. This removes the TCP
//!    connect/teardown tax that made one-request-per-connection serving
//!    ~2× slower than the in-process loop (see `EXPERIMENTS.md`).
//! 2. **Admission queue + micro-batching.** `POST /v1/predict` bodies do
//!    not run inference on the connection worker; they enter a bounded
//!    admission queue that a batcher thread drains into micro-batches
//!    sized by current queue depth (bounded companion wait, default
//!    2 ms, cut short at `batch_max`), predicting and rendering each
//!    job's response body in one parallel map. Past `queue_cap`
//!    waiting jobs the server answers `429` with `Retry-After` and the
//!    stable code `overloaded` instead of accepting unbounded work.
//! 3. **Versioned model registry with atomic hot swap.** The model given
//!    at startup is version 1; `POST /v1/models` loads a new model —
//!    JSON or a compiled `.pgnc` artifact, sniffed by magic —
//!    into an `Arc` and swaps it in atomically — in-flight batches keep
//!    their own handle to the old version, so a swap never fails a
//!    request. `GET /v1/models` lists every version; `/v1/stats` carries
//!    per-version request/prediction slices.
//!
//! `--cache-dir DIR` also arms the distributed-training surface
//! (`/v1/train-jobs`, `/v1/leases`, `/v1/partials`). Started with
//! `--cache-dir` and no `--model`, the server is a model-less
//! coordinator: the predict routes answer a coded 409 until a train job
//! finishes (its merged model becomes the active version) or a model is
//! POSTed.
//!
//! # Protocol (v1)
//!
//! Minimal HTTP/1.1 with keep-alive, framed by [`crate::http`]: this
//! module routes requests, that one reads and renders every head and
//! body. Every JSON response carries
//! `"api": "pigeon/1"`; errors come back as `{"api": "pigeon/1",
//! "code": "<stable code>", "error": "<message>"}` with a 4xx/5xx
//! status, where `code` matches [`crate::ErrorKind::code`] for failures
//! originating in the facade.
//!
//! * `POST /v1/predict` — body `{"source": "<program text>"}`; responds
//!   `{"model_version": N, "predictions": […]}`, one object per
//!   predicted name with its current name and ranked `[name, score]`
//!   candidates (rendered by `render_predictions` in `src/lib.rs`).
//! * `POST /v1/predict_batch` — body `{"sources": ["<program>", …]}`;
//!   responds `{"model_version": N, "results": [<per-source predict
//!   response>, …]}` in request order (per-source failures inline as
//!   `{"error", "code"}`).
//! * `POST /v1/models` — body is either a model JSON (the `pigeon
//!   train --out` format) or the raw bytes of a compiled `.pgnc`
//!   artifact (`pigeon compile`); the format is sniffed by magic.
//!   Loads it, makes it the active version, responds `{"version": N,
//!   "language", "format": "json"|"artifact", "active": true}`. A body
//!   that fails to load as either answers `400` with the stable code of
//!   the load error (`model-format`, `parse`, …).
//! * `GET /v1/models` — every loaded version with its origin and
//!   active flag.
//! * `GET /v1/stats` — request/error/prediction counters, latency,
//!   throughput, queue/batch counters, and per-model-version slices.
//! * `GET /v1/health` — liveness probe, `{"status": "ok"}`.
//! * `GET /v1/metrics` — Prometheus text exposition: the process-global
//!   telemetry registry merged with this server's request counters,
//!   queue-depth gauge, and batch-size/latency histograms.
//!
//! Unversioned paths (`/predict`, `/stats`, …) answer `404 not-found`.
//!
//! # Robustness
//!
//! Every connection gets a read timeout and a bounded request size, so a
//! slow or hostile client cannot wedge a worker. Request handling runs
//! under `catch_unwind`: a panicking handler answers `500` with a
//! contract-conforming error body and the worker lives on. Every lock in
//! the serving path recovers from poisoning (`PoisonError::into_inner`)
//! — one panic while holding the latency reservoir or the connection
//! hand-off must degrade that one request, never the server. The accept
//! loop exits cleanly on SIGINT/SIGTERM or after `--idle-timeout`
//! seconds without a request, joining all workers and the batcher before
//! returning.

use crate::http::{self, FrameError};
use crate::{Pigeon, PigeonConfig, PigeonError};
use pigeon_corpus::Language;
use pigeon_eval::coordinator::{
    cache_key, config_fingerprint, corpus_shard_fingerprint, Lease, ShardBoard,
};
use pigeon_eval::partial::{config_knobs, decode_partial, knob_mismatch, PartialMeta};
use pigeon_eval::{parallel_map_indexed, shard_range, ElementClass};
use pigeon_telemetry as telemetry;
use pigeon_telemetry::{Counter, Gauge, Histogram, Registry};
use std::collections::VecDeque;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock};
use std::time::{Duration, Instant};

/// The API version tag stamped on every JSON response.
pub const API_VERSION: &str = "pigeon/1";

/// Bucket bounds for the `pigeon_batch_size` histogram: micro-batches
/// are sized by queue depth, capped by `--batch-max`.
pub const BATCH_SIZE_BOUNDS: &[u64] = &[1, 2, 4, 8, 16, 32, 64, 128];

/// Configuration of one [`BoundServer::run`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Interface to bind.
    pub host: String,
    /// Port to bind; `0` picks an ephemeral port (printed on startup).
    pub port: u16,
    /// Worker threads handling connections; `0` uses all cores. Also the
    /// fan-out for inference inside one micro-batch.
    pub workers: usize,
    /// Largest accepted request body, in bytes.
    pub max_request_bytes: usize,
    /// Per-connection socket read timeout. Mid-request, hitting it is a
    /// `408`; between keep-alive requests it closes the connection
    /// silently.
    pub read_timeout: Duration,
    /// Exit after this long without a request; `None` serves forever.
    pub idle_timeout: Option<Duration>,
    /// Honor HTTP/1.1 persistent connections. `false` restores the old
    /// one-request-per-connection behaviour (`Connection: close` on
    /// every response).
    pub keep_alive: bool,
    /// Requests served on one connection before the server closes it
    /// (bounds per-connection resource pinning).
    pub max_conn_requests: usize,
    /// Largest micro-batch the admission queue hands to the batcher.
    pub batch_max: usize,
    /// How long the batcher waits for companion requests after the first
    /// job of a batch arrives (cut short once `batch_max` are queued).
    pub batch_wait: Duration,
    /// Admission-queue capacity; a submit past this answers `429` with
    /// `Retry-After`.
    pub queue_cap: usize,
    /// Content-addressed partial cache directory. Setting it arms the
    /// distributed-training surface (`/v1/partials`, `/v1/train-jobs`,
    /// `/v1/leases`); `None` answers those routes with a coded 409.
    pub cache_dir: Option<String>,
    /// Base shard-lease duration: a worker that has not uploaded its
    /// shard within this window is presumed dead and the shard is
    /// reassigned (with capped exponential backoff per retry).
    pub lease_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            host: "127.0.0.1".to_owned(),
            port: 7470,
            workers: 0,
            max_request_bytes: 1 << 20,
            read_timeout: Duration::from_secs(5),
            idle_timeout: None,
            keep_alive: true,
            max_conn_requests: 1000,
            batch_max: 16,
            batch_wait: Duration::from_millis(2),
            queue_cap: 256,
            cache_dir: None,
            lease_timeout: Duration::from_secs(60),
        }
    }
}

/// Locks a mutex, recovering from poisoning: the data under every lock
/// in the serving path stays usable after a panic (a half-updated
/// reservoir sample or queue is still structurally valid), so a single
/// panicking request must not turn into a denial of service where every
/// later `.lock().expect(…)` panics too.
fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Fixed-memory uniform sample of observed latencies (Vitter's
/// Algorithm R): the first `CAPACITY` observations fill the buffer,
/// after which the `n`-th observation replaces a random slot with
/// probability `CAPACITY / n`. Percentiles read from the sample are
/// unbiased estimates of the true distribution at O(1) memory, however
/// long the server runs. Replacement indices come from a deterministic
/// LCG so the sampler needs no RNG dependency.
#[derive(Debug)]
struct Reservoir {
    samples: Vec<u64>,
    /// Total observations offered, including those not retained.
    seen: u64,
    /// LCG state (Knuth's MMIX multiplier).
    state: u64,
}

impl Reservoir {
    const CAPACITY: usize = 1024;

    fn next_u64(&mut self) -> u64 {
        self.state = self
            .state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        // The high bits of an LCG are the well-mixed ones.
        self.state >> 11
    }

    fn offer(&mut self, value: u64) {
        self.seen += 1;
        if self.samples.len() < Self::CAPACITY {
            self.samples.push(value);
        } else {
            let slot = self.next_u64() % self.seen;
            if (slot as usize) < Self::CAPACITY {
                self.samples[slot as usize] = value;
            }
        }
    }

    /// Nearest-rank percentiles over the current sample, one sort for
    /// all requested ranks. Returns zeros while the sample is empty.
    fn percentiles<const N: usize>(&self, ranks: [f64; N]) -> [u64; N] {
        if self.samples.is_empty() {
            return [0; N];
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        ranks.map(|q| {
            let idx = ((q * sorted.len() as f64).ceil() as usize).max(1) - 1;
            sorted[idx.min(sorted.len() - 1)]
        })
    }
}

impl Default for Reservoir {
    fn default() -> Self {
        Reservoir {
            samples: Vec::new(),
            seen: 0,
            state: 0x9e37_79b9_7f4a_7c15,
        }
    }
}

/// Request/latency series shared by every worker, exposed on `/stats`
/// and (merged with the process-global registry) on `/metrics`.
///
/// Counters, gauges and histograms live in a **per-server** telemetry
/// [`Registry`] so two servers in one process never mix numbers; the
/// reservoir stays because the `/stats` percentiles are exact
/// order-statistics of a uniform sample, which histogram buckets cannot
/// provide (a bucket upper bound can exceed the observed max).
///
/// Every family is registered eagerly in [`Stats::new`] so `/v1/metrics`
/// exposes the full schema (queue depth, batch size, …) from the first
/// scrape, before any traffic — and so the exposition is byte-stable for
/// a given request sequence whatever `--jobs` is.
struct Stats {
    registry: Arc<Registry>,
    connections: Arc<Counter>,
    requests: Arc<Counter>,
    errors: Arc<Counter>,
    predictions: Arc<Counter>,
    /// `429` answers: submits rejected by the full admission queue.
    rejected: Arc<Counter>,
    /// Models activated via `POST /v1/models`.
    model_swaps: Arc<Counter>,
    /// Validated partial uploads written newly into the cache.
    partials_received: Arc<Counter>,
    /// Uploads (or job-creation scans) satisfied by an existing cache
    /// entry — the "unchanged shard never re-done" counter.
    partials_cached: Arc<Counter>,
    /// Partial uploads rejected (corrupt container or knob mismatch).
    partials_rejected: Arc<Counter>,
    /// Shards taken back from an expired lease and handed to another
    /// worker.
    reassignments: Arc<Counter>,
    /// Jobs currently waiting in the admission queue.
    queue_depth: Arc<Gauge>,
    /// Micro-batch sizes the admission queue handed to the batcher.
    batch_size: Arc<Histogram>,
    /// Time jobs spent queued before their batch started, microseconds.
    queue_wait: Arc<Histogram>,
    /// Predict/batch request latency, microseconds (sum and count double
    /// as the `/stats` totals).
    latency: Arc<Histogram>,
    latency_max_micros: AtomicU64,
    /// Sampled individual latencies for the `/stats` percentiles.
    latency_sample: Mutex<Reservoir>,
}

impl Stats {
    fn new() -> Self {
        // Training-path families (checkpoint save/load, shard merge,
        // resume counts) register eagerly too: a serving process never
        // trains, but `/v1/metrics` must expose the same family set as
        // any other process so dashboards and the CI byte-stability
        // check see one stable schema.
        crate::register_training_metrics();
        let registry = Arc::new(telemetry::global().shard());
        registry.describe(
            "pigeon_http_requests_total",
            "HTTP requests answered, by endpoint and status",
        );
        registry.describe("pigeon_connections_total", "Connections accepted");
        registry.describe("pigeon_requests_total", "HTTP requests parsed");
        registry.describe(
            "pigeon_request_errors_total",
            "Requests answered with an error status",
        );
        registry.describe("pigeon_predictions_total", "Program elements predicted");
        registry.describe(
            "pigeon_queue_rejected_total",
            "Predict submissions rejected with 429 because the admission queue was full",
        );
        registry.describe(
            "pigeon_model_swaps_total",
            "Model versions activated via POST /v1/models",
        );
        registry.describe(
            "pigeon_queue_depth",
            "Predict jobs currently waiting in the admission queue",
        );
        registry.describe(
            "pigeon_batch_size",
            "Micro-batch sizes the admission queue handed to the batcher",
        );
        registry.describe(
            "pigeon_queue_wait_micros",
            "Time predict jobs spent in the admission queue, microseconds",
        );
        registry.describe(
            "pigeon_predict_latency_micros",
            "Predict endpoint latency in microseconds",
        );
        registry.describe(
            "pigeon_partials_received_total",
            "Validated partial uploads newly written into the cache",
        );
        registry.describe(
            "pigeon_partials_cached_total",
            "Partial uploads or job shards satisfied by an existing cache entry",
        );
        registry.describe(
            "pigeon_partials_rejected_total",
            "Partial uploads rejected on decode or config mismatch",
        );
        registry.describe(
            "pigeon_shard_reassignments_total",
            "Shards reassigned after a lease deadline expired",
        );
        registry.describe(
            "pigeon_job_phase_micros",
            "Train-job phase latency in microseconds, by phase",
        );
        // Eager label registration keeps the /v1/metrics schema stable
        // from the first scrape.
        for phase in ["collect", "merge"] {
            registry.histogram(
                "pigeon_job_phase_micros",
                &[("phase", phase)],
                telemetry::PHASE_BOUNDS,
            );
        }
        Stats {
            connections: registry.counter("pigeon_connections_total", &[]),
            requests: registry.counter("pigeon_requests_total", &[]),
            errors: registry.counter("pigeon_request_errors_total", &[]),
            predictions: registry.counter("pigeon_predictions_total", &[]),
            rejected: registry.counter("pigeon_queue_rejected_total", &[]),
            model_swaps: registry.counter("pigeon_model_swaps_total", &[]),
            partials_received: registry.counter("pigeon_partials_received_total", &[]),
            partials_cached: registry.counter("pigeon_partials_cached_total", &[]),
            partials_rejected: registry.counter("pigeon_partials_rejected_total", &[]),
            reassignments: registry.counter("pigeon_shard_reassignments_total", &[]),
            queue_depth: registry.gauge("pigeon_queue_depth", &[]),
            batch_size: registry.histogram("pigeon_batch_size", &[], BATCH_SIZE_BOUNDS),
            queue_wait: registry.histogram(
                "pigeon_queue_wait_micros",
                &[],
                telemetry::LATENCY_BOUNDS,
            ),
            latency: registry.histogram(
                "pigeon_predict_latency_micros",
                &[],
                telemetry::LATENCY_BOUNDS,
            ),
            registry,
            latency_max_micros: AtomicU64::new(0),
            latency_sample: Mutex::new(Reservoir::default()),
        }
    }

    /// Counts one answered request under its canonical endpoint + status.
    fn record_http(&self, endpoint: &'static str, status: u16) {
        self.registry
            .counter(
                "pigeon_http_requests_total",
                &[("endpoint", endpoint), ("status", &status.to_string())],
            )
            .inc();
    }

    /// Observes one train-job phase duration (`collect` or `merge`).
    fn observe_job_phase(&self, phase: &'static str, elapsed: Duration) {
        self.registry
            .histogram(
                "pigeon_job_phase_micros",
                &[("phase", phase)],
                telemetry::PHASE_BOUNDS,
            )
            .observe(elapsed.as_micros() as u64);
    }

    fn record_latency(&self, elapsed: Duration) {
        let micros = elapsed.as_micros() as u64;
        self.latency.observe(micros);
        self.latency_max_micros.fetch_max(micros, Ordering::Relaxed);
        lock_unpoisoned(&self.latency_sample).offer(micros);
    }

    /// The `/metrics` document: the process-global registry (pipeline
    /// phases, extraction counters) merged with this server's request
    /// series, rendered in the byte-stable Prometheus text format.
    fn render_metrics(&self) -> String {
        let merged = Registry::default();
        merged.merge(telemetry::global());
        merged.merge(&self.registry);
        merged.render_prometheus()
    }

    fn to_json(&self, uptime: Duration, models: &ModelRegistry) -> serde_json::Value {
        let predict_requests = self.latency.count();
        let latency_micros = self.latency.sum();
        let predictions = self.predictions.get();
        let uptime_secs = uptime.as_secs_f64();
        let mean_micros = if predict_requests == 0 {
            0.0
        } else {
            latency_micros as f64 / predict_requests as f64
        };
        let throughput = if uptime_secs > 0.0 {
            predictions as f64 / uptime_secs
        } else {
            0.0
        };
        let [p50, p95, p99] = lock_unpoisoned(&self.latency_sample).percentiles([0.50, 0.95, 0.99]);
        let (active_version, versions) = models.snapshot();
        let model_slices: Vec<serde_json::Value> = versions
            .iter()
            .map(|m| {
                serde_json::json!({
                    "version": m.version,
                    "language": m.language,
                    "origin": m.origin.as_str(),
                    "active": Some(m.version) == active_version,
                    "predict_requests_total": m.predict_requests.load(Ordering::Relaxed),
                    "predictions_total": m.predictions.load(Ordering::Relaxed),
                    "errors_total": m.errors.load(Ordering::Relaxed),
                })
            })
            .collect();
        serde_json::json!({
            "uptime_secs": uptime_secs,
            "connections_total": self.connections.get(),
            "requests_total": self.requests.get(),
            "errors_total": self.errors.get(),
            "rejected_total": self.rejected.get(),
            "predict_requests_total": predict_requests,
            "predictions_total": predictions,
            "batches_total": self.batch_size.count(),
            "latency_micros_total": latency_micros,
            "latency_micros_mean": mean_micros,
            "latency_micros_p50": p50,
            "latency_micros_p95": p95,
            "latency_micros_p99": p99,
            "latency_micros_max": self.latency_max_micros.load(Ordering::Relaxed),
            "predictions_per_sec": throughput,
            "models": serde_json::Value::Array(model_slices),
        })
    }
}

/// One model version's record for `GET /v1/models` and the `/v1/stats`
/// slices: where it came from and its request accounting. The registry
/// keeps every version's record, but only the active version's model.
struct ModelVersion {
    version: u64,
    language: &'static str,
    /// Where this version came from: `"startup"` or `"api"`.
    origin: String,
    predict_requests: AtomicU64,
    predictions: AtomicU64,
    errors: AtomicU64,
}

impl ModelVersion {
    /// Counts one predicted program: `Some(n)` names predicted, or
    /// `None` when it failed.
    fn record(&self, predictions: Option<usize>) {
        self.predict_requests.fetch_add(1, Ordering::Relaxed);
        match predictions {
            Some(n) => {
                self.predictions.fetch_add(n as u64, Ordering::Relaxed);
            }
            None => {
                self.errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// A model that can serve, with its version's record. In-flight batches
/// hold their own `Arc<LoadedModel>`, so activating a new version never
/// drops a model out from under a running prediction, and a replaced
/// model is freed when the last batch using it ends.
struct LoadedModel {
    model: Pigeon,
    meta: Arc<ModelVersion>,
}

/// The versioned model registry behind `POST /v1/models`: an append-only
/// list of version records plus an atomically swappable active model. A
/// model-less coordinator starts with no model at all — the predict
/// routes answer a coded 409 until a model is installed (via `POST
/// /v1/models` or a finished train job).
#[derive(Default)]
struct ModelRegistry {
    versions: RwLock<Vec<Arc<ModelVersion>>>,
    active: RwLock<Option<Arc<LoadedModel>>>,
}

impl ModelRegistry {
    fn new(model: Option<Pigeon>, origin: &str) -> Self {
        let registry = ModelRegistry::default();
        if let Some(model) = model {
            registry.install(model, origin);
        }
        registry
    }

    /// The model new work should run against. Callers keep the `Arc`
    /// for the whole batch, so a concurrent swap cannot unload it.
    fn active(&self) -> Option<Arc<LoadedModel>> {
        self.active
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Registers `model` as the next version and atomically makes it
    /// active. Returns the new version's record.
    fn install(&self, model: Pigeon, origin: &str) -> Arc<ModelVersion> {
        let mut versions = self
            .versions
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        let meta = Arc::new(ModelVersion {
            version: versions.len() as u64 + 1,
            language: model.language().name(),
            origin: origin.to_owned(),
            predict_requests: AtomicU64::new(0),
            predictions: AtomicU64::new(0),
            errors: AtomicU64::new(0),
        });
        versions.push(Arc::clone(&meta));
        let loaded = Arc::new(LoadedModel {
            model,
            meta: Arc::clone(&meta),
        });
        let replaced = self
            .active
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .replace(loaded);
        // Unless a batch still holds it, the replaced model is freed
        // here, after both locks.
        drop(versions);
        drop(replaced);
        meta
    }

    /// One version by number (`GET /v1/models/<version>`).
    fn get(&self, version: u64) -> Option<Arc<ModelVersion>> {
        self.versions
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .find(|m| m.version == version)
            .cloned()
    }

    /// `(active version, all versions in load order)`.
    fn snapshot(&self) -> (Option<u64>, Vec<Arc<ModelVersion>>) {
        let active = self.active().map(|m| m.meta.version);
        let versions = self
            .versions
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        (active, versions)
    }
}

/// The coded 409 every inference route answers while no model is
/// loaded (a coordinator started without `--model`).
fn no_model_error() -> HttpError {
    HttpError::new(
        409,
        "Conflict",
        "no-model",
        "no model is loaded; POST one to /v1/models or finish a train job".to_owned(),
    )
}

/// One queued predict job: the program source and the channel its
/// connection worker blocks on for the batch result.
struct Job {
    source: String,
    enqueued: Instant,
    reply: mpsc::Sender<JobReply>,
}

/// A predicted job: its whole response body and how many names it
/// predicted, or the error to answer instead.
type JobReply = Result<(String, usize), PigeonError>;

#[derive(Debug)]
enum SubmitError {
    /// Queue at capacity — the backpressure (429) path.
    Full,
    /// Server shutting down.
    Closed,
}

struct QueueState {
    jobs: VecDeque<Job>,
    closed: bool,
}

/// The bounded admission queue in front of the batcher. Connection
/// workers [`AdmissionQueue::submit`] single-predict jobs; the batcher
/// thread drains them in [`AdmissionQueue::next_batch`] micro-batches
/// sized by current depth.
struct AdmissionQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
    cap: usize,
    depth_gauge: Arc<Gauge>,
}

impl AdmissionQueue {
    fn new(cap: usize, depth_gauge: Arc<Gauge>) -> Self {
        AdmissionQueue {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            cap: cap.max(1),
            depth_gauge,
        }
    }

    fn submit(&self, source: String) -> Result<mpsc::Receiver<JobReply>, SubmitError> {
        let (tx, rx) = mpsc::channel();
        let mut state = lock_unpoisoned(&self.state);
        if state.closed {
            return Err(SubmitError::Closed);
        }
        if state.jobs.len() >= self.cap {
            return Err(SubmitError::Full);
        }
        state.jobs.push_back(Job {
            source,
            enqueued: Instant::now(),
            reply: tx,
        });
        self.depth_gauge.set(state.jobs.len() as i64);
        self.ready.notify_one();
        Ok(rx)
    }

    /// Blocks until a micro-batch is ready (or the queue is closed and
    /// drained — then `None`). After the first job arrives the batcher
    /// waits up to `batch_wait` for companions, cut short the moment
    /// `batch_max` are queued; it then takes `min(depth, batch_max)`
    /// jobs — the batch is sized by whatever the queue holds.
    fn next_batch(&self, batch_max: usize, batch_wait: Duration) -> Option<Vec<Job>> {
        let mut state = lock_unpoisoned(&self.state);
        loop {
            if !state.jobs.is_empty() {
                break;
            }
            if state.closed {
                return None;
            }
            state = self
                .ready
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        let deadline = Instant::now() + batch_wait;
        while state.jobs.len() < batch_max && !state.closed {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            state = self
                .ready
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        let n = state.jobs.len().min(batch_max);
        let batch: Vec<Job> = state.jobs.drain(..n).collect();
        self.depth_gauge.set(state.jobs.len() as i64);
        Some(batch)
    }

    /// Marks the queue closed and wakes the batcher; queued jobs still
    /// drain (the batcher exits once the queue is empty).
    fn close(&self) {
        lock_unpoisoned(&self.state).closed = true;
        self.ready.notify_all();
    }
}

/// Everything a worker needs to answer requests, borrowed across the
/// server's thread scope.
struct ServerCtx {
    models: ModelRegistry,
    queue: AdmissionQueue,
    stats: Stats,
    started: Instant,
    /// Inference fan-out inside one micro-batch.
    infer_jobs: usize,
    /// Distributed-training coordination, armed by `--cache-dir`.
    coord: Option<CoordState>,
}

/// The batcher: drains the admission queue into micro-batches against
/// the currently active model version, predicting and rendering each
/// job's response body inside one parallel map over the batch. A panic
/// inside inference answers every job in the batch with a coded internal
/// error instead of killing the thread.
fn run_batcher(ctx: &ServerCtx, cfg: &ServeConfig) {
    while let Some(batch) = ctx.queue.next_batch(cfg.batch_max.max(1), cfg.batch_wait) {
        let Some(entry) = ctx.models.active() else {
            // Model-less coordinator: the predict route answers 409
            // before submitting, so this only covers the race where the
            // active model disappeared between submit and drain (it
            // cannot today — versions are append-only — but the batcher
            // must never panic on the invariant).
            for job in &batch {
                let _ = job
                    .reply
                    .send(Err(PigeonError::internal("no model loaded")));
            }
            continue;
        };
        ctx.stats.batch_size.observe(batch.len() as u64);
        let now = Instant::now();
        for job in &batch {
            let waited = now.saturating_duration_since(job.enqueued).as_micros() as u64;
            ctx.stats.queue_wait.observe(waited);
        }
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            parallel_map_indexed(&batch, ctx.infer_jobs, |_, job| {
                let mut body = open_predict_body(entry.meta.version, "predictions");
                let n = entry.model.predict_json(&job.source, &mut body)?;
                body.push('}');
                Ok((body, n))
            })
        }));
        match outcome {
            Ok(replies) => {
                for (job, reply) in batch.iter().zip(replies) {
                    entry.meta.record(reply.as_ref().ok().map(|&(_, n)| n));
                    let _ = job.reply.send(reply);
                }
            }
            Err(_) => {
                for job in &batch {
                    entry.meta.record(None);
                    let _ = job.reply.send(Err(PigeonError::internal(
                        "prediction panicked; the server recovered",
                    )));
                }
            }
        }
    }
}

/// Set by the SIGINT/SIGTERM handler; the accept loop polls it.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_shutdown_handler() {
    extern "C" fn on_signal(_signum: i32) {
        SHUTDOWN.store(true, Ordering::SeqCst);
    }
    extern "C" {
        // Provided by libc, which std already links; declaring it here
        // keeps the server dependency-free.
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    let handler = on_signal as extern "C" fn(i32) as *const () as usize;
    unsafe {
        signal(SIGINT, handler);
        signal(SIGTERM, handler);
    }
}

#[cfg(not(unix))]
fn install_shutdown_handler() {}

/// Blocks until `listener` has a connection to accept, a signal arrives
/// or `timeout` passes, whichever is first. The bound keeps the accept
/// loop's shutdown and idle checks on their cadence.
#[cfg(target_os = "linux")]
fn wait_for_connection(listener: &TcpListener, timeout: Duration) {
    use std::ffi::{c_int, c_short, c_ulong};
    use std::os::unix::io::AsRawFd;
    /// `struct pollfd` of `<poll.h>`.
    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }
    extern "C" {
        // Provided by libc, which std already links; declaring it here
        // keeps the server dependency-free.
        fn poll(fds: *mut PollFd, nfds: c_ulong, timeout_ms: c_int) -> c_int;
    }
    const POLLIN: c_short = 1;
    let mut fd = PollFd {
        fd: listener.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let timeout_ms = c_int::try_from(timeout.as_millis()).unwrap_or(c_int::MAX);
    // SAFETY: `fd` is one live, `repr(C)` `struct pollfd` that outlives the
    // call, `nfds` is 1, and the descriptor stays open (the listener is
    // borrowed).
    let ready = unsafe { poll(&mut fd, 1, timeout_ms) };
    if ready < 0 {
        // A failed wait (a signal, say) naps instead, so the accept loop
        // can never spin.
        std::thread::sleep(timeout);
    }
}

/// Other targets nap for the whole bound instead.
#[cfg(not(target_os = "linux"))]
fn wait_for_connection(_listener: &TcpListener, timeout: Duration) {
    std::thread::sleep(timeout);
}

/// Whether the fault-injection endpoint (`POST /v1/_chaos/poison`) is
/// armed. Off unless the process runs with `PIGEON_CHAOS=1`; the e2e
/// poisoned-lock regression test uses it to panic a worker while it
/// holds the latency reservoir.
fn chaos_enabled() -> bool {
    std::env::var("PIGEON_CHAOS").is_ok_and(|v| v == "1")
}

/// One parsed HTTP request.
struct Request {
    method: String,
    path: String,
    /// Raw body bytes. Endpoints that expect JSON validate UTF-8
    /// themselves (via [`parse_json_body`]); `POST /v1/models` accepts
    /// binary artifact bytes as-is.
    body: Vec<u8>,
    /// The client asked for (or its HTTP version implies) connection
    /// close after this response.
    wants_close: bool,
}

/// An HTTP error response: status, reason phrase, a stable
/// machine-readable code (matching [`crate::ErrorKind::code`] when the
/// failure came from the facade), and a human-readable message.
struct HttpError {
    status: u16,
    reason: &'static str,
    code: &'static str,
    message: String,
    /// Rendered as a `Retry-After: N` header (the 429 backpressure path).
    retry_after: Option<u64>,
}

impl HttpError {
    fn new(status: u16, reason: &'static str, code: &'static str, message: String) -> Self {
        HttpError {
            status,
            reason,
            code,
            message,
            retry_after: None,
        }
    }

    fn bad_request(message: String) -> Self {
        HttpError::new(400, "Bad Request", "bad-request", message)
    }

    /// The backpressure answer: queue full, come back shortly.
    fn overloaded(cap: usize) -> Self {
        let mut e = HttpError::new(
            429,
            "Too Many Requests",
            "overloaded",
            format!("admission queue full ({cap} jobs queued); retry shortly"),
        );
        e.retry_after = Some(1);
        e
    }

    /// A handler panicked; `catch_unwind` turned it into this coded 500.
    fn internal() -> Self {
        HttpError::new(
            500,
            "Internal Server Error",
            "internal",
            "request handler panicked; the server recovered".to_owned(),
        )
    }
}

/// A successful response body: JSON for the API endpoints, Prometheus
/// text for `/metrics`, raw bytes for partial/model downloads.
enum Payload {
    Json(serde_json::Value),
    Metrics(String),
    /// `(content type, body)` — served verbatim (`GET /v1/partials/…`,
    /// `GET /v1/train-jobs/…/model`, and the predict routes' bodies,
    /// rendered straight from the inference result).
    Bytes(&'static str, Vec<u8>),
}

/// Renders a response head through the shared framing; the caller
/// writes the body bytes separately.
fn render_head(
    status: u16,
    reason: &str,
    content_type: &str,
    connection: &str,
    retry_after: Option<u64>,
    body_len: usize,
) -> String {
    let retry = retry_after.map(|secs| secs.to_string());
    let mut headers = Vec::with_capacity(2);
    if let Some(secs) = &retry {
        headers.push(("Retry-After", secs.as_str()));
    }
    headers.push(("Connection", connection));
    http::render_head(
        &format!("HTTP/1.1 {status} {reason}"),
        content_type,
        body_len,
        &headers,
    )
}

/// Stamps the v1 API version field onto a JSON object response.
pub(crate) fn with_api(value: serde_json::Value) -> serde_json::Value {
    match value {
        serde_json::Value::Object(mut map) => {
            map.insert(
                "api".to_owned(),
                serde_json::Value::String(API_VERSION.to_owned()),
            );
            serde_json::Value::Object(map)
        }
        other => other,
    }
}

/// Opens a predict route's response body up to its list: `{"api":
/// "pigeon/1", "model_version": N, "<key>": ` without whitespace, the
/// keys [`with_api`] and the JSON printer's sorted maps put first. The
/// caller appends the list and the closing `}`.
pub(crate) fn open_predict_body(model_version: u64, key: &str) -> String {
    let mut out = String::from("{\"api\":");
    serde_json::write_string(&mut out, API_VERSION);
    out.push_str(",\"model_version\":");
    serde_json::write_number(&mut out, serde_json::Number::PosInt(model_version));
    out.push(',');
    serde_json::write_string(&mut out, key);
    out.push(':');
    out
}

/// Appends one `/v1/predict_batch` result: `{"predictions": […]}` as
/// `predict` renders it, or, when it fails, the error in place as
/// `{"code", "error"}` with the same stable code as a top-level error
/// body, so one bad program does not void the rest of the batch.
/// Returns how many names were predicted.
pub(crate) fn push_batch_entry(
    body: &mut String,
    predict: impl FnOnce(&mut String) -> Result<usize, PigeonError>,
) -> Option<usize> {
    let start = body.len();
    body.push_str("{\"predictions\":");
    let predicted = predict(body);
    if let Err(e) = &predicted {
        body.truncate(start);
        body.push_str("{\"code\":");
        serde_json::write_string(body, e.code());
        body.push_str(",\"error\":");
        serde_json::write_string(body, &e.to_string());
    }
    body.push('}');
    predicted.ok()
}

/// The last-resort error body. Even when JSON rendering itself fails,
/// the v1 contract holds: `"api"` stamp and a stable machine `code`.
const INTERNAL_ERROR_BODY: &str =
    "{\"api\":\"pigeon/1\",\"code\":\"internal\",\"error\":\"internal error\"}";

fn error_body(code: &str, message: &str) -> String {
    serde_json::to_string(&with_api(serde_json::json!({
        "code": code,
        "error": message,
    })))
    .unwrap_or_else(|_| INTERNAL_ERROR_BODY.to_owned())
}

impl From<FrameError> for HttpError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::HeadTooLarge => HttpError::new(
                431,
                "Request Header Fields Too Large",
                "bad-request",
                "headers too large".into(),
            ),
            FrameError::Malformed(message) => HttpError::bad_request(message),
            FrameError::Timeout => HttpError::new(
                408,
                "Request Timeout",
                "timeout",
                "connection read timed out mid-request".into(),
            ),
            FrameError::Io(e) => {
                HttpError::new(400, "Bad Request", "io", format!("read failed: {e}"))
            }
        }
    }
}

/// Reads and parses one request off the socket, enforcing the body-size
/// bound before the body is read.
///
/// `Ok(None)` means the connection ended cleanly **between** requests —
/// the peer closed it, or the read timeout passed with not a single
/// byte of a new request read. The caller closes silently: writing a
/// 408 into a connection the client has mentally parked (or already
/// closed) would corrupt keep-alive framing. A timeout *after* the
/// first byte is a real mid-request stall and surfaces as 408; an
/// oversized head as 431, an oversized body as 413.
fn read_request(
    reader: &mut BufReader<&TcpStream>,
    max_body: usize,
) -> Result<Option<Request>, HttpError> {
    let Some(head) = http::read_head(reader)? else {
        return Ok(None);
    };
    let mut parts = head.start_line.split_whitespace();
    let (Some(method), Some(path)) = (parts.next(), parts.next()) else {
        return Err(HttpError::bad_request("malformed request line".into()));
    };
    let (method, path) = (method.to_owned(), path.to_owned());
    let http_10 = parts
        .next()
        .is_some_and(|v| v.eq_ignore_ascii_case("HTTP/1.0"));
    let len = head.content_length()?.unwrap_or(0);
    if len > max_body {
        return Err(HttpError::new(
            413,
            "Payload Too Large",
            "too-large",
            format!("request body of {len} bytes exceeds the {max_body}-byte limit"),
        ));
    }
    let body = http::read_body(reader, Some(len))?;
    // HTTP/1.1 defaults to keep-alive unless the client says `close`;
    // HTTP/1.0 defaults to close unless it says `keep-alive`.
    let connection = head.header("connection").unwrap_or("").to_ascii_lowercase();
    let wants_close = if connection.contains("close") {
        true
    } else if http_10 {
        !connection.contains("keep-alive")
    } else {
        false
    };
    Ok(Some(Request {
        method,
        path,
        body,
        wants_close,
    }))
}

fn parse_json_body(body: &[u8]) -> Result<serde_json::Value, HttpError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| HttpError::bad_request("request body is not UTF-8".to_owned()))?;
    serde_json::from_str(text)
        .map_err(|e| HttpError::bad_request(format!("request is not valid JSON: {e}")))
}

/// The shared validation path for binary uploads (`POST /v1/models`,
/// `POST /v1/partials`): reject empty bodies, run the format-specific
/// decoder, and map any load failure to a 400 carrying the error's
/// stable code (`model-format`, `parse`, …) — one contract for every
/// upload endpoint instead of per-route hand-rolling.
fn validated_upload<T>(
    body: &[u8],
    decode: impl FnOnce(&[u8]) -> Result<T, PigeonError>,
) -> Result<T, HttpError> {
    if body.is_empty() {
        return Err(HttpError::bad_request("empty upload body".to_owned()));
    }
    decode(body).map_err(|e| HttpError::new(400, "Bad Request", e.code(), e.to_string()))
}

// ---------------------------------------------------------------------
// Distributed training: job coordination + content-addressed cache.
// ---------------------------------------------------------------------

/// Where a train job is in its lifecycle.
enum JobPhase {
    /// Shards outstanding; workers are polling `/v1/leases`.
    Running,
    /// Coverage was exact and the finishing merge wrote the model.
    Done,
    /// The finishing merge failed (kept for post-mortem via the status
    /// route; the partials stay in the cache).
    Failed(String),
}

impl JobPhase {
    fn name(&self) -> &'static str {
        match self {
            JobPhase::Running => "running",
            JobPhase::Done => "done",
            JobPhase::Failed(_) => "failed",
        }
    }
}

/// One distributed train job: the corpus + knobs from `POST
/// /v1/train-jobs`, the per-shard board, and bookkeeping for the status
/// route.
struct CoordJob {
    id: u64,
    corpus_dir: String,
    /// Where the finished model JSON lands (server-side path).
    out: String,
    /// The job's header, knobs and shard geometry: every uploaded
    /// partial must agree with it knob-for-knob (`shard_index` is
    /// per-upload and ignored in the comparison).
    expected: PartialMeta,
    board: ShardBoard,
    /// Shards found in the cache at job creation.
    cached_at_creation: u32,
    reassignments: u64,
    phase: JobPhase,
    /// Coordinator-clock creation time (for the `collect` phase timer).
    created_ms: u64,
}

/// Coordination state, armed by `--cache-dir`. All mutable state sits
/// behind one mutex — the board operations are microseconds; only the
/// finishing merge holds it for longer, and by then every worker is done
/// anyway.
struct CoordState {
    cache_dir: PathBuf,
    lease_timeout: Duration,
    jobs: Mutex<Vec<CoordJob>>,
    next_job_id: AtomicU64,
}

impl CoordState {
    fn new(cache_dir: &str, lease_timeout: Duration) -> Result<Self, String> {
        std::fs::create_dir_all(cache_dir).map_err(|e| format!("{cache_dir}: {e}"))?;
        Ok(CoordState {
            cache_dir: PathBuf::from(cache_dir),
            lease_timeout,
            jobs: Mutex::new(Vec::new()),
            next_job_id: AtomicU64::new(1),
        })
    }

    /// The on-disk cache path for a content address.
    fn partial_path(&self, key: &str) -> PathBuf {
        self.cache_dir.join(format!("{key}.pgnc"))
    }
}

/// The coordination surface is not armed on this server.
fn no_coordinator_error() -> HttpError {
    HttpError::new(
        409,
        "Conflict",
        "no-coordinator",
        "distributed training is not enabled; start `pigeon serve` with --cache-dir".to_owned(),
    )
}

/// Milliseconds on the coordinator's monotonic clock (lease deadlines).
fn coord_now_ms(ctx: &ServerCtx) -> u64 {
    ctx.started.elapsed().as_millis() as u64
}

/// Writes `bytes` atomically (tmp + rename) so a crashed or concurrent
/// write can never leave a torn file behind a content address.
fn atomic_write(path: &std::path::Path, bytes: &[u8]) -> Result<(), String> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, bytes)
        .and_then(|()| std::fs::rename(&tmp, path))
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// JSON field accessors for the train-job request body.
fn json_str<'a>(v: &'a serde_json::Value, field: &str) -> Option<&'a str> {
    v.get(field).and_then(|s| s.as_str())
}

/// An optional train-job knob: `default` when absent, a coded 400
/// naming the field when it holds another type.
fn json_knob<T>(
    v: &serde_json::Value,
    field: &str,
    default: T,
    read: fn(&serde_json::Value) -> Option<T>,
) -> Result<T, HttpError> {
    v.get(field)
        .map_or(Some(default), read)
        .ok_or_else(|| HttpError::bad_request(format!("`{field}` has the wrong type")))
}

/// Derives every shard's content address for a job: FNV-1a of the
/// partial layout, the config fingerprint (over the same knob table
/// `merge_partials` compares), the shard coordinates, and the shard's
/// file names + bytes. Touching one corpus file moves exactly that
/// shard's key.
fn derive_shard_keys(
    expected: &PartialMeta,
    files: &[(String, String)],
    shard_count: u32,
) -> Vec<String> {
    let config_fp = config_fingerprint(&config_knobs(expected));
    (0..shard_count)
        .map(|i| {
            let range = shard_range(files.len(), i as usize, shard_count as usize);
            let corpus_fp = corpus_shard_fingerprint(
                files[range].iter().map(|(n, s)| (n.as_str(), s.as_bytes())),
            );
            cache_key(config_fp, i, shard_count, corpus_fp)
        })
        .collect()
}

/// `POST /v1/train-jobs`: create a job from a corpus dir + knobs, scan
/// the cache for shards that are already done, and (when everything was
/// cached) run the finishing merge immediately.
fn create_train_job(ctx: &ServerCtx, req: &Request) -> Result<Payload, HttpError> {
    let coord = ctx.coord.as_ref().ok_or_else(no_coordinator_error)?;
    let value = parse_json_body(&req.body)?;
    let corpus_dir = json_str(&value, "corpus_dir")
        .ok_or_else(|| HttpError::bad_request("`corpus_dir` (string) is required".to_owned()))?;
    let out = json_str(&value, "out")
        .ok_or_else(|| HttpError::bad_request("`out` (string) is required".to_owned()))?;
    let language_name = json_str(&value, "language")
        .ok_or_else(|| HttpError::bad_request("`language` (string) is required".to_owned()))?;
    let config_error = |message: String| HttpError::new(400, "Bad Request", "config", message);
    let language = Language::from_name(language_name)
        .ok_or_else(|| config_error(format!("unknown language `{language_name}`")))?;
    let target = match json_str(&value, "target").unwrap_or("variables") {
        "vars" => ElementClass::Variable,
        name => ElementClass::from_name(name)
            .filter(|t| *t != ElementClass::Other)
            .ok_or_else(|| config_error(format!("unknown target `{name}` (variables|methods)")))?,
    };
    let number = serde_json::Value::as_u64;
    let shard_count = json_knob(&value, "shard_count", 1, number)?;
    if shard_count == 0 {
        return Err(config_error("`shard_count` must be at least 1".to_owned()));
    }
    // The same validating builder the CLI trains through: bad knobs are
    // a coded 400 naming the constraint, not a job that fails later.
    let max_length = json_knob(&value, "max_length", 4, number)? as usize;
    let max_width = json_knob(&value, "max_width", 3, number)? as usize;
    let keep_prob = json_knob(&value, "keep_prob", 1.0, serde_json::Value::as_f64)?;
    let dataflow = json_knob(
        &value,
        "dataflow_contexts",
        false,
        serde_json::Value::as_bool,
    )?;
    let config = PigeonConfig::builder()
        .limits(max_length, max_width)
        .keep_prob(keep_prob)
        .dataflow_contexts(dataflow)
        .build()
        .map_err(|e| HttpError::new(400, "Bad Request", e.code(), e.to_string()))?;
    let files = crate::distrib::list_corpus(language, corpus_dir)
        .map_err(|e| HttpError::new(400, "Bad Request", "io", e))?;
    // Every shard costs a cache key and a board slot, so the count is
    // bounded by the corpus before anything is derived from it.
    if shard_count > files.len() as u64 {
        return Err(config_error(format!(
            "`shard_count` must be at most the corpus's {} files, got {shard_count}",
            files.len()
        )));
    }
    let shard_count = shard_count as u32;
    let total_docs = files.len() as u32;
    let expected =
        crate::training_partial_meta(language, target, &config, 0, shard_count, total_docs);
    let keys = derive_shard_keys(&expected, &files, shard_count);

    let mut board = ShardBoard::new(keys, coord.lease_timeout.as_millis().max(1) as u64);
    let mut cached = 0u32;
    for (i, shard) in board.shards().to_vec().iter().enumerate() {
        if coord.partial_path(&shard.key).is_file() {
            board.mark_cached(i);
            ctx.stats.partials_cached.inc();
            cached += 1;
        }
    }

    let id = coord.next_job_id.fetch_add(1, Ordering::Relaxed);
    let mut job = CoordJob {
        id,
        corpus_dir: corpus_dir.to_owned(),
        out: out.to_owned(),
        expected,
        board,
        cached_at_creation: cached,
        reassignments: 0,
        phase: JobPhase::Running,
        created_ms: coord_now_ms(ctx),
    };
    if job.board.all_uploaded() {
        // Every shard was already in the cache: nothing to assign.
        ctx.stats
            .observe_job_phase("collect", Duration::from_millis(0));
        finish_job(ctx, coord, &mut job);
    }
    let response = serde_json::json!({
        "id": id,
        "shard_count": shard_count,
        "total_docs": total_docs,
        "cached": cached,
        "phase": job.phase.name(),
        "out": job.out,
    });
    lock_unpoisoned(&coord.jobs).push(job);
    Ok(Payload::Json(response))
}

/// The finishing pass once coverage is exact: read every shard's
/// partial from the cache, run the PR 8 merge (byte-identical to the
/// single-process run), write the model atomically to the job's `out`,
/// and make it this server's active model version.
fn finish_job(ctx: &ServerCtx, coord: &CoordState, job: &mut CoordJob) {
    let t = Instant::now();
    let outcome = (|| -> Result<(), String> {
        let parts: Vec<Vec<u8>> = job
            .board
            .shards()
            .iter()
            .map(|s| {
                let path = coord.partial_path(&s.key);
                std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))
            })
            .collect::<Result<_, _>>()?;
        let model = Pigeon::from_partials(&parts).map_err(|e| e.to_string())?;
        let json = model.to_json().map_err(|e| e.to_string())?;
        atomic_write(std::path::Path::new(&job.out), json.as_bytes())?;
        ctx.models.install(model, "train-job");
        Ok(())
    })();
    ctx.stats.observe_job_phase("merge", t.elapsed());
    match outcome {
        Ok(()) => {
            job.board.mark_merged();
            job.phase = JobPhase::Done;
            println!(
                "pigeon serve: job {} merged {} shards → {}",
                job.id, job.expected.shard_count, job.out
            );
        }
        Err(e) => {
            eprintln!("pigeon serve: job {} merge failed: {e}", job.id);
            job.phase = JobPhase::Failed(e);
        }
    }
}

/// `POST /v1/partials`: ingest one `.pgnc` partial. The body is decoded
/// and fully validated (checksums, layout, and that it holds exactly
/// its shard's documents) before any disk write, so a mislabelled or
/// old-layout partial is a 400 that is never cached. Its meta is
/// matched against the jobs' expected configuration — a knob mismatch
/// is a coded 400 naming the knob. Valid partials
/// land in the content-addressed cache (atomic write), advance their
/// shard, and trigger the finishing merge when they complete coverage.
fn ingest_partial(ctx: &ServerCtx, req: &Request) -> Result<Payload, HttpError> {
    let coord = ctx.coord.as_ref().ok_or_else(no_coordinator_error)?;
    let partial = validated_upload(&req.body, |bytes| {
        decode_partial(bytes).map_err(PigeonError::model_format)
    })
    .inspect_err(|_| ctx.stats.partials_rejected.inc())?;
    let meta = &partial.meta;

    let mut jobs = lock_unpoisoned(&coord.jobs);
    // Match the upload to a job by shard geometry, newest job first;
    // remember the first knob mismatch so the error can name the knob.
    let mut mismatch: Option<String> = None;
    let mut matched: Option<usize> = None;
    for (pos, job) in jobs.iter().enumerate().rev() {
        if job.expected.shard_count != meta.shard_count
            || job.expected.total_docs != meta.total_docs
        {
            continue;
        }
        match knob_mismatch(&job.expected, meta) {
            Some((knob, want, got)) => {
                mismatch = Some(format!(
                    "partial disagrees with job {} on {knob}: job has {want}, partial has {got}",
                    job.id
                ))
            }
            None => {
                matched = Some(pos);
                break;
            }
        }
    }
    let Some(pos) = matched else {
        ctx.stats.partials_rejected.inc();
        return Err(match mismatch {
            Some(message) => HttpError::new(400, "Bad Request", "config", message),
            None => HttpError::new(
                409,
                "Conflict",
                "no-job",
                format!(
                    "no train job matches this partial's shard geometry \
                     ({}/{} over {} docs)",
                    meta.shard_index, meta.shard_count, meta.total_docs
                ),
            ),
        });
    };

    let now_ms = coord_now_ms(ctx);
    let job = &mut jobs[pos];
    let index = meta.shard_index as usize;
    let key = job.board.shards()[index].key.clone();
    let path = coord.partial_path(&key);
    let existed = path.is_file();
    if existed {
        ctx.stats.partials_cached.inc();
    } else {
        atomic_write(&path, &req.body)
            .map_err(|e| HttpError::new(500, "Internal Server Error", "io", e))?;
        ctx.stats.partials_received.inc();
    }
    let newly = job.board.mark_uploaded(index, None);
    if newly && job.board.all_uploaded() && matches!(job.phase, JobPhase::Running) {
        ctx.stats
            .observe_job_phase("collect", Duration::from_millis(now_ms - job.created_ms));
        finish_job(ctx, coord, job);
    }
    Ok(Payload::Json(serde_json::json!({
        "key": key,
        "job": job.id,
        "shard_index": index,
        "cached": existed,
        "phase": job.phase.name(),
    })))
}

/// `GET /v1/partials/<key>`: serve a cached partial's bytes — the
/// pre-flight workers run before extracting anything.
fn fetch_partial(ctx: &ServerCtx, key: &str) -> Result<Payload, HttpError> {
    let coord = ctx.coord.as_ref().ok_or_else(no_coordinator_error)?;
    // Content addresses are exactly 16 lowercase hex digits; anything
    // else (and in particular anything with path separators) is not a
    // key, so this doubles as the path-traversal guard.
    if key.len() != 16 || !key.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err(HttpError::new(
            404,
            "Not Found",
            "not-found",
            format!("`{key}` is not a partial cache key"),
        ));
    }
    match std::fs::read(coord.partial_path(key)) {
        Ok(bytes) => Ok(Payload::Bytes("application/octet-stream", bytes)),
        Err(_) => Err(HttpError::new(
            404,
            "Not Found",
            "not-found",
            format!("no cached partial for key {key}"),
        )),
    }
}

/// `POST /v1/leases`: hand the polling worker a shard to extract —
/// first any pending shard, then any shard whose lease expired (a
/// straggler or a dead worker). The reply carries everything the worker
/// needs: corpus location, knobs, shard coordinates, and the content
/// address to check before doing any work.
fn lease_shard(ctx: &ServerCtx, req: &Request) -> Result<Payload, HttpError> {
    let coord = ctx.coord.as_ref().ok_or_else(no_coordinator_error)?;
    let value = parse_json_body(&req.body)?;
    let worker = json_str(&value, "worker").unwrap_or("anonymous");
    let now_ms = coord_now_ms(ctx);
    let mut jobs = lock_unpoisoned(&coord.jobs);
    let mut waiting = false;
    let mut running = 0u64;
    for job in jobs.iter_mut() {
        if !matches!(job.phase, JobPhase::Running) {
            continue;
        }
        running += 1;
        match job.board.lease(now_ms, worker) {
            Lease::Assigned { index, reassigned } => {
                if reassigned {
                    job.reassignments += 1;
                    ctx.stats.reassignments.inc();
                }
                let shard = &job.board.shards()[index];
                // The job's whole header, so the worker builds its
                // partial under exactly the job's settings.
                let mut lease = serde_json::json!({
                    "status": "assigned",
                    "job": job.id,
                    "worker": worker,
                    "shard_index": index,
                    "shard_count": job.expected.shard_count,
                    "total_docs": job.expected.total_docs,
                    "cache_key": shard.key,
                    "corpus_dir": job.corpus_dir,
                    "keep_prob": job.expected.keep_prob,
                    "deadline_ms": shard.deadline_ms,
                    "reassigned": reassigned,
                });
                if let serde_json::Value::Object(map) = &mut lease {
                    map.extend(job.expected.header.to_json());
                }
                return Ok(Payload::Json(lease));
            }
            Lease::Wait => waiting = true,
            Lease::Complete => {}
        }
    }
    Ok(Payload::Json(if waiting {
        serde_json::json!({ "status": "wait" })
    } else {
        serde_json::json!({ "status": "idle", "active_jobs": running })
    }))
}

/// One job's status JSON (`GET /v1/train-jobs[/{id}]`). `detailed` adds
/// the per-shard state machine.
fn job_status_json(job: &CoordJob, detailed: bool) -> serde_json::Value {
    let (pending, assigned, uploaded, merged) = job.board.phase_counts();
    let mut status = serde_json::json!({
        "id": job.id,
        "phase": job.phase.name(),
        "language": job.expected.header.language,
        "corpus_dir": job.corpus_dir,
        "out": job.out,
        "shard_count": job.expected.shard_count,
        "total_docs": job.expected.total_docs,
        "cached": job.cached_at_creation,
        "reassignments": job.reassignments,
        "shards_pending": pending,
        "shards_assigned": assigned,
        "shards_uploaded": uploaded,
        "shards_merged": merged,
    });
    if let serde_json::Value::Object(map) = &mut status {
        if let JobPhase::Failed(error) = &job.phase {
            map.insert("error".to_owned(), serde_json::Value::String(error.clone()));
        }
        if detailed {
            let shards: Vec<serde_json::Value> = job
                .board
                .shards()
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    serde_json::json!({
                        "index": i,
                        "key": s.key,
                        "phase": s.phase.name(),
                        "source": s.source.name(),
                        "worker": s.worker.clone().unwrap_or_default(),
                        "attempts": s.attempts,
                    })
                })
                .collect();
            map.insert("shards".to_owned(), serde_json::Value::Array(shards));
        }
    }
    status
}

/// Routes `GET /v1/train-jobs/<id>[/model]`.
fn get_train_job(ctx: &ServerCtx, path: &str) -> Result<Payload, HttpError> {
    let coord = ctx.coord.as_ref().ok_or_else(no_coordinator_error)?;
    let rest = path.strip_prefix("/v1/train-jobs/").unwrap_or_default();
    let (id_part, want_model) = match rest.strip_suffix("/model") {
        Some(id) => (id, true),
        None => (rest, false),
    };
    let not_found = || {
        HttpError::new(
            404,
            "Not Found",
            "not-found",
            format!("no train job `{id_part}`"),
        )
    };
    let id: u64 = id_part.parse().map_err(|_| not_found())?;
    let jobs = lock_unpoisoned(&coord.jobs);
    let job = jobs.iter().find(|j| j.id == id).ok_or_else(not_found)?;
    if !want_model {
        return Ok(Payload::Json(job_status_json(job, true)));
    }
    if !matches!(job.phase, JobPhase::Done) {
        return Err(HttpError::new(
            409,
            "Conflict",
            "not-ready",
            format!(
                "job {id} is {}; the model exists once it is done",
                job.phase.name()
            ),
        ));
    }
    let bytes = std::fs::read(&job.out).map_err(|e| {
        HttpError::new(
            500,
            "Internal Server Error",
            "io",
            format!("{}: {e}", job.out),
        )
    })?;
    Ok(Payload::Bytes("application/json", bytes))
}

/// Maps a request path to its canonical endpoint label. Resource ids
/// collapse to `{…}` placeholders and unknown paths come back as
/// `"other"`, so the request-counter label set stays bounded however
/// clients probe.
fn canonical_endpoint(path: &str) -> &'static str {
    match path {
        "/v1/predict" => "/v1/predict",
        "/v1/predict_batch" => "/v1/predict_batch",
        "/v1/models" => "/v1/models",
        "/v1/stats" => "/v1/stats",
        "/v1/health" => "/v1/health",
        "/v1/metrics" => "/v1/metrics",
        "/v1/partials" => "/v1/partials",
        "/v1/train-jobs" => "/v1/train-jobs",
        "/v1/leases" => "/v1/leases",
        p if p.starts_with("/v1/models/") => "/v1/models/{version}",
        p if p.starts_with("/v1/partials/") => "/v1/partials/{key}",
        p if p.starts_with("/v1/train-jobs/") && p.ends_with("/model") => {
            "/v1/train-jobs/{id}/model"
        }
        p if p.starts_with("/v1/train-jobs/") => "/v1/train-jobs/{id}",
        _ => "other",
    }
}

/// Routes one request (already canonicalised to its v1 endpoint).
fn route(ctx: &ServerCtx, endpoint: &'static str, req: &Request) -> Result<Payload, HttpError> {
    let stats = &ctx.stats;
    match (req.method.as_str(), endpoint) {
        ("POST", "/v1/predict") => {
            let t = Instant::now();
            if ctx.models.active().is_none() {
                return Err(no_model_error());
            }
            let value = parse_json_body(&req.body)?;
            let source = value
                .get("source")
                .and_then(|s| s.as_str())
                .ok_or_else(|| {
                    HttpError::bad_request(
                        "expected a JSON object with a string `source` field".to_owned(),
                    )
                })?;
            // Inference runs on the batcher, not here: the job enters the
            // admission queue (bounded — the 429 path is the backpressure
            // contract) and this worker blocks until its micro-batch
            // completes, with this job's body rendered.
            let reply = match ctx.queue.submit(source.to_owned()) {
                Ok(rx) => rx.recv().map_err(|_| HttpError::internal())?,
                Err(SubmitError::Full) => {
                    stats.rejected.inc();
                    return Err(HttpError::overloaded(ctx.queue.cap));
                }
                Err(SubmitError::Closed) => {
                    return Err(HttpError::new(
                        503,
                        "Service Unavailable",
                        "shutting-down",
                        "server is shutting down".to_owned(),
                    ));
                }
            };
            let (body, predicted) = reply.map_err(|e| {
                HttpError::new(422, "Unprocessable Entity", e.code(), e.to_string())
            })?;
            stats.predictions.add(predicted as u64);
            stats.record_latency(t.elapsed());
            Ok(Payload::Bytes("application/json", body.into_bytes()))
        }
        ("POST", "/v1/predict_batch") => {
            let t = Instant::now();
            let value = parse_json_body(&req.body)?;
            let sources = value
                .get("sources")
                .and_then(|s| s.as_array())
                .ok_or_else(|| {
                    HttpError::bad_request(
                        "expected a JSON object with a `sources` array".to_owned(),
                    )
                })?;
            // A client-assembled batch is already a batch: it runs
            // directly against the active model instead of being split
            // through the admission queue.
            let entry = ctx.models.active().ok_or_else(no_model_error)?;
            // Every entry is checked before the first prediction, so a
            // rejected batch predicts and counts nothing.
            let sources: Vec<&str> = sources
                .iter()
                .map(serde_json::Value::as_str)
                .collect::<Option<_>>()
                .ok_or_else(|| HttpError::bad_request("`sources` must hold strings".to_owned()))?;
            let mut body = open_predict_body(entry.meta.version, "results");
            body.push('[');
            for (i, source) in sources.into_iter().enumerate() {
                if i > 0 {
                    body.push(',');
                }
                let predicted =
                    push_batch_entry(&mut body, |body| entry.model.predict_json(source, body));
                entry.meta.record(predicted);
                stats.predictions.add(predicted.unwrap_or(0) as u64);
            }
            body.push_str("]}");
            stats.record_latency(t.elapsed());
            Ok(Payload::Bytes("application/json", body.into_bytes()))
        }
        ("POST", "/v1/models") => {
            // The body is either a model JSON in the `pigeon train
            // --out` format or the raw bytes of a compiled `.pgnc`
            // artifact; `Pigeon::load` sniffs the magic. Loading
            // validates weight tables (and, for artifacts, every
            // section checksum and bound) against the shipped
            // vocabularies, so a truncated or corrupted upload is a
            // 400 with the load error's stable code, not a swapped-in
            // broken model.
            let format = if crate::crf::artifact::is_artifact(&req.body) {
                "artifact"
            } else {
                "json"
            };
            let model = validated_upload(&req.body, Pigeon::load)?;
            let entry = ctx.models.install(model, "api");
            stats.model_swaps.inc();
            Ok(Payload::Json(serde_json::json!({
                "version": entry.version,
                "language": entry.language,
                "format": format,
                "active": true,
            })))
        }
        ("GET", "/v1/models") => {
            let (active_version, versions) = ctx.models.snapshot();
            let list: Vec<serde_json::Value> = versions
                .iter()
                .map(|m| {
                    serde_json::json!({
                        "version": m.version,
                        "language": m.language,
                        "origin": m.origin.as_str(),
                        "active": Some(m.version) == active_version,
                    })
                })
                .collect();
            // `active_version` renders as the bare integer when a model
            // is loaded (`"active_version":2`) and `null` on a
            // model-less coordinator.
            Ok(Payload::Json(serde_json::json!({
                "active_version": active_version,
                "models": serde_json::Value::Array(list),
            })))
        }
        ("GET", "/v1/models/{version}") => {
            let id = req.path.strip_prefix("/v1/models/").unwrap_or_default();
            let not_found = || {
                HttpError::new(
                    404,
                    "Not Found",
                    "not-found",
                    format!("no model version `{id}`"),
                )
            };
            let version: u64 = id.parse().map_err(|_| not_found())?;
            let (active_version, _) = ctx.models.snapshot();
            let m = ctx.models.get(version).ok_or_else(not_found)?;
            Ok(Payload::Json(serde_json::json!({
                "version": m.version,
                "language": m.language,
                "origin": m.origin.as_str(),
                "active": Some(m.version) == active_version,
                "predict_requests": m.predict_requests.load(Ordering::Relaxed),
                "predictions": m.predictions.load(Ordering::Relaxed),
                "errors": m.errors.load(Ordering::Relaxed),
            })))
        }
        ("POST", "/v1/partials") => ingest_partial(ctx, req),
        ("GET", "/v1/partials/{key}") => fetch_partial(
            ctx,
            req.path.strip_prefix("/v1/partials/").unwrap_or_default(),
        ),
        ("POST", "/v1/train-jobs") => create_train_job(ctx, req),
        ("GET", "/v1/train-jobs") => {
            let coord = ctx.coord.as_ref().ok_or_else(no_coordinator_error)?;
            let jobs = lock_unpoisoned(&coord.jobs);
            let list: Vec<serde_json::Value> =
                jobs.iter().map(|j| job_status_json(j, false)).collect();
            Ok(Payload::Json(serde_json::json!({
                "jobs": serde_json::Value::Array(list),
            })))
        }
        ("GET", "/v1/train-jobs/{id}") | ("GET", "/v1/train-jobs/{id}/model") => {
            get_train_job(ctx, &req.path)
        }
        ("POST", "/v1/leases") => lease_shard(ctx, req),
        ("GET", "/v1/stats") => Ok(Payload::Json(
            stats.to_json(ctx.started.elapsed(), &ctx.models),
        )),
        ("GET", "/v1/health") => Ok(Payload::Json(serde_json::json!({ "status": "ok" }))),
        ("GET", "/v1/metrics") => Ok(Payload::Metrics(stats.render_metrics())),
        ("POST", _) if req.path == "/v1/_chaos/poison" && chaos_enabled() => {
            // Fault injection for the poisoned-lock regression test:
            // panic while holding the latency reservoir. This request
            // answers 500 (via catch_unwind); every later request must
            // still succeed — that is the bug this guards against.
            let _guard = lock_unpoisoned(&stats.latency_sample);
            panic!("chaos: poisoning the latency reservoir");
        }
        _ => Err(HttpError::new(
            404,
            "Not Found",
            "not-found",
            format!("no route for {} {}", req.method, req.path),
        )),
    }
}

/// Hands accepted connections to the connection workers, the most
/// recently idled worker first. A worker that has just served keeps its
/// malloc arena, thread-local inference workspace and stack warm; the
/// longest-parked one, which a shared queue would wake, may never have
/// predicted, and warming it grows the process by another arena and
/// another set of workspace buffers sized to the largest request it
/// serves. Idle workers wait on a stack, each on its own slot; a
/// connection that finds every worker busy waits in a FIFO backlog for
/// the next worker to go idle.
struct Handoff<T> {
    state: Mutex<HandoffState<T>>,
    /// One per worker: signalled when its slot fills or the hand-off
    /// closes.
    wake: Vec<Condvar>,
}

struct HandoffState<T> {
    /// Idle workers, the most recently idled last.
    idle: Vec<usize>,
    /// The connection handed to each worker and not yet taken.
    slots: Vec<Option<T>>,
    /// Connections accepted while every worker was busy, oldest first.
    backlog: VecDeque<T>,
    closed: bool,
}

impl<T> Handoff<T> {
    fn new(workers: usize) -> Self {
        Handoff {
            state: Mutex::new(HandoffState {
                idle: Vec::with_capacity(workers),
                slots: (0..workers).map(|_| None).collect(),
                backlog: VecDeque::new(),
                closed: false,
            }),
            wake: (0..workers).map(|_| Condvar::new()).collect(),
        }
    }

    /// Gives `conn` to the most recently idled worker, or queues it when
    /// every worker is busy.
    fn hand(&self, conn: T) {
        let mut state = lock_unpoisoned(&self.state);
        match state.idle.pop() {
            Some(w) => {
                state.slots[w] = Some(conn);
                self.wake[w].notify_one();
            }
            None => state.backlog.push_back(conn),
        }
    }

    /// Marks worker `w` idle: it takes the oldest queued connection if
    /// one waits, and otherwise goes on top of the idle stack.
    fn idle(&self, w: usize) {
        let mut state = lock_unpoisoned(&self.state);
        match state.backlog.pop_front() {
            Some(conn) => state.slots[w] = Some(conn),
            None => state.idle.push(w),
        }
    }

    /// Worker `w`'s next connection, waiting for one after
    /// [`Handoff::idle`]; `None` once the hand-off is closed and nothing
    /// is left for `w`.
    fn next(&self, w: usize) -> Option<T> {
        let mut state = lock_unpoisoned(&self.state);
        loop {
            if let Some(conn) = state.slots[w].take() {
                return Some(conn);
            }
            if state.closed {
                return None;
            }
            state = self.wake[w]
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Stops the hand-off: workers still serve what they were handed or
    /// what waits in the backlog, then [`Handoff::next`] ends them.
    fn close(&self) {
        lock_unpoisoned(&self.state).closed = true;
        for wake in &self.wake {
            wake.notify_all();
        }
    }
}

/// Serves one connection until it closes. `idle` runs exactly once: just
/// before the last response of a connection the server is closing — so
/// the worker is back on the idle stack before the peer can read that
/// response and reconnect — or, when the peer closes first, at the end.
fn handle_connection(stream: TcpStream, ctx: &ServerCtx, cfg: &ServeConfig, idle: impl FnOnce()) {
    let mut idle = Some(idle);
    let _ = stream.set_read_timeout(Some(cfg.read_timeout));
    ctx.stats.connections.inc();
    let mut reader = BufReader::new(&stream);
    let mut served = 0usize;
    loop {
        let (endpoint, close_after, result) = match read_request(&mut reader, cfg.max_request_bytes)
        {
            // Clean end of a keep-alive conversation (peer closed, or
            // the idle gap timed out with no new request started):
            // close silently, no response on the wire.
            Ok(None) => break,
            Ok(Some(req)) => {
                ctx.stats.requests.inc();
                let endpoint = canonical_endpoint(&req.path);
                let close = !cfg.keep_alive
                    || req.wants_close
                    || served + 1 >= cfg.max_conn_requests.max(1);
                // A panicking handler answers 500 and the worker (and
                // its connection) live on.
                let result =
                    std::panic::catch_unwind(AssertUnwindSafe(|| route(ctx, endpoint, &req)))
                        .unwrap_or_else(|_| Err(HttpError::internal()));
                (endpoint, close, result)
            }
            // A malformed or mid-request-stalled read leaves the
            // stream framing unknown: answer, then always close.
            Err(e) => {
                ctx.stats.requests.inc();
                ("other", true, Err(e))
            }
        };
        let connection = if close_after { "close" } else { "keep-alive" };
        let (status, reason, content_type, retry_after, body) = match result {
            Ok(Payload::Json(body)) => {
                let body = serde_json::to_string(&with_api(body))
                    .unwrap_or_else(|_| INTERNAL_ERROR_BODY.to_owned());
                (200, "OK", "application/json", None, body.into_bytes())
            }
            Ok(Payload::Metrics(text)) => (
                200,
                "OK",
                "text/plain; version=0.0.4; charset=utf-8",
                None,
                text.into_bytes(),
            ),
            Ok(Payload::Bytes(content_type, body)) => (200, "OK", content_type, None, body),
            Err(e) => {
                ctx.stats.errors.inc();
                let body = error_body(e.code, &e.message).into_bytes();
                (e.status, e.reason, "application/json", e.retry_after, body)
            }
        };
        ctx.stats.record_http(endpoint, status);
        if close_after {
            if let Some(idle) = idle.take() {
                idle();
            }
        }
        let head = render_head(
            status,
            reason,
            content_type,
            connection,
            retry_after,
            body.len(),
        );
        if (&stream)
            .write_all(head.as_bytes())
            .and_then(|()| (&stream).write_all(&body))
            .is_err()
        {
            break;
        }
        let _ = (&stream).flush();
        served += 1;
        if close_after {
            break;
        }
    }
    if let Some(idle) = idle.take() {
        idle();
    }
}

/// A bound-but-not-yet-serving server: the listener exists (so the
/// ephemeral port is known) but no thread is accepting. Lets embedders
/// — the serving benchmark in particular — learn the address before
/// handing the thread to [`BoundServer::run`].
pub struct BoundServer {
    listener: TcpListener,
    addr: SocketAddr,
    cfg: ServeConfig,
}

/// Binds the configured address without serving yet.
///
/// # Errors
///
/// Returns a message when the listen address cannot be bound.
pub fn bind(cfg: &ServeConfig) -> Result<BoundServer, String> {
    let listener = TcpListener::bind((cfg.host.as_str(), cfg.port))
        .map_err(|e| format!("cannot bind {}:{}: {e}", cfg.host, cfg.port))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("cannot resolve listen address: {e}"))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("cannot poll listener: {e}"))?;
    Ok(BoundServer {
        listener,
        addr,
        cfg: cfg.clone(),
    })
}

/// Asks a running [`BoundServer::run`] loop in this process to shut
/// down, exactly as SIGINT would.
pub fn request_shutdown() {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

impl BoundServer {
    /// The bound address (with the resolved port when `port` was 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Serves until SIGINT/SIGTERM, [`request_shutdown`], or the idle
    /// timeout. `model: None` starts a model-less coordinator.
    ///
    /// Prints one `listening on http://HOST:PORT` line (with the resolved
    /// ephemeral port, when `port` was 0) before accepting traffic, and a
    /// final request-count summary after a clean shutdown.
    ///
    /// # Errors
    ///
    /// Returns a message when the partial cache directory cannot be
    /// created.
    pub fn run(self, model: Option<Pigeon>) -> Result<(), String> {
        let BoundServer {
            listener,
            addr,
            cfg,
        } = self;
        let cfg = &cfg;
        let infer_jobs = pigeon_eval::effective_jobs(cfg.workers);
        // Connection workers are I/O-bound (they park in a socket read between
        // keep-alive requests), so the pool gets a floor: with keep-alive, a
        // single parked connection would otherwise pin the only worker on a
        // 1-core host and starve new clients for a whole read timeout.
        let workers = infer_jobs.max(4);
        SHUTDOWN.store(false, Ordering::SeqCst);
        install_shutdown_handler();

        let coord = match &cfg.cache_dir {
            Some(dir) => Some(CoordState::new(dir, cfg.lease_timeout)?),
            None => None,
        };
        let stats = Stats::new();
        let queue = AdmissionQueue::new(cfg.queue_cap, Arc::clone(&stats.queue_depth));
        let ctx = ServerCtx {
            models: ModelRegistry::new(model, "startup"),
            queue,
            stats,
            started: Instant::now(),
            infer_jobs,
            coord,
        };
        let handoff = Handoff::new(workers);

        let cache_note = match &cfg.cache_dir {
            Some(dir) => format!(", cache-dir {dir}"),
            None => String::new(),
        };
        match ctx.models.active() {
            Some(entry) => println!(
                "pigeon serve: {} model, listening on http://{addr} ({workers} worker{}, \
                 keep-alive {}, batch-max {}, queue-cap {}{cache_note})",
                entry.meta.language,
                if workers == 1 { "" } else { "s" },
                if cfg.keep_alive { "on" } else { "off" },
                cfg.batch_max,
                cfg.queue_cap,
            ),
            None => println!(
                "pigeon serve: no model, listening on http://{addr} ({workers} worker{}, \
                 keep-alive {}{cache_note})",
                if workers == 1 { "" } else { "s" },
                if cfg.keep_alive { "on" } else { "off" },
            ),
        }

        std::thread::scope(|scope| {
            let ctx = &ctx;
            let batcher = scope.spawn(move || run_batcher(ctx, cfg));
            let handoff = &handoff;
            let worker_handles: Vec<_> = (0..workers)
                .map(|w| {
                    scope.spawn(move || {
                        handoff.idle(w);
                        while let Some(stream) = handoff.next(w) {
                            handle_connection(stream, ctx, cfg, || handoff.idle(w));
                        }
                    })
                })
                .collect();

            let mut last_activity = Instant::now();
            loop {
                if SHUTDOWN.load(Ordering::SeqCst) {
                    break;
                }
                if let Some(idle) = cfg.idle_timeout {
                    if last_activity.elapsed() >= idle {
                        break;
                    }
                }
                match listener.accept() {
                    Ok((stream, _)) => {
                        last_activity = Instant::now();
                        // The listener polls; connections block (with the
                        // read timeout) so workers do not spin.
                        let _ = stream.set_nonblocking(false);
                        // Responses go out as two writes (head, body);
                        // without TCP_NODELAY, Nagle holds the second
                        // segment for the peer's delayed ACK (~40 ms) on
                        // every keep-alive round trip.
                        let _ = stream.set_nodelay(true);
                        handoff.hand(stream);
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        wait_for_connection(&listener, Duration::from_millis(5));
                    }
                    Err(e) => {
                        eprintln!("pigeon serve: accept failed: {e}");
                        std::thread::sleep(Duration::from_millis(50));
                    }
                }
            }
            // Closing the hand-off ends every connection worker once it has
            // served what it was handed; join them first (their in-flight
            // predicts still need the batcher), then close the queue so the
            // batcher drains and exits. The scope would join everything
            // anyway — the explicit order is what guarantees no request is
            // dropped mid-shutdown.
            handoff.close();
            for handle in worker_handles {
                let _ = handle.join();
            }
            ctx.queue.close();
            let _ = batcher.join();
        });

        println!(
            "pigeon serve: shut down after {} requests ({} errors, {} predictions) in {:.1}s",
            ctx.stats.requests.get(),
            ctx.stats.errors.get(),
            ctx.stats.predictions.get(),
            ctx.started.elapsed().as_secs_f64(),
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Connections go to the most recently idled worker, a worker that
    /// idles before its last response gets the peer's reconnect, and
    /// connections that find every worker busy wait in arrival order.
    #[test]
    fn connections_go_to_the_most_recently_idled_worker() {
        let handoff = Handoff::new(3);
        for w in 0..3 {
            handoff.idle(w);
        }
        handoff.hand("a");
        assert_eq!(handoff.next(2), Some("a"));
        handoff.hand("b");
        assert_eq!(handoff.next(1), Some("b"));
        // Worker 2 closes its connection: it idles before answering, so
        // the peer's reconnect lands on it, not on the parked worker 0.
        handoff.idle(2);
        handoff.hand("a again");
        assert_eq!(handoff.next(2), Some("a again"));
        // Worker 0 takes the next; then every worker is busy.
        handoff.hand("c");
        assert_eq!(handoff.next(0), Some("c"));
        handoff.hand("d");
        handoff.hand("e");
        handoff.idle(1);
        handoff.idle(0);
        assert_eq!(handoff.next(1), Some("d"));
        assert_eq!(handoff.next(0), Some("e"));
        // Closing ends a worker only once nothing is left for it.
        handoff.idle(0);
        handoff.hand("f");
        handoff.close();
        assert_eq!(handoff.next(0), Some("f"));
        handoff.idle(0);
        assert_eq!(handoff.next(0), None);
        assert_eq!(handoff.next(1), None);
    }

    #[test]
    fn reservoir_percentiles_are_exact_below_capacity() {
        let mut r = Reservoir::default();
        for v in 1..=100u64 {
            r.offer(v);
        }
        assert_eq!(r.percentiles([0.50, 0.95, 0.99]), [50, 95, 99]);
        assert_eq!(r.percentiles([1.0]), [100]);
    }

    #[test]
    fn reservoir_memory_stays_bounded() {
        let mut r = Reservoir::default();
        for v in 0..10 * Reservoir::CAPACITY as u64 {
            r.offer(v);
        }
        assert_eq!(r.samples.len(), Reservoir::CAPACITY);
        assert_eq!(r.seen, 10 * Reservoir::CAPACITY as u64);
    }

    #[test]
    fn reservoir_sample_tracks_the_distribution() {
        // Offer 0..20_000; a uniform sample's median should land near
        // 10_000. A sampler that only kept a prefix would sit at ~512.
        let mut r = Reservoir::default();
        for v in 0..20_000u64 {
            r.offer(v);
        }
        let [p50] = r.percentiles([0.50]);
        assert!(
            (5_000..15_000).contains(&p50),
            "median {p50} far from 10_000"
        );
    }

    #[test]
    fn empty_reservoir_reports_zeros() {
        let r = Reservoir::default();
        assert_eq!(r.percentiles([0.50, 0.99]), [0, 0]);
    }

    /// Regression: a panic while holding the latency reservoir used to
    /// poison the mutex, after which **every** request panicked in
    /// `.expect("latency sample lock")` — one bad request became a
    /// denial of service. Recording and reading stats must survive a
    /// poisoned lock.
    #[test]
    fn stats_survive_a_poisoned_latency_reservoir() {
        let stats = Stats::new();
        // Poison the lock: a thread panics while holding the guard.
        let result = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _guard = stats.latency_sample.lock().unwrap();
                    panic!("injected panic while holding the reservoir");
                })
                .join()
        });
        assert!(result.is_err(), "the injected panic must propagate");
        assert!(
            stats.latency_sample.lock().is_err(),
            "the lock must actually be poisoned for this test to bite"
        );
        // Both access sites recover: recording…
        stats.record_latency(Duration::from_micros(1500));
        stats.record_latency(Duration::from_micros(2500));
        // …and reading percentiles for /v1/stats.
        let models = ModelRegistry::new_for_tests();
        let json = stats.to_json(Duration::from_secs(1), &models);
        let rendered = serde_json::to_string(&json).unwrap();
        assert!(
            rendered.contains("\"latency_micros_p50\":"),
            "stats JSON still renders after poisoning: {rendered}"
        );
        assert_eq!(stats.latency.count(), 2);
    }

    /// Same recovery contract for the admission queue's mutex: a panic
    /// inside a submit or drain must not wedge the batcher.
    #[test]
    fn admission_queue_survives_a_poisoned_state_lock() {
        let queue = AdmissionQueue::new(4, Arc::new(Gauge::new()));
        let result = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _guard = queue.state.lock().unwrap();
                    panic!("injected panic while holding the queue");
                })
                .join()
        });
        assert!(result.is_err());
        let rx = queue.submit("function f(a) {}".to_owned());
        assert!(rx.is_ok(), "submit must recover from the poisoned lock");
        let batch = queue.next_batch(8, Duration::ZERO).expect("one batch");
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].source, "function f(a) {}");
    }

    #[test]
    fn admission_queue_rejects_past_capacity_and_drains_in_order() {
        let depth = Arc::new(Gauge::new());
        let queue = AdmissionQueue::new(2, Arc::clone(&depth));
        assert!(queue.submit("a".to_owned()).is_ok());
        assert!(queue.submit("b".to_owned()).is_ok());
        assert_eq!(depth.get(), 2);
        match queue.submit("c".to_owned()) {
            Err(SubmitError::Full) => {}
            _ => panic!("third submit must hit the 429 path"),
        }
        let batch = queue.next_batch(8, Duration::ZERO).expect("batch");
        assert_eq!(
            batch.iter().map(|j| j.source.as_str()).collect::<Vec<_>>(),
            ["a", "b"]
        );
        assert_eq!(depth.get(), 0);
        queue.close();
        assert!(queue.next_batch(8, Duration::ZERO).is_none());
        match queue.submit("d".to_owned()) {
            Err(SubmitError::Closed) => {}
            _ => panic!("closed queue must refuse new work"),
        }
    }

    #[test]
    fn next_batch_caps_at_batch_max() {
        let queue = AdmissionQueue::new(16, Arc::new(Gauge::new()));
        for i in 0..5 {
            queue.submit(format!("src{i}")).unwrap();
        }
        let batch = queue.next_batch(3, Duration::ZERO).expect("batch");
        assert_eq!(batch.len(), 3);
        let rest = queue.next_batch(3, Duration::ZERO).expect("batch");
        assert_eq!(rest.len(), 2);
    }

    impl ModelRegistry {
        /// A registry around a minimal trained model, for unit tests.
        fn new_for_tests() -> ModelRegistry {
            use crate::PigeonConfig;
            use pigeon_corpus::Language;
            let model = Pigeon::train_variable_namer(
                Language::JavaScript,
                &["function f(a) { return a; }"],
                &PigeonConfig::default(),
            )
            .expect("trains");
            ModelRegistry::new(Some(model), "test")
        }
    }

    #[test]
    fn model_registry_swaps_atomically_and_keeps_old_versions() {
        let registry = ModelRegistry::new_for_tests();
        let v1 = registry.active().expect("startup model is active");
        assert_eq!(v1.meta.version, 1);
        assert_eq!(v1.meta.origin, "test");
        let second = Pigeon::train_variable_namer(
            pigeon_corpus::Language::JavaScript,
            &["function g(x) { send(x); }"],
            &crate::PigeonConfig::default(),
        )
        .expect("trains");
        let v2 = registry.install(second, "api");
        assert_eq!(v2.version, 2);
        assert_eq!(registry.active().expect("active").meta.version, 2);
        // The old handle stays usable after the swap — this is what
        // keeps in-flight batches alive through a hot swap.
        assert!(v1.model.predict("function h(y) { return y; }").is_ok());
        // Once the last handle goes, the replaced model is freed; only
        // its record stays listed.
        let v1_model = Arc::downgrade(&v1);
        drop(v1);
        assert!(
            v1_model.upgrade().is_none(),
            "a replaced model outlives its last batch"
        );
        let (active, versions) = registry.snapshot();
        assert_eq!(active, Some(2));
        assert_eq!(
            versions.iter().map(|m| m.version).collect::<Vec<_>>(),
            [1, 2]
        );
        assert_eq!(registry.get(1).expect("v1 stays listed").origin, "test");
    }
}
