//! End-to-end tests for multi-box distributed training: a real
//! coordinator process, real worker processes, real sockets — asserting
//! the headline guarantee (the distributed model is byte-identical to a
//! single-process `pigeon train`), straggler reassignment after a
//! killed worker, duplicate late uploads, the content-addressed cache
//! across coordinator restarts, and the negative upload paths.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

fn pigeon() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pigeon"))
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pigeon-distrib-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Generates a small synthetic corpus, returning the sorted file list —
/// the same order `list_corpus` and a directory-driven train job use.
fn generate_corpus(dir: &Path, files: usize) -> Vec<PathBuf> {
    let out = pigeon()
        .args([
            "generate",
            "--language",
            "js",
            "--files",
            &files.to_string(),
        ])
        .arg(dir)
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    paths.sort();
    paths
}

/// Trains the single-process reference model over the sorted file list.
fn train_reference(files: &[PathBuf], model: &Path) {
    let mut cmd = pigeon();
    cmd.args(["train", "--language", "js", "--out"]).arg(model);
    for f in files {
        cmd.arg(f);
    }
    let out = cmd.output().expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// Spawns a model-less `pigeon serve --port 0 --cache-dir …` and returns
/// the child, the bound address, and the stdout reader (kept alive for
/// the final summary).
fn spawn_coordinator(cache_dir: &Path, extra: &[&str]) -> (Child, String, BufReader<ChildStdout>) {
    let mut child = pigeon()
        .args(["serve", "--port", "0", "--cache-dir"])
        .arg(cache_dir)
        .args(extra)
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawns");
    let mut reader = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("startup line");
    let addr = line
        .split("http://")
        .nth(1)
        .unwrap_or_else(|| panic!("no address in startup line: {line:?}"))
        .split_whitespace()
        .next()
        .unwrap()
        .to_string();
    (child, addr, reader)
}

/// Spawns a `pigeon work` loop against the coordinator.
fn spawn_worker(addr: &str, name: &str, extra: &[&str]) -> Child {
    pigeon()
        .args(["work", "--coordinator", &format!("http://{addr}")])
        .args(["--worker", name, "--poll-ms", "100"])
        .args(extra)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawns worker")
}

/// One request through the library's HTTP client: `(status, body)`.
fn request(
    addr: &str,
    method: &str,
    path: &str,
    content_type: &str,
    body: &[u8],
) -> (u16, Vec<u8>) {
    let response =
        pigeon::http::request(addr, method, path, content_type, body).expect("HTTP exchange");
    (response.status, response.body)
}

fn text(body: Vec<u8>) -> String {
    String::from_utf8(body).expect("UTF-8 body")
}

fn get(addr: &str, path: &str) -> (u16, String) {
    let (status, body) = get_bytes(addr, path);
    (status, text(body))
}

fn post(addr: &str, path: &str, body: &str) -> (u16, String) {
    let (status, body) = request(addr, "POST", path, "application/json", body.as_bytes());
    (status, text(body))
}

/// POSTs binary bytes (partial uploads).
fn post_bytes(addr: &str, path: &str, body: &[u8]) -> (u16, String) {
    let (status, body) = request(addr, "POST", path, "application/octet-stream", body);
    (status, text(body))
}

/// GETs raw bytes (partial and model downloads).
fn get_bytes(addr: &str, path: &str) -> (u16, Vec<u8>) {
    request(addr, "GET", path, "application/json", b"")
}

/// Extracts an unquoted JSON number field (`"name":123`).
fn json_u64(body: &str, field: &str) -> Option<u64> {
    let start = body.find(&format!("\"{field}\":"))? + field.len() + 3;
    let digits: String = body[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

/// Reads a single un-labelled counter value off the Prometheus text.
fn metric_u64(addr: &str, name: &str) -> u64 {
    let (status, text) = get(addr, "/v1/metrics");
    assert_eq!(status, 200, "{text}");
    text.lines()
        .find_map(|l| l.strip_prefix(&format!("{name} ")))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or_else(|| panic!("no metric {name} in:\n{text}"))
}

/// The default-knob train-job request for a corpus dir.
fn job_request(corpus_dir: &Path, out: &Path, shard_count: u64) -> String {
    format!(
        r#"{{"corpus_dir": "{}", "language": "js", "out": "{}", "shard_count": {shard_count}}}"#,
        corpus_dir.display(),
        out.display()
    )
}

/// Polls a job's status route until its phase is `done` (or panics
/// after the deadline with the last status body).
fn await_job_done(addr: &str, id: u64, deadline: Duration) -> String {
    let start = Instant::now();
    loop {
        let (status, body) = get(addr, &format!("/v1/train-jobs/{id}"));
        assert_eq!(status, 200, "{body}");
        if body.contains("\"phase\":\"done\"") {
            return body;
        }
        assert!(
            !body.contains("\"phase\":\"failed\""),
            "job {id} failed: {body}"
        );
        assert!(
            start.elapsed() < deadline,
            "job {id} not done after {deadline:?}: {body}"
        );
        std::thread::sleep(Duration::from_millis(100));
    }
}

fn read(path: &Path) -> Vec<u8> {
    std::fs::read(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The headline guarantee: for 1, 2 and 4 workers, the coordinator's
/// merged model is byte-identical to a single-process `pigeon train`
/// over the same corpus — same bytes, any fleet shape.
#[test]
fn distributed_model_is_byte_identical_to_single_process() {
    let dir = tmp_dir("identity");
    let corpus_dir = dir.join("corpus");
    let files = generate_corpus(&corpus_dir, 48);
    let reference = dir.join("reference.json");
    train_reference(&files, &reference);
    let reference_bytes = read(&reference);

    for workers in [1usize, 2, 4] {
        let cache = dir.join(format!("cache-{workers}"));
        let out = dir.join(format!("model-{workers}.json"));
        let (mut coord, addr, _stdout) = spawn_coordinator(&cache, &["--idle-timeout", "120"]);

        let (status, body) = post(&addr, "/v1/train-jobs", &job_request(&corpus_dir, &out, 4));
        assert_eq!(status, 200, "{body}");
        assert_eq!(json_u64(&body, "cached"), Some(0), "fresh cache: {body}");
        assert_eq!(json_u64(&body, "total_docs"), Some(48), "{body}");

        let mut fleet: Vec<Child> = (0..workers)
            .map(|w| spawn_worker(&addr, &format!("w{w}"), &[]))
            .collect();
        let status_body = await_job_done(&addr, 1, Duration::from_secs(120));
        assert!(status_body.contains("\"shards_merged\":4"), "{status_body}");
        for worker in &mut fleet {
            let exit = worker.wait().expect("worker exits");
            assert!(exit.success(), "worker exit: {exit:?}");
        }

        assert_eq!(
            read(&out),
            reference_bytes,
            "{workers}-worker model differs from the single-process reference"
        );
        // The coordinator also serves the merged model.
        let (status, body) = get(&addr, "/v1/models");
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"origin\":\"train-job\""), "{body}");
        let (status, body) = post(
            &addr,
            "/v1/predict",
            r#"{"source": "function f(a, b) { b.send(a); }"}"#,
        );
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"predictions\""), "{body}");

        coord.kill().expect("kills");
        let _ = coord.wait();
    }
}

/// A worker that leases a shard and dies (simulated with a huge
/// `--throttle-ms` and a kill) must not wedge the job: the lease
/// expires, the shard is reassigned to a live worker, the model is
/// still byte-identical, and a duplicate late upload of an already
/// merged shard is a harmless no-op.
#[test]
fn killed_worker_is_reassigned_and_late_uploads_are_idempotent() {
    let dir = tmp_dir("straggler");
    let corpus_dir = dir.join("corpus");
    let files = generate_corpus(&corpus_dir, 24);
    let reference = dir.join("reference.json");
    train_reference(&files, &reference);

    let cache = dir.join("cache");
    let out = dir.join("model.json");
    let (mut coord, addr, _stdout) = spawn_coordinator(
        &cache,
        &["--idle-timeout", "120", "--lease-timeout-ms", "1500"],
    );
    let (status, body) = post(&addr, "/v1/train-jobs", &job_request(&corpus_dir, &out, 3));
    assert_eq!(status, 200, "{body}");

    // The doomed worker grabs a lease but would hold its upload for 10
    // minutes; we kill it outright once the healthy workers are busy.
    let mut doomed = spawn_worker(&addr, "doomed", &["--throttle-ms", "600000"]);
    std::thread::sleep(Duration::from_millis(300));
    let mut healthy: Vec<Child> = (0..2)
        .map(|w| spawn_worker(&addr, &format!("h{w}"), &[]))
        .collect();
    std::thread::sleep(Duration::from_millis(500));
    doomed.kill().expect("kills doomed worker");
    let _ = doomed.wait();

    let status_body = await_job_done(&addr, 1, Duration::from_secs(120));
    for worker in &mut healthy {
        let exit = worker.wait().expect("worker exits");
        assert!(exit.success(), "worker exit: {exit:?}");
    }
    let reassignments = json_u64(&status_body, "reassignments").expect("reassignments field");
    assert!(
        reassignments >= 1,
        "the doomed worker's shard must be reassigned: {status_body}"
    );
    assert!(
        metric_u64(&addr, "pigeon_shard_reassignments_total") >= 1,
        "reassignment counter"
    );
    assert_eq!(
        read(&out),
        read(&reference),
        "model with a killed worker differs from the reference"
    );

    // Duplicate late upload: re-POST a shard that is already merged —
    // exactly what the doomed worker would do if it woke up now. The
    // job stays done, the model file does not change, and the upload is
    // reported as a cache hit.
    let model_before = read(&out);
    let key_pos = status_body.find("\"key\":\"").expect("a shard key") + 7;
    let key = &status_body[key_pos..key_pos + 16];
    let (status, bytes) = get_bytes(&addr, &format!("/v1/partials/{key}"));
    assert_eq!(status, 200);
    let (status, body) = post_bytes(&addr, "/v1/partials", &bytes);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"cached\":true"), "{body}");
    assert!(body.contains("\"phase\":\"done\""), "{body}");
    assert_eq!(
        read(&out),
        model_before,
        "late upload must not touch the model"
    );

    coord.kill().expect("kills");
    let _ = coord.wait();
}

/// The content-addressed cache across coordinator restarts: partials
/// uploaded before a crash are found again by a fresh coordinator (same
/// cache dir), completed shards are never re-assigned, and touching one
/// corpus file re-extracts exactly that shard.
#[test]
fn coordinator_restart_resumes_from_cache_and_reextracts_only_changed_shards() {
    let dir = tmp_dir("cache");
    let corpus_dir = dir.join("corpus");
    let files = generate_corpus(&corpus_dir, 24);
    let reference = dir.join("reference.json");
    train_reference(&files, &reference);
    let cache = dir.join("cache");

    // Phase 1: upload shards 0 and 1 of 4 via the CLI shard path (the
    // same .pgnc format the workers produce), then kill the
    // coordinator mid-job.
    let (mut coord, addr, _stdout) = spawn_coordinator(&cache, &["--idle-timeout", "120"]);
    let out = dir.join("model.json");
    let (status, body) = post(&addr, "/v1/train-jobs", &job_request(&corpus_dir, &out, 4));
    assert_eq!(status, 200, "{body}");
    for shard in 0..2 {
        let part = dir.join(format!("part{shard}.pgnc"));
        let mut cmd = pigeon();
        cmd.args([
            "train",
            "--language",
            "js",
            "--shard",
            &format!("{shard}/4"),
            "--emit-partial",
        ])
        .arg(&part);
        for f in &files {
            cmd.arg(f);
        }
        let cli = cmd.output().expect("runs");
        assert!(
            cli.status.success(),
            "{}",
            String::from_utf8_lossy(&cli.stderr)
        );
        let (status, body) = post_bytes(&addr, "/v1/partials", &read(&part));
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"cached\":false"), "{body}");
    }
    coord.kill().expect("kills mid-job");
    let _ = coord.wait();

    // Phase 2: a fresh coordinator on the same cache dir. Re-posting
    // the job finds shards 0 and 1 already done — no worker ever
    // re-extracts them — and a single worker finishes 2 and 3.
    let (mut coord, addr, _stdout) = spawn_coordinator(&cache, &["--idle-timeout", "120"]);
    let (status, body) = post(&addr, "/v1/train-jobs", &job_request(&corpus_dir, &out, 4));
    assert_eq!(status, 200, "{body}");
    assert_eq!(
        json_u64(&body, "cached"),
        Some(2),
        "restart must resume from the cache: {body}"
    );
    let mut worker = spawn_worker(&addr, "resume", &[]);
    let status_body = await_job_done(&addr, 1, Duration::from_secs(120));
    let exit = worker.wait().expect("worker exits");
    assert!(exit.success(), "worker exit: {exit:?}");
    assert_eq!(
        status_body.matches("\"source\":\"cache\"").count(),
        2,
        "completed shards must come from the cache, not reassignment: {status_body}"
    );
    assert_eq!(
        status_body.matches("\"source\":\"upload\"").count(),
        2,
        "{status_body}"
    );
    assert_eq!(read(&out), read(&reference), "resumed model differs");
    assert_eq!(metric_u64(&addr, "pigeon_partials_cached_total"), 2);
    assert_eq!(metric_u64(&addr, "pigeon_partials_received_total"), 2);

    // Phase 3: same corpus with one file touched → a new job re-uses 3
    // of 4 shards and re-extracts exactly the changed one.
    let touched = &files[0];
    let mut source = std::fs::read_to_string(touched).unwrap();
    source.push_str("\nfunction extra(value) { return value; }\n");
    std::fs::write(touched, source).unwrap();
    let out2 = dir.join("model2.json");
    let (status, body) = post(&addr, "/v1/train-jobs", &job_request(&corpus_dir, &out2, 4));
    assert_eq!(status, 200, "{body}");
    assert_eq!(
        json_u64(&body, "cached"),
        Some(3),
        "only the touched shard's address moves: {body}"
    );
    let mut worker = spawn_worker(&addr, "incremental", &[]);
    let status_body = await_job_done(&addr, 2, Duration::from_secs(120));
    let exit = worker.wait().expect("worker exits");
    assert!(exit.success(), "worker exit: {exit:?}");
    assert_eq!(
        status_body.matches("\"source\":\"cache\"").count(),
        3,
        "{status_body}"
    );
    // The job route also serves the finished model's bytes.
    let (status, model_bytes) = get_bytes(&addr, "/v1/train-jobs/2/model");
    assert_eq!(status, 200);
    assert_eq!(model_bytes, read(&out2));

    coord.kill().expect("kills");
    let _ = coord.wait();
}

/// Negative upload paths: a partial with mismatched knobs is a coded
/// 400 naming the knob; a truncated upload is a coded 400 that leaves
/// no cache entry behind; an upload with no matching job is a coded
/// 409; predict without a model is a coded 409.
#[test]
fn bad_uploads_are_rejected_with_stable_codes() {
    let dir = tmp_dir("reject");
    let corpus_dir = dir.join("corpus");
    let files = generate_corpus(&corpus_dir, 8);
    let cache = dir.join("cache");
    let (mut coord, addr, _stdout) = spawn_coordinator(&cache, &["--idle-timeout", "120"]);

    // Predict before any model exists: coded 409, not a 500.
    let (status, body) = post(&addr, "/v1/predict", r#"{"source": "function f(a) {}"}"#);
    assert_eq!(status, 409, "{body}");
    assert!(body.contains("\"code\":\"no-model\""), "{body}");

    // An upload before any job exists: coded 409.
    let mut cmd = pigeon();
    cmd.args([
        "train",
        "--language",
        "js",
        "--shard",
        "0/2",
        "--emit-partial",
    ])
    .arg(dir.join("orphan.pgnc"));
    for f in &files {
        cmd.arg(f);
    }
    assert!(cmd.output().expect("runs").status.success());
    let orphan = read(&dir.join("orphan.pgnc"));
    let (status, body) = post_bytes(&addr, "/v1/partials", &orphan);
    assert_eq!(status, 409, "{body}");
    assert!(body.contains("\"code\":\"no-job\""), "{body}");

    let out = dir.join("model.json");
    let (status, body) = post(&addr, "/v1/train-jobs", &job_request(&corpus_dir, &out, 2));
    assert_eq!(status, 200, "{body}");

    // Same corpus and geometry but --max-length 5 against the job's
    // default of 4: rejected with code `config`, naming the knob.
    let mut cmd = pigeon();
    cmd.args([
        "train",
        "--language",
        "js",
        "--max-length",
        "5",
        "--shard",
        "0/2",
        "--emit-partial",
    ])
    .arg(dir.join("wrong.pgnc"));
    for f in &files {
        cmd.arg(f);
    }
    assert!(cmd.output().expect("runs").status.success());
    let (status, body) = post_bytes(&addr, "/v1/partials", &read(&dir.join("wrong.pgnc")));
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("\"code\":\"config\""), "{body}");
    assert!(
        body.contains("max_length"),
        "the error must name the disagreeing knob: {body}"
    );

    // A truncated partial: the checksummed decode fails with the
    // format's stable code and nothing lands in the cache.
    let truncated = &orphan[..orphan.len() / 2];
    let (status, body) = post_bytes(&addr, "/v1/partials", truncated);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("\"code\":\"model-format\""), "{body}");
    // An empty body is rejected up front.
    let (status, body) = post_bytes(&addr, "/v1/partials", b"");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("\"code\":\"bad-request\""), "{body}");

    let cached: Vec<_> = std::fs::read_dir(&cache)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "pgnc"))
        .collect();
    assert!(
        cached.is_empty(),
        "rejected uploads must leave no cache entry: {cached:?}"
    );
    assert!(metric_u64(&addr, "pigeon_partials_rejected_total") >= 4);

    coord.kill().expect("kills");
    let _ = coord.wait();
}

/// Ingest checks every knob the merge checks: a partial that matches a
/// job's geometry but was built with another `top_k` is a coded 400
/// naming `top_k`, and the job keeps running rather than merging a model
/// with the partial's settings.
#[test]
fn partial_ingest_rejects_a_top_k_mismatch() {
    use pigeon::eval::ElementClass;
    use pigeon::{Pigeon, PigeonConfig};

    let dir = tmp_dir("top-k");
    let corpus_dir = dir.join("corpus");
    let files = generate_corpus(&corpus_dir, 6);
    let (mut coord, addr, _stdout) =
        spawn_coordinator(&dir.join("cache"), &["--idle-timeout", "120"]);
    let (status, body) = post(
        &addr,
        "/v1/train-jobs",
        &job_request(&corpus_dir, &dir.join("model.json"), 1),
    );
    assert_eq!(status, 200, "{body}");
    let id = json_u64(&body, "id").expect("job id");

    let sources: Vec<String> = files
        .iter()
        .map(|f| String::from_utf8(read(f)).expect("UTF-8 source"))
        .collect();
    let refs: Vec<&str> = sources.iter().map(String::as_str).collect();
    let config = PigeonConfig::builder()
        .top_k(3)
        .build()
        .expect("valid config");
    let partial = Pigeon::build_training_partial(
        pigeon::corpus::Language::JavaScript,
        ElementClass::Variable,
        &refs,
        0,
        1,
        &config,
    )
    .expect("partial builds");
    let (status, body) = post_bytes(&addr, "/v1/partials", &partial);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("\"code\":\"config\""), "{body}");
    assert!(body.contains("top_k"), "the error must name top_k: {body}");
    let (status, body) = get(&addr, &format!("/v1/train-jobs/{id}"));
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"phase\":\"running\""), "{body}");

    coord.kill().expect("kills");
    let _ = coord.wait();
}

/// Every shard costs the coordinator a cache key and a board slot, so
/// `shard_count` is bounded by the corpus before any is derived: more
/// shards than files, or a count past 32 bits (which a cast would
/// truncate to 1), answers 400 `config` naming the knob, no job is
/// created, and the server keeps serving.
#[test]
fn train_jobs_reject_more_shards_than_files() {
    let dir = tmp_dir("shard-bound");
    let corpus_dir = dir.join("corpus");
    let files = generate_corpus(&corpus_dir, 3);
    let (mut coord, addr, _stdout) =
        spawn_coordinator(&dir.join("cache"), &["--idle-timeout", "60"]);
    for count in [files.len() as u64 + 1, (1 << 32) + 1] {
        let (status, body) = post(
            &addr,
            "/v1/train-jobs",
            &job_request(&corpus_dir, &dir.join("model.json"), count),
        );
        assert_eq!(status, 400, "shard_count {count}: {body}");
        assert!(body.contains("\"code\":\"config\""), "{body}");
        assert!(
            body.contains("shard_count"),
            "the error must name the knob: {body}"
        );
    }
    let (status, body) = get(&addr, "/v1/train-jobs");
    assert_eq!(status, 200, "{body}");
    assert!(
        body.contains("\"jobs\":[]"),
        "no job may be created: {body}"
    );
    let (status, body) = get(&addr, "/v1/health");
    assert_eq!(status, 200, "{body}");
    coord.kill().expect("kills");
    let _ = coord.wait();
}

/// A model-less `pigeon serve --cache-dir` keeps the coordinator's
/// 64 MiB default body bound: a 2 MiB partial upload is read and judged
/// on its contents — a coded 400 for junk bytes — where the 1 MiB bound
/// of a model-serving server would answer 413.
#[test]
fn model_less_serve_accepts_partial_sized_uploads() {
    let dir = tmp_dir("body-limit");
    let (mut coord, addr, _stdout) =
        spawn_coordinator(&dir.join("cache"), &["--idle-timeout", "60"]);
    let (status, body) = post_bytes(&addr, "/v1/partials", &vec![0x5a; 2 << 20]);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("\"code\":\"model-format\""), "{body}");
    coord.kill().expect("kills");
    let _ = coord.wait();
}
