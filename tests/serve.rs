//! End-to-end tests for `pigeon serve`: a real model served over a real
//! TCP socket. Well-formed requests go through the library's HTTP client
//! (`pigeon::http::request`); tests that probe the framing itself —
//! keep-alive, stalls, oversized heads — write and parse raw bytes, so
//! an independent reader still checks the shared code.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

fn pigeon() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pigeon"))
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pigeon-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Generates a synthetic corpus and trains a variable-naming model via
/// the CLI, returning the model path.
fn train_model(dir: &Path) -> PathBuf {
    let corpus_dir = dir.join("corpus");
    let model = dir.join("model.json");
    let out = pigeon()
        .args(["generate", "--language", "js", "--files", "100"])
        .arg(&corpus_dir)
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut train = pigeon();
    train
        .args(["train", "--language", "js", "--out"])
        .arg(&model);
    for entry in std::fs::read_dir(&corpus_dir).unwrap() {
        train.arg(entry.unwrap().path());
    }
    let out = train.output().expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    model
}

/// Spawns `pigeon serve --port 0`, reads the startup line and returns
/// the child, the bound `host:port` address, and the stdout reader
/// (kept alive so the server's final summary has somewhere to go).
fn spawn_server(model: &Path, extra: &[&str]) -> (Child, String, BufReader<ChildStdout>) {
    spawn_server_env(model, extra, &[])
}

/// [`spawn_server`] with extra environment variables on the child.
fn spawn_server_env(
    model: &Path,
    extra: &[&str],
    envs: &[(&str, &str)],
) -> (Child, String, BufReader<ChildStdout>) {
    let mut serve = pigeon();
    serve
        .args(["serve", "--model"])
        .arg(model)
        .args(["--port", "0"])
        .args(extra)
        .envs(envs.iter().copied());
    start_server(serve)
}

/// Spawns a prepared `pigeon serve` command and reads its startup line,
/// as [`spawn_server`] returns them.
fn start_server(mut serve: Command) -> (Child, String, BufReader<ChildStdout>) {
    let mut child = serve.stdout(Stdio::piped()).spawn().expect("spawns");
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

/// One well-formed request through the library's HTTP client:
/// `(status_code, headers, body)`, headers rendered one per line.
fn exchange(
    addr: &str,
    method: &str,
    path: &str,
    content_type: &str,
    body: &[u8],
) -> (u16, String, String) {
    let response =
        pigeon::http::request(addr, method, path, content_type, body).expect("HTTP exchange");
    let head = response
        .head
        .headers
        .iter()
        .map(|(name, value)| format!("{name}: {value}\r\n"))
        .collect();
    let body = String::from_utf8(response.body).expect("UTF-8 body");
    (response.status, head, body)
}

fn post_full(addr: &str, path: &str, body: &str) -> (u16, String, String) {
    exchange(addr, "POST", path, "application/json", body.as_bytes())
}

fn post(addr: &str, path: &str, body: &str) -> (u16, String) {
    let (status, _, body) = post_full(addr, path, body);
    (status, body)
}

/// Like [`post`], but with a binary request body (artifact uploads).
fn post_bytes(addr: &str, path: &str, body: &[u8]) -> (u16, String) {
    let (status, _, body) = exchange(addr, "POST", path, "application/octet-stream", body);
    (status, body)
}

fn get(addr: &str, path: &str) -> (u16, String) {
    let (status, _, body) = get_full(addr, path);
    (status, body)
}

fn get_full(addr: &str, path: &str) -> (u16, String, String) {
    exchange(addr, "GET", path, "application/json", b"")
}

const QUERY: &str = r#"{"source": "function f(a, b, c) { b.open(0, a, false); b.send(c); }"}"#;

/// A client that keeps one connection open across requests, framing
/// responses by `Content-Length` (reading to EOF would block forever on
/// a keep-alive socket).
struct KeepAliveClient {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    addr: String,
}

impl KeepAliveClient {
    fn connect(addr: &str) -> Self {
        let writer = TcpStream::connect(addr).expect("connects");
        let reader = BufReader::new(writer.try_clone().expect("clones stream"));
        KeepAliveClient {
            writer,
            reader,
            addr: addr.to_owned(),
        }
    }

    /// Reads one framed response off the socket: `(status, headers, body)`.
    fn read_response(&mut self) -> (u16, String, String) {
        let mut head = String::new();
        loop {
            let mut line = String::new();
            let n = self.reader.read_line(&mut line).expect("reads header");
            assert!(n > 0, "peer closed mid-response; head so far: {head:?}");
            if line == "\r\n" {
                break;
            }
            head.push_str(&line);
        }
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .expect("status line")
            .parse()
            .expect("numeric status");
        let length: usize = head
            .lines()
            .find_map(|l| {
                let (name, value) = l.split_once(':')?;
                if name.eq_ignore_ascii_case("content-length") {
                    value.trim().parse().ok()
                } else {
                    None
                }
            })
            .expect("Content-Length header");
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body).expect("reads body");
        (status, head, String::from_utf8(body).expect("UTF-8 body"))
    }

    fn post(&mut self, path: &str, body: &str) -> (u16, String, String) {
        let raw = format!(
            "POST {path} HTTP/1.1\r\nHost: {}\r\nContent-Length: {}\r\n\r\n{body}",
            self.addr,
            body.len()
        );
        self.writer.write_all(raw.as_bytes()).expect("writes");
        self.read_response()
    }

    fn get(&mut self, path: &str) -> (u16, String, String) {
        let raw = format!("GET {path} HTTP/1.1\r\nHost: {}\r\n\r\n", self.addr);
        self.writer.write_all(raw.as_bytes()).expect("writes");
        self.read_response()
    }

    /// Like [`KeepAliveClient::get`] but asks the server to close.
    fn get_closing(&mut self, path: &str) -> (u16, String, String) {
        let raw = format!(
            "GET {path} HTTP/1.1\r\nHost: {}\r\nConnection: close\r\n\r\n",
            self.addr
        );
        self.writer.write_all(raw.as_bytes()).expect("writes");
        self.read_response()
    }

    /// Everything left on the socket until the peer closes it.
    fn drain(mut self) -> String {
        let mut rest = String::new();
        self.reader.read_to_string(&mut rest).expect("drains");
        rest
    }
}

/// Extracts an integer field from a `/v1/stats` JSON body.
fn stat_u64(stats: &str, field: &str) -> u64 {
    stats
        .split(&format!("\"{field}\":"))
        .nth(1)
        .and_then(|rest| rest.split([',', '}', ']']).next())
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or_else(|| panic!("no numeric {field} in {stats}"))
}

/// Extracts a plain (unlabelled) sample value from a Prometheus
/// exposition.
fn metric_u64(metrics: &str, series: &str) -> u64 {
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(&format!("{series} ")))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or_else(|| panic!("no series {series} in:\n{metrics}"))
}

#[test]
fn serve_predicts_and_reports_stats() {
    let dir = tmp_dir("e2e");
    let model = train_model(&dir);
    let (mut child, addr, _stdout) = spawn_server(&model, &["--idle-timeout", "60"]);

    let (status, body) = get(&addr, "/v1/health");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"ok\""));

    let (status, body) = post(&addr, "/v1/predict", QUERY);
    assert_eq!(status, 200, "{body}");
    assert!(
        body.contains("\"predictions\""),
        "missing predictions: {body}"
    );
    // The query has three unknown parameters; each prediction carries a
    // candidate list and a top pick.
    assert_eq!(body.matches("\"predicted_name\"").count(), 3, "{body}");
    assert_eq!(body.matches("\"candidates\"").count(), 3, "{body}");

    // Batch endpoint: one good program, one broken one; the broken one
    // becomes a per-source error without failing the whole request.
    let (status, body) = post(
        &addr,
        "/v1/predict_batch",
        r#"{"sources": ["function g(x) { return x; }", "not valid js ((("]}"#,
    );
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"results\""), "{body}");
    assert!(body.contains("\"predictions\""), "{body}");
    assert!(body.contains("\"error\""), "{body}");

    // Error routes are reported as JSON and counted.
    let (status, _) = get(&addr, "/no-such-route");
    assert_eq!(status, 404);
    let (status, body) = post(&addr, "/v1/predict", "{not json");
    assert_eq!(status, 400, "{body}");
    let (status, body) = post(&addr, "/v1/predict", r#"{"source": "function ((("}"#);
    assert_eq!(status, 422, "{body}");

    let (status, stats) = get(&addr, "/v1/stats");
    assert_eq!(status, 200, "{stats}");
    for field in [
        "\"requests_total\"",
        "\"errors_total\"",
        "\"predict_requests_total\"",
        "\"predictions_total\"",
        "\"latency_micros_mean\"",
        "\"latency_micros_p50\"",
        "\"latency_micros_p95\"",
        "\"latency_micros_p99\"",
        "\"latency_micros_max\"",
        "\"predictions_per_sec\"",
        "\"uptime_secs\"",
    ] {
        assert!(stats.contains(field), "missing {field} in {stats}");
    }
    // Percentiles come from real samples and are ordered: p50 ≤ p95 ≤
    // p99 ≤ max, with p50 > 0 after two timed predict requests.
    let micros = |field: &str| -> u64 {
        stats
            .split(&format!("\"{field}\":"))
            .nth(1)
            .and_then(|rest| rest.split([',', '}']).next())
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or_else(|| panic!("no numeric {field} in {stats}"))
    };
    let (p50, p95, p99, max) = (
        micros("latency_micros_p50"),
        micros("latency_micros_p95"),
        micros("latency_micros_p99"),
        micros("latency_micros_max"),
    );
    assert!(p50 > 0, "{stats}");
    assert!(p50 <= p95 && p95 <= p99 && p99 <= max, "{stats}");

    // /v1/predict (3 names) + the good half of /v1/predict_batch (1 name).
    assert!(stats.contains("\"predictions_total\":4"), "{stats}");
    // 404 + bad JSON + unparseable program.
    assert!(stats.contains("\"errors_total\":3"), "{stats}");

    child.kill().expect("kills");
    let _ = child.wait();
}

#[test]
fn serve_answers_concurrent_requests() {
    let dir = tmp_dir("concurrent");
    let model = train_model(&dir);
    let (mut child, addr, _stdout) = spawn_server(&model, &["--idle-timeout", "60", "--jobs", "2"]);

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let addr = addr.clone();
                scope.spawn(move || {
                    for _ in 0..3 {
                        let (status, body) = post(&addr, "/v1/predict", QUERY);
                        assert_eq!(status, 200, "{body}");
                        assert!(body.contains("\"predictions\""), "{body}");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("client thread");
        }
    });

    let (status, stats) = get(&addr, "/v1/stats");
    assert_eq!(status, 200);
    assert!(stats.contains("\"predict_requests_total\":12"), "{stats}");
    assert!(stats.contains("\"errors_total\":0"), "{stats}");

    child.kill().expect("kills");
    let _ = child.wait();
}

#[test]
fn serve_exits_cleanly_on_idle_timeout() {
    let dir = tmp_dir("idle");
    let model = train_model(&dir);
    let (mut child, addr, mut stdout) = spawn_server(&model, &["--idle-timeout", "1"]);
    let (status, _) = get(&addr, "/v1/health");
    assert_eq!(status, 200);

    let deadline = Instant::now() + Duration::from_secs(30);
    let code = loop {
        if let Some(code) = child.try_wait().expect("try_wait") {
            break code;
        }
        assert!(Instant::now() < deadline, "server never idled out");
        std::thread::sleep(Duration::from_millis(50));
    };
    assert!(code.success(), "idle shutdown should exit 0, got {code:?}");
    let mut rest = String::new();
    stdout.read_to_string(&mut rest).expect("summary");
    assert!(
        rest.contains("shut down after"),
        "missing shutdown summary: {rest:?}"
    );
}

/// A client that reconnects right after its previous exchange — as
/// `pigeon work` does for every lease poll and upload — is accepted as
/// soon as it dials: 50 sequential `Connection: close` health checks
/// against a model-less server take well under the accept loop's 5 ms
/// bound each.
#[test]
fn serve_accepts_reconnecting_clients_without_a_nap() {
    let dir = tmp_dir("reconnect");
    let mut serve = pigeon();
    serve
        .args([
            "serve",
            "--port",
            "0",
            "--idle-timeout",
            "60",
            "--cache-dir",
        ])
        .arg(dir.join("cache"));
    let (mut child, addr, _stdout) = start_server(serve);
    let mut micros: Vec<u128> = (0..50)
        .map(|_| {
            let start = Instant::now();
            let (status, _) = get(&addr, "/v1/health");
            assert_eq!(status, 200);
            start.elapsed().as_micros()
        })
        .collect();
    let _ = child.kill();
    let _ = child.wait();
    micros.sort_unstable();
    let median = micros[micros.len() / 2];
    assert!(
        median < 2_500,
        "median Connection: close exchange took {median} µs (all: {micros:?})"
    );
}

/// An oversized body answers 413 and an endless request line 431; the
/// server keeps serving after either.
#[test]
fn serve_rejects_oversized_requests() {
    let dir = tmp_dir("limits");
    let model = train_model(&dir);
    let (mut child, addr, _stdout) = spawn_server(
        &model,
        &["--idle-timeout", "60", "--max-request-bytes", "256"],
    );
    let big = format!(r#"{{"source": "{}"}}"#, "x".repeat(1024));
    let (status, body) = post(&addr, "/v1/predict", &big);
    assert_eq!(status, 413, "{body}");
    // The server survives and keeps answering.
    let (status, _) = get(&addr, "/v1/health");
    assert_eq!(status, 200);

    // A request line that never ends: four times the 16 KiB head bound
    // and no newline. The server stops reading at the bound, answers 431
    // and closes, so the tail of the write may be refused and the close
    // may reset the socket after the answer; the bytes read before a
    // reset stay in the buffer.
    let mut stream = TcpStream::connect(&addr).expect("connects");
    let _ = stream.write_all(&[b'a'; 64 * 1024]);
    let mut response = Vec::new();
    let _ = stream.read_to_end(&mut response);
    let response = String::from_utf8_lossy(&response);
    assert!(
        response.starts_with("HTTP/1.1 431 "),
        "an endless request line must answer 431: {response:?}"
    );
    assert!(response.contains("\"code\":\"bad-request\""), "{response}");
    let (status, _) = get(&addr, "/v1/health");
    assert_eq!(status, 200);
    child.kill().expect("kills");
    let _ = child.wait();
}

/// Hostile bodies cost bounded work and end in a coded answer: a
/// program nested 10 000 deep, a JSON document nested 10 000 deep and a
/// source string of about 900 KB. The server keeps serving after each.
#[test]
fn serve_answers_hostile_bodies_and_keeps_serving() {
    let dir = tmp_dir("hostile");
    let model = train_model(&dir);
    let (mut child, addr, _stdout) = spawn_server(&model, &["--idle-timeout", "60"]);

    let deep_program = format!(
        r#"{{"source": "var a = {}1{};"}}"#,
        "(".repeat(10_000),
        ")".repeat(10_000)
    );
    let (status, body) = post(&addr, "/v1/predict", &deep_program);
    assert_eq!(status, 422, "{body}");
    assert!(body.contains("\"code\":\"parse\""), "{body}");
    assert!(body.contains("nesting deeper than"), "{body}");
    assert_eq!(get(&addr, "/v1/health").0, 200);

    let deep_json = format!(
        r#"{{"source": {}"x"{}}}"#,
        "[".repeat(10_000),
        "]".repeat(10_000)
    );
    let (status, body) = post(&addr, "/v1/predict", &deep_json);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("\"code\":\"bad-request\""), "{body}");
    assert_eq!(get(&addr, "/v1/health").0, 200);

    // A batch with a non-string entry is rejected before anything in
    // it is predicted: the per-version and global counters stay put.
    let counters = |addr: &str| {
        let (_, model) = get(addr, "/v1/models/1");
        let (_, metrics) = get(addr, "/v1/metrics");
        (
            stat_u64(&model, "predict_requests"),
            stat_u64(&model, "predictions"),
            metric_u64(&metrics, "pigeon_predictions_total"),
        )
    };
    let before = counters(&addr);
    let (status, body) = post(
        &addr,
        "/v1/predict_batch",
        r#"{"sources": ["function f(a){var b = a; return b;}", 7]}"#,
    );
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("\"code\":\"bad-request\""), "{body}");
    assert_eq!(counters(&addr), before);

    let long_string = format!(r#"{{"source": "var s = '{}';"}}"#, "x".repeat(900_000));
    let (status, body) = post(&addr, "/v1/predict", &long_string);
    assert_eq!(status, 200, "{body}");
    assert_eq!(get(&addr, "/v1/health").0, 200);

    child.kill().expect("kills");
    let _ = child.wait();
}

/// Pins the v1 API contract: versioned paths, the `"api"` field on every
/// JSON body, stable machine-readable error codes, 404 for the removed
/// unversioned paths, and the Prometheus exposition.
#[test]
fn serve_v1_api_contract() {
    let dir = tmp_dir("v1");
    let model = train_model(&dir);
    let (mut child, addr, _stdout) = spawn_server(&model, &["--idle-timeout", "60"]);

    // Every v1 JSON response carries the API version; the serde map is
    // sorted, so `"api"` renders first.
    let (status, head, body) = get_full(&addr, "/v1/health");
    assert_eq!(status, 200, "{body}");
    assert!(body.starts_with(r#"{"api":"pigeon/1""#), "{body}");
    assert!(body.contains("\"ok\""), "{body}");
    assert!(head.contains("Content-Type: application/json"), "{head}");

    let (status, body) = post(&addr, "/v1/predict", QUERY);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"api\":\"pigeon/1\""), "{body}");
    assert!(body.contains("\"predictions\""), "{body}");

    let (status, body) = post(
        &addr,
        "/v1/predict_batch",
        r#"{"sources": ["function g(x) { return x; }", "not valid js ((("]}"#,
    );
    assert_eq!(status, 200, "{body}");
    // The broken source reports an inline error with a stable code.
    assert!(body.contains("\"code\":\"parse\""), "{body}");

    let (status, body) = get(&addr, "/v1/stats");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"api\":\"pigeon/1\""), "{body}");
    assert!(body.contains("\"requests_total\""), "{body}");

    // Error bodies carry machine-readable codes per kind.
    let (status, body) = post(&addr, "/v1/predict", "{not json");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("\"code\":\"bad-request\""), "{body}");
    let (status, body) = post(&addr, "/v1/predict", r#"{"source": "function ((("}"#);
    assert_eq!(status, 422, "{body}");
    assert!(body.contains("\"code\":\"parse\""), "{body}");
    let (status, body) = get(&addr, "/no-such-route");
    assert_eq!(status, 404, "{body}");
    assert!(body.contains("\"code\":\"not-found\""), "{body}");
    // Framing errors too, written and read as raw bytes: a request line
    // without a path, and a Content-Length that is not a length.
    for raw in [
        "GARBAGE\r\n\r\n",
        "POST /v1/predict HTTP/1.1\r\nContent-Length: -1\r\n\r\n",
    ] {
        let mut stream = TcpStream::connect(&addr).expect("connects");
        stream.write_all(raw.as_bytes()).expect("writes");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("reads");
        assert!(response.starts_with("HTTP/1.1 400 "), "{raw:?}: {response}");
        assert!(response.contains("\"code\":\"bad-request\""), "{response}");
    }

    // The pre-versioning paths are gone.
    let (status, body) = get(&addr, "/predict");
    assert_eq!(status, 404, "{body}");
    assert!(body.contains("\"code\":\"not-found\""), "{body}");

    // The Prometheus exposition: request counters by endpoint and
    // status, the predict latency histogram, and content-type framing.
    let (status, head, metrics) = get_full(&addr, "/v1/metrics");
    assert_eq!(status, 200, "{metrics}");
    assert!(head.contains("Content-Type: text/plain"), "{head}");
    for needle in [
        "# TYPE pigeon_http_requests_total counter",
        "pigeon_http_requests_total{endpoint=\"/v1/predict\",status=\"200\"}",
        "pigeon_http_requests_total{endpoint=\"/v1/predict\",status=\"400\"}",
        "pigeon_http_requests_total{endpoint=\"other\",status=\"404\"}",
        "# TYPE pigeon_predict_latency_micros histogram",
        "pigeon_predict_latency_micros_bucket",
        "le=\"+Inf\"",
        "pigeon_predictions_total",
    ] {
        assert!(metrics.contains(needle), "missing {needle} in:\n{metrics}");
    }

    child.kill().expect("kills");
    let _ = child.wait();
}

/// HTTP/1.1 keep-alive: many requests over one socket answer
/// byte-identically to fresh-connection requests, the server advertises
/// `Connection: keep-alive`, honours `Connection: close`, and enforces
/// `--max-conn-requests` / `--keep-alive false`.
#[test]
fn serve_keep_alive_reuses_connections() {
    let dir = tmp_dir("keepalive");
    let model = train_model(&dir);
    let (mut child, addr, _stdout) = spawn_server(&model, &["--idle-timeout", "60"]);

    // Baseline: one fresh connection (connection #1).
    let (status, baseline) = post(&addr, "/v1/predict", QUERY);
    assert_eq!(status, 200, "{baseline}");

    // Five predicts over ONE socket (connection #2); every body must be
    // byte-identical to the fresh-connection answer.
    let mut client = KeepAliveClient::connect(&addr);
    for i in 0..5 {
        let (status, head, body) = client.post("/v1/predict", QUERY);
        assert_eq!(status, 200, "request {i}: {body}");
        assert!(
            head.contains("Connection: keep-alive"),
            "request {i} must keep the connection open: {head}"
        );
        assert_eq!(
            body, baseline,
            "request {i} differs from fresh-connection run"
        );
    }
    let (status, _, stats) = client.get("/v1/stats");
    assert_eq!(status, 200);
    assert_eq!(
        stat_u64(&stats, "connections_total"),
        2,
        "6 keep-alive requests must reuse one connection: {stats}"
    );
    assert_eq!(stat_u64(&stats, "requests_total"), 7, "{stats}");

    // `Connection: close` is honoured: the response says close and the
    // server then shuts the socket (drain sees EOF, no stray bytes).
    let (status, head, _) = client.get_closing("/v1/health");
    assert_eq!(status, 200);
    assert!(head.contains("Connection: close"), "{head}");
    assert_eq!(client.drain(), "", "no bytes may follow the final response");

    child.kill().expect("kills");
    let _ = child.wait();

    // --max-conn-requests 2: the second response on a connection closes it.
    let (mut child, addr, _stdout) = spawn_server(
        &model,
        &["--idle-timeout", "60", "--max-conn-requests", "2"],
    );
    let mut client = KeepAliveClient::connect(&addr);
    let (_, head, _) = client.get("/v1/health");
    assert!(head.contains("Connection: keep-alive"), "{head}");
    let (_, head, _) = client.get("/v1/health");
    assert!(
        head.contains("Connection: close"),
        "request cap must close: {head}"
    );
    assert_eq!(client.drain(), "");
    child.kill().expect("kills");
    let _ = child.wait();

    // --keep-alive false restores one-request-per-connection.
    let (mut child, addr, _stdout) =
        spawn_server(&model, &["--idle-timeout", "60", "--keep-alive", "false"]);
    let mut client = KeepAliveClient::connect(&addr);
    let (status, head, _) = client.get("/v1/health");
    assert_eq!(status, 200);
    assert!(head.contains("Connection: close"), "{head}");
    assert_eq!(client.drain(), "");
    child.kill().expect("kills");
    let _ = child.wait();
}

/// A read timeout **between** keep-alive requests closes the connection
/// silently (no 408 written into the idle socket); a timeout
/// **mid-request** still answers 408.
#[test]
fn serve_idle_keep_alive_timeout_closes_silently() {
    let dir = tmp_dir("idle-ka");
    let model = train_model(&dir);
    let (mut child, addr, _stdout) = spawn_server(
        &model,
        &["--idle-timeout", "60", "--read-timeout-ms", "300"],
    );

    // One full request, then park the connection past the read timeout:
    // the server must close with zero further bytes.
    let mut client = KeepAliveClient::connect(&addr);
    let (status, _, _) = client.get("/v1/health");
    assert_eq!(status, 200);
    std::thread::sleep(Duration::from_millis(900));
    assert_eq!(
        client.drain(),
        "",
        "an idle keep-alive connection must close without a 408 body"
    );

    // A *partial* request that stalls is a real timeout: 408, coded.
    let mut stream = TcpStream::connect(&addr).expect("connects");
    stream
        .write_all(b"POST /v1/predict HT")
        .expect("writes partial request line");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("reads");
    assert!(
        response.starts_with("HTTP/1.1 408 "),
        "stalled mid-request must answer 408: {response:?}"
    );
    assert!(response.contains("\"code\":\"timeout\""), "{response}");
    assert!(response.contains("\"api\":\"pigeon/1\""), "{response}");

    // The server is still healthy afterwards.
    let (status, _) = get(&addr, "/v1/health");
    assert_eq!(status, 200);
    child.kill().expect("kills");
    let _ = child.wait();
}

/// Concurrent predicts coalesce into micro-batches: with N clients in
/// flight the admission queue hands the batcher fewer `predict_batch`
/// calls than requests, while every client still gets the byte-exact
/// single-predict answer.
#[test]
fn serve_coalesces_concurrent_predicts_into_micro_batches() {
    let dir = tmp_dir("batch");
    let model = train_model(&dir);
    let (mut child, addr, _stdout) = spawn_server(
        &model,
        &[
            "--idle-timeout",
            "60",
            "--jobs",
            "8",
            "--batch-wait-ms",
            "50",
        ],
    );
    let (status, baseline) = post(&addr, "/v1/predict", QUERY);
    assert_eq!(status, 200, "{baseline}");

    const CLIENTS: usize = 8;
    const ROUNDS: usize = 2;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let addr = addr.clone();
                let baseline = baseline.as_str();
                scope.spawn(move || {
                    let mut client = KeepAliveClient::connect(&addr);
                    for _ in 0..ROUNDS {
                        let (status, _, body) = client.post("/v1/predict", QUERY);
                        assert_eq!(status, 200, "{body}");
                        assert_eq!(body, baseline, "batched answer must match solo answer");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("client thread");
        }
    });

    let (status, metrics) = get(&addr, "/v1/metrics");
    assert_eq!(status, 200);
    let total = (CLIENTS * ROUNDS + 1) as u64; // +1 for the baseline request
    assert_eq!(
        metric_u64(&metrics, "pigeon_batch_size_sum"),
        total,
        "every queued job lands in exactly one batch"
    );
    let batches = metric_u64(&metrics, "pigeon_batch_size_count");
    assert!(
        batches <= total / 2 + 1,
        "{CLIENTS} concurrent clients must coalesce: {batches} batches for {total} requests\n{metrics}"
    );
    assert_eq!(metric_u64(&metrics, "pigeon_queue_depth"), 0);

    child.kill().expect("kills");
    let _ = child.wait();
}

/// A full admission queue answers `429` + `Retry-After` with the stable
/// code `overloaded` instead of queueing unbounded work — and the
/// rejected client can come back.
#[test]
fn serve_backpressure_returns_429_when_queue_is_full() {
    let dir = tmp_dir("backpressure");
    let model = train_model(&dir);
    // queue-cap 1 and a long companion wait: the first predict sits in
    // the queue while the batcher waits for companions, so a second
    // predict deterministically finds the queue full.
    let (mut child, addr, _stdout) = spawn_server(
        &model,
        &[
            "--idle-timeout",
            "60",
            "--jobs",
            "4",
            "--queue-cap",
            "1",
            "--batch-wait-ms",
            "1500",
        ],
    );

    std::thread::scope(|scope| {
        let first = scope.spawn(|| post(&addr, "/v1/predict", QUERY));
        // Give the first request time to enter the queue.
        std::thread::sleep(Duration::from_millis(400));
        let (status, head, body) = post_full(&addr, "/v1/predict", QUERY);
        assert_eq!(status, 429, "{body}");
        assert!(head.contains("Retry-After: 1"), "{head}");
        assert!(body.contains("\"code\":\"overloaded\""), "{body}");
        assert!(body.contains("\"api\":\"pigeon/1\""), "{body}");
        // The queued request is unharmed by the rejection next to it.
        let (status, body) = first.join().expect("first client");
        assert_eq!(status, 200, "{body}");
    });

    // Once the queue drains, predicts are accepted again.
    let (status, body) = post(&addr, "/v1/predict", QUERY);
    assert_eq!(status, 200, "{body}");
    let (_, stats) = get(&addr, "/v1/stats");
    assert_eq!(stat_u64(&stats, "rejected_total"), 1, "{stats}");

    child.kill().expect("kills");
    let _ = child.wait();
}

/// Hot model swap under live traffic: `POST /v1/models` activates a new
/// version with zero failed requests, old and new versions both show up
/// in the `/v1/stats` per-model slices, and `GET /v1/models` lists them.
#[test]
fn serve_hot_swaps_models_without_dropping_requests() {
    use std::sync::atomic::{AtomicBool, Ordering};

    let dir = tmp_dir("hotswap");
    let model = train_model(&dir);
    // A second, independently trained model to swap in.
    let corpus2 = dir.join("corpus2");
    let model2 = dir.join("model2.json");
    let out = pigeon()
        .args([
            "generate",
            "--language",
            "js",
            "--files",
            "60",
            "--seed",
            "7",
        ])
        .arg(&corpus2)
        .output()
        .expect("runs");
    assert!(out.status.success());
    let mut train = pigeon();
    train
        .args(["train", "--language", "js", "--out"])
        .arg(&model2);
    for entry in std::fs::read_dir(&corpus2).unwrap() {
        train.arg(entry.unwrap().path());
    }
    assert!(train.output().expect("runs").status.success());
    let model2_json = std::fs::read_to_string(&model2).expect("model JSON");

    let (mut child, addr, _stdout) = spawn_server(
        &model,
        &[
            "--idle-timeout",
            "60",
            "--jobs",
            "4",
            "--max-request-bytes",
            "33554432",
        ],
    );

    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        // Continuous load across the swap; every single answer must be 200.
        let load: Vec<_> = (0..3)
            .map(|_| {
                let addr = addr.clone();
                let stop = &stop;
                scope.spawn(move || {
                    let mut client = KeepAliveClient::connect(&addr);
                    let mut served = 0usize;
                    while !stop.load(Ordering::Relaxed) {
                        let (status, _, body) = client.post("/v1/predict", QUERY);
                        assert_eq!(status, 200, "mid-swap failure: {body}");
                        served += 1;
                    }
                    served
                })
            })
            .collect();

        std::thread::sleep(Duration::from_millis(300));
        let (status, body) = post(&addr, "/v1/models", &model2_json);
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"version\":2"), "{body}");
        assert!(body.contains("\"active\":true"), "{body}");
        std::thread::sleep(Duration::from_millis(300));

        stop.store(true, Ordering::Relaxed);
        let served: usize = load
            .into_iter()
            .map(|h| h.join().expect("load thread"))
            .sum();
        assert!(served > 0, "load threads must have run across the swap");
    });

    // Both versions are listed; version 2 is active.
    let (status, body) = get(&addr, "/v1/models");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"active_version\":2"), "{body}");
    assert!(body.contains("\"origin\":\"startup\""), "{body}");
    assert!(body.contains("\"origin\":\"api\""), "{body}");

    // Per-model stats: both versions served traffic (the load ran on
    // either side of the swap).
    let (_, stats) = get(&addr, "/v1/stats");
    let models_json = stats.split("\"models\":").nth(1).expect("models slice");
    let mut slices = models_json.split("\"version\":").skip(1);
    let v1 = slices.next().expect("version 1 slice");
    let v2 = slices.next().expect("version 2 slice");
    assert!(
        stat_u64(v1, "predict_requests_total") > 0,
        "version 1 served traffic before the swap: {stats}"
    );
    assert!(
        stat_u64(v2, "predict_requests_total") > 0,
        "version 2 served traffic after the swap: {stats}"
    );
    let (_, metrics) = get(&addr, "/v1/metrics");
    assert_eq!(metric_u64(&metrics, "pigeon_model_swaps_total"), 1);

    // A garbage model body is refused with a coded 400 — and does NOT
    // replace the active model.
    let (status, body) = post(&addr, "/v1/models", "{not a model");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("\"code\":"), "{body}");
    let (_, body) = get(&addr, "/v1/models");
    assert!(body.contains("\"active_version\":2"), "{body}");

    child.kill().expect("kills");
    let _ = child.wait();
}

/// Regression for the poisoned-lock DoS: a handler that panics while
/// holding the latency reservoir answers a contract-conformant 500, and
/// the server keeps serving predicts and stats afterwards (the poisoned
/// mutex is recovered, not propagated forever).
#[test]
fn serve_recovers_from_a_poisoning_panic() {
    let dir = tmp_dir("chaos");
    let model = train_model(&dir);
    let (mut child, addr, _stdout) =
        spawn_server_env(&model, &["--idle-timeout", "60"], &[("PIGEON_CHAOS", "1")]);

    // Trip the chaos endpoint: it panics while holding the reservoir.
    let (status, body) = post(&addr, "/v1/_chaos/poison", "{}");
    assert_eq!(status, 500, "{body}");
    assert!(body.starts_with(r#"{"api":"pigeon/1""#), "{body}");
    assert!(body.contains("\"code\":\"internal\""), "{body}");

    // The lock is now poisoned; both access sites must keep working.
    for _ in 0..3 {
        let (status, body) = post(&addr, "/v1/predict", QUERY);
        assert_eq!(status, 200, "predict after poisoning: {body}");
    }
    let (status, stats) = get(&addr, "/v1/stats");
    assert_eq!(status, 200, "stats after poisoning: {stats}");
    assert_eq!(stat_u64(&stats, "predict_requests_total"), 3, "{stats}");
    assert!(stat_u64(&stats, "latency_micros_p50") > 0, "{stats}");

    child.kill().expect("kills");
    let _ = child.wait();

    // Without PIGEON_CHAOS=1 the endpoint does not exist.
    let (mut child, addr, _stdout) = spawn_server(&model, &["--idle-timeout", "60"]);
    let (status, _) = post(&addr, "/v1/_chaos/poison", "{}");
    assert_eq!(status, 404);
    child.kill().expect("kills");
    let _ = child.wait();
}

/// `POST /v1/models` accepts the compiled binary artifact byte-for-byte
/// (content-sniffed by magic), swaps it in as a new active version, and
/// answers 400 with a stable code — keeping the old model — for
/// corrupted artifacts and for JSON models that smuggle non-finite
/// weights through `1e999`.
#[test]
fn serve_hot_swaps_a_binary_artifact_and_rejects_poisoned_uploads() {
    let dir = tmp_dir("artifact-swap");
    let model = train_model(&dir);
    let artifact_path = dir.join("model.pgnc");
    let out = pigeon()
        .args(["compile", "--quantize", "i8", "--out"])
        .arg(&artifact_path)
        .arg(&model)
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let artifact = std::fs::read(&artifact_path).expect("reads artifact");
    assert_eq!(&artifact[..4], b"PGNC");

    let (mut child, addr, _stdout) = spawn_server(
        &model,
        &["--idle-timeout", "60", "--max-request-bytes", "33554432"],
    );
    let (status, body) = post(&addr, "/v1/predict", QUERY);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"model_version\":1"), "{body}");

    // Binary hot swap: raw artifact bytes straight onto the wire.
    let (status, body) = post_bytes(&addr, "/v1/models", &artifact);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"version\":2"), "{body}");
    assert!(body.contains("\"format\":\"artifact\""), "{body}");
    assert!(body.contains("\"active\":true"), "{body}");
    let (status, body) = post(&addr, "/v1/predict", QUERY);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"model_version\":2"), "{body}");

    // A bit-flipped artifact is a coded 400, not a panic and not a swap.
    let mut tampered = artifact.clone();
    let mid = tampered.len() / 2;
    tampered[mid] ^= 0x01;
    let (status, body) = post_bytes(&addr, "/v1/models", &tampered);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("\"code\":\"model-format\""), "{body}");

    // A truncated artifact likewise.
    let (status, body) = post_bytes(&addr, "/v1/models", &artifact[..64]);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("\"code\":\"model-format\""), "{body}");

    // A JSON model whose weight table hides an infinity behind `1e999`
    // parses fine but must fail validation with the same stable code.
    let poisoned = r#"{"language":"js","target":"variables","abstraction":"full",
        "max_length":7,"max_width":3,"semi_paths":true,"top_k":5,
        "labels":["a","b"],"features":["f0"],
        "model":"{\"pair_weights\":[[0,0,1,1e999]],\"unary_weights\":[],\"label_counts\":[1,1],\"candidates\":[],\"global_candidates\":[0],\"max_candidates\":4,\"max_passes\":4}"}"#;
    let (status, body) = post(&addr, "/v1/models", poisoned);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("\"code\":\"model-format\""), "{body}");
    assert!(body.contains("model-nonfinite-weight"), "{body}");

    // None of the rejected uploads displaced the artifact model.
    let (_, body) = get(&addr, "/v1/models");
    assert!(body.contains("\"active_version\":2"), "{body}");
    let (status, body) = post(&addr, "/v1/predict", QUERY);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"model_version\":2"), "{body}");

    child.kill().expect("kills");
    let _ = child.wait();
}

/// A model header whose path limits pass the bound (16 × 8) is a coded
/// `model-format` 400 on `POST /v1/models`, never an active model that
/// makes every later predict quadratic in program size; the server keeps
/// serving its current version. The bound itself is admitted.
#[test]
fn serve_rejects_over_bound_path_limits_and_keeps_serving() {
    let dir = tmp_dir("header-bound");
    let model = |max_length: u32, max_width: u32| {
        format!(
            r#"{{"language":"js","target":"variables","abstraction":"full",
            "max_length":{max_length},"max_width":{max_width},"semi_paths":false,"top_k":5,
            "labels":["a","b"],"features":["f0"],
            "model":"{{\"pair_weights\":[[0,0,1,0.5]],\"unary_weights\":[],\"label_counts\":[1,1],\"candidates\":[],\"global_candidates\":[0],\"max_candidates\":4,\"max_passes\":4}}"}}"#
        )
    };
    let path = dir.join("model.json");
    std::fs::write(&path, model(4, 3)).expect("writes model");
    let (mut child, addr, _stdout) = spawn_server(&path, &["--idle-timeout", "60"]);

    for (max_length, max_width, knob) in [
        (1_000_000, 1_000_000, "max_length"),
        (4, 1_000_000, "max_width"),
        (17, 3, "max_length"),
    ] {
        let (status, body) = post(&addr, "/v1/models", &model(max_length, max_width));
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("\"code\":\"model-format\""), "{body}");
        assert!(body.contains(knob), "the error must name {knob}: {body}");
        let (status, body) = get(&addr, "/v1/health");
        assert_eq!(status, 200, "{body}");
        let (_, body) = get(&addr, "/v1/models");
        assert!(body.contains("\"active_version\":1"), "{body}");
    }
    let (status, body) = post(&addr, "/v1/models", &model(16, 8));
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"version\":2"), "{body}");

    child.kill().expect("kills");
    let _ = child.wait();
}

/// The deterministic metric families are byte-identical whatever
/// `--jobs` is: shard merging and serial traffic leave no thread-count
/// fingerprint in the exposition (timing families excluded, they
/// genuinely vary).
#[test]
fn serve_metrics_deterministic_families_are_jobs_invariant() {
    const FAMILIES: &[&str] = &[
        "pigeon_http_requests_total",
        "pigeon_connections_total",
        "pigeon_requests_total",
        "pigeon_request_errors_total",
        "pigeon_predictions_total",
        "pigeon_batch_size",
        "pigeon_queue_depth",
        "pigeon_queue_rejected_total",
        "pigeon_model_swaps_total",
    ];
    let dir = tmp_dir("jobs-invariant");
    let model = train_model(&dir);
    let run = |jobs: &str| -> String {
        let (mut child, addr, _stdout) =
            spawn_server(&model, &["--idle-timeout", "60", "--jobs", jobs]);
        // An identical serial request sequence on every server.
        for _ in 0..2 {
            let (status, _) = post(&addr, "/v1/predict", QUERY);
            assert_eq!(status, 200);
        }
        let (status, _) = post(&addr, "/v1/predict", "{not json");
        assert_eq!(status, 400);
        let (status, _) = get(&addr, "/no-such-route");
        assert_eq!(status, 404);
        let (status, metrics) = get(&addr, "/v1/metrics");
        assert_eq!(status, 200);
        child.kill().expect("kills");
        let _ = child.wait();
        metrics
            .lines()
            .filter(|l| FAMILIES.iter().any(|f| l.contains(f)))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let serial = run("1");
    let parallel = run("4");
    assert!(
        serial.contains("pigeon_batch_size_sum"),
        "filter must keep the batch family: {serial}"
    );
    assert_eq!(
        serial, parallel,
        "deterministic families must not depend on --jobs"
    );
}

/// Manual throughput report backing the EXPERIMENTS.md table: run with
/// `cargo test --release --test serve -- --ignored --nocapture`.
#[test]
#[ignore]
fn throughput_report() {
    use pigeon::corpus::{generate, CorpusConfig, Language};
    use pigeon::{Pigeon, PigeonConfig};

    let corpus = generate(
        Language::JavaScript,
        &CorpusConfig::default().with_files(400),
    );
    let sources: Vec<&str> = corpus.docs.iter().map(|d| d.source.as_str()).collect();
    let (train, queries) = sources.split_at(300);
    let namer = Pigeon::train_variable_namer(Language::JavaScript, train, &PigeonConfig::default())
        .expect("trains");

    let t = Instant::now();
    let serial: usize = queries
        .iter()
        .map(|s| namer.predict(s).map(|p| p.len()).unwrap_or(0))
        .sum();
    let serial_secs = t.elapsed().as_secs_f64();
    println!(
        "serial:        {} programs, {serial} predictions in {serial_secs:.3}s \
         ({:.0} programs/s)",
        queries.len(),
        queries.len() as f64 / serial_secs
    );

    for jobs in [1usize, 4] {
        let t = Instant::now();
        let batch: usize = namer
            .predict_batch(queries, jobs)
            .into_iter()
            .map(|r| r.map(|p| p.len()).unwrap_or(0))
            .sum();
        let secs = t.elapsed().as_secs_f64();
        assert_eq!(batch, serial);
        println!(
            "batch jobs={jobs}:  {} programs in {secs:.3}s ({:.0} programs/s)",
            queries.len(),
            queries.len() as f64 / secs
        );
    }

    let dir = tmp_dir("throughput");
    let model_path = dir.join("model.json");
    std::fs::write(&model_path, namer.to_json().expect("serialises")).unwrap();
    let bodies: Vec<String> = queries
        .iter()
        .map(|q| serde_json::to_string(&serde_json::json!({ "source": *q })).unwrap())
        .collect();
    let (mut child, addr, _stdout) = spawn_server(&model_path, &["--idle-timeout", "60"]);

    // One connection per request (the pre-keep-alive behaviour).
    let t = Instant::now();
    for body in &bodies {
        let (status, _) = post(&addr, "/v1/predict", body);
        assert!(status == 200 || status == 422);
    }
    let secs = t.elapsed().as_secs_f64();
    println!(
        "served close:  {} programs in {secs:.3}s ({:.0} programs/s, one conn each)",
        bodies.len(),
        bodies.len() as f64 / secs
    );

    // One keep-alive connection, serial requests.
    let mut client = KeepAliveClient::connect(&addr);
    let t = Instant::now();
    for body in &bodies {
        let (status, _, _) = client.post("/v1/predict", body);
        assert!(status == 200 || status == 422);
    }
    let secs = t.elapsed().as_secs_f64();
    println!(
        "served ka:     {} programs in {secs:.3}s ({:.0} programs/s, keep-alive serial)",
        bodies.len(),
        bodies.len() as f64 / secs
    );
    // Release the connection before the concurrent phase — a parked
    // keep-alive socket occupies a connection worker until it times out.
    drop(client);

    // Keep-alive with concurrent clients: requests coalesce into
    // micro-batches through the admission queue.
    let clients = 4usize;
    let t = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let addr = addr.clone();
                let bodies = &bodies;
                scope.spawn(move || {
                    let mut client = KeepAliveClient::connect(&addr);
                    for body in bodies.iter().skip(c).step_by(clients) {
                        let (status, _, _) = client.post("/v1/predict", body);
                        assert!(status == 200 || status == 422);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("client");
        }
    });
    let secs = t.elapsed().as_secs_f64();
    println!(
        "served ka+mb:  {} programs in {secs:.3}s ({:.0} programs/s, {clients} keep-alive clients)",
        bodies.len(),
        bodies.len() as f64 / secs
    );
    let (_, metrics) = get(&addr, "/v1/metrics");
    println!(
        "micro-batches: {} batches for {} batched jobs",
        metric_u64(&metrics, "pigeon_batch_size_count"),
        metric_u64(&metrics, "pigeon_batch_size_sum"),
    );
    child.kill().expect("kills");
    let _ = child.wait();
}
