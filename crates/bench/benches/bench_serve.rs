//! Serving-path latency: `POST /v1/predict` over one-shot
//! (`Connection: close`) vs keep-alive connections, and the
//! micro-batched `POST /v1/predict_batch` per-source cost, measured
//! against an in-process server on an ephemeral port.
//!
//! Writes `BENCH_SERVE.json` at the repo root (override with
//! `PIGEON_BENCH_OUT`). CI's perf gate guards the dimensionless
//! `ratios` — keep-alive vs close and batch vs single — which divide
//! out the host's absolute speed.

use pigeon::corpus::{generate, CorpusConfig, Language};
use pigeon::http;
use pigeon::serve::{bind, request_shutdown, ServeConfig};
use pigeon::{Pigeon, PigeonConfig};
use pigeon_bench::{bench_files, Section};
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

const CLOSE_ITERATIONS: usize = 200;
const KEEPALIVE_ITERATIONS: usize = 200;
const BATCH_ITERATIONS: usize = 30;
const BATCH_SIZE: usize = 16;
const SOURCE: &str = "function f(a, b) { b.send(a); return a + b; }";

fn percentiles(mut micros: Vec<f64>) -> (f64, f64) {
    micros.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let p95 = micros[((micros.len() - 1) * 95) / 100];
    (micros[micros.len() / 2], p95)
}

/// Writes one request and reads its response off a buffered
/// connection through the library's HTTP framing, asserting a 200.
fn roundtrip(reader: &mut BufReader<TcpStream>, path: &str, body: &str, close: bool) {
    let connection = if close { "close" } else { "keep-alive" };
    // One write for head and body: the bench's sockets keep Nagle on.
    let request = http::render_head(
        &format!("POST {path} HTTP/1.1"),
        "application/json",
        body.len(),
        &[("Host", "bench"), ("Connection", connection)],
    ) + body;
    reader
        .get_mut()
        .write_all(request.as_bytes())
        .expect("writes");
    let response = http::read_response(reader).expect("reads response");
    assert_eq!(response.status, 200, "unexpected response: {response:?}");
}

fn connect(addr: std::net::SocketAddr) -> BufReader<TcpStream> {
    let stream = TcpStream::connect(addr).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    BufReader::new(stream)
}

fn main() {
    let files = bench_files(200);
    let section = Section::begin("Serving: close vs keep-alive vs micro-batch");

    let corpus = generate(
        Language::JavaScript,
        &CorpusConfig::default().with_files(files),
    );
    let sources: Vec<&str> = corpus.docs.iter().map(|d| d.source.as_str()).collect();
    let model =
        Pigeon::train_variable_namer(Language::JavaScript, &sources, &PigeonConfig::default())
            .expect("trains");

    let bound = bind(&ServeConfig {
        port: 0,
        ..ServeConfig::default()
    })
    .expect("binds");
    let addr = bound.addr();
    let server = std::thread::spawn(move || bound.run(Some(model)));

    let predict = format!("{{\"source\": \"{SOURCE}\"}}");
    let batch_sources: Vec<String> = (0..BATCH_SIZE).map(|_| format!("\"{SOURCE}\"")).collect();
    let batch = format!("{{\"sources\": [{}]}}", batch_sources.join(", "));

    // Warm up until the worker pool answers.
    for _ in 0..20 {
        roundtrip(&mut connect(addr), "/v1/predict", &predict, true);
    }

    let close: Vec<f64> = (0..CLOSE_ITERATIONS)
        .map(|_| {
            let t = Instant::now();
            roundtrip(&mut connect(addr), "/v1/predict", &predict, true);
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    let (close_median, close_p95) = percentiles(close);

    let mut conn = connect(addr);
    let keepalive: Vec<f64> = (0..KEEPALIVE_ITERATIONS)
        .map(|_| {
            let t = Instant::now();
            roundtrip(&mut conn, "/v1/predict", &predict, false);
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    let (keepalive_median, keepalive_p95) = percentiles(keepalive);

    let per_source: Vec<f64> = (0..BATCH_ITERATIONS)
        .map(|_| {
            let t = Instant::now();
            roundtrip(&mut conn, "/v1/predict_batch", &batch, false);
            t.elapsed().as_secs_f64() * 1e6 / BATCH_SIZE as f64
        })
        .collect();
    let (batch_median, batch_p95) = percentiles(per_source);

    request_shutdown();
    server.join().expect("server thread").expect("clean exit");

    let keepalive_speedup = close_median / keepalive_median;
    let batch_speedup = keepalive_median / batch_median;
    println!("{:<22} {:>14} {:>14}", "Path", "Median (µs)", "p95 (µs)");
    for (name, median, p95) in [
        ("predict_close", close_median, close_p95),
        ("predict_keepalive", keepalive_median, keepalive_p95),
        ("batch_per_source", batch_median, batch_p95),
    ] {
        println!("{name:<22} {median:>14.1} {p95:>14.1}");
    }
    println!("keep-alive vs close speedup: {keepalive_speedup:.2}×");
    println!("batch vs single speedup:     {batch_speedup:.2}×");

    let report = format!(
        "{{\n  \"bench\": \"serve\",\n  \"corpus_files\": {files},\n  \
         \"iterations\": {{\"close\": {CLOSE_ITERATIONS}, \"keepalive\": {KEEPALIVE_ITERATIONS}, \
         \"batch\": {BATCH_ITERATIONS}}},\n  \"batch_size\": {BATCH_SIZE},\n  \
         \"host\": {{\"os\": \"{}\", \"arch\": \"{}\", \"cores\": {}}},\n  \"paths\": {{\n    \
         \"predict_close\": {{\"median_micros\": {close_median:.1}, \"p95_micros\": {close_p95:.1}}},\n    \
         \"predict_keepalive\": {{\"median_micros\": {keepalive_median:.1}, \"p95_micros\": {keepalive_p95:.1}}},\n    \
         \"batch_per_source\": {{\"median_micros\": {batch_median:.1}, \"p95_micros\": {batch_p95:.1}}}\n  }},\n  \
         \"ratios\": {{\n    \"keepalive_vs_close_speedup\": {keepalive_speedup:.3},\n    \
         \"batch_vs_single_speedup\": {batch_speedup:.3}\n  }}\n}}\n",
        std::env::consts::OS,
        std::env::consts::ARCH,
        std::thread::available_parallelism().map_or(0, usize::from),
    );
    let out = std::env::var("PIGEON_BENCH_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_SERVE.json").to_owned()
    });
    std::fs::write(&out, report).expect("writes snapshot");
    println!("\nwrote {out}");
    section.end();
}
