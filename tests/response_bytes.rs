//! Pins the exact bytes `pigeon serve` answers on the two predict
//! routes. A whole-file data-flow model is served from its JSON file
//! and from an i8 `.pgnc`, and each answers `/v1/predict` for one
//! whole file and one small function, and `/v1/predict_batch` for two
//! whole files around a program that fails to parse. Every body is
//! pinned by its FNV-1a/64 hash, so key order, string escaping, score
//! formatting and the in-place error entry cannot drift.

use pigeon::corpus::{generate, CorpusConfig, Language};
use pigeon::{Pigeon, PigeonConfig};
use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// The data-flow namer of the whole-file request shape.
fn dataflow_namer() -> Pigeon {
    let corpus = generate(
        Language::JavaScript,
        &CorpusConfig::default().with_files(80),
    );
    let sources: Vec<&str> = corpus.docs.iter().map(|d| d.source.as_str()).collect();
    let config = PigeonConfig::builder()
        .dataflow_contexts(true)
        .build()
        .expect("valid config");
    Pigeon::train_variable_namer(Language::JavaScript, &sources, &config)
        .expect("training corpus parses")
}

/// Two generated whole files of 20–40 functions each.
fn whole_files() -> Vec<String> {
    generate(
        Language::JavaScript,
        &CorpusConfig {
            files: 2,
            min_functions: 20,
            max_functions: 40,
            seed: 0x00B0_D1E5,
            ..CorpusConfig::default()
        },
    )
    .docs
    .into_iter()
    .map(|d| d.source)
    .collect()
}

/// The three request bodies, in the order their hashes are pinned.
fn requests(files: &[String]) -> [(&'static str, String); 3] {
    let json = |v: serde_json::Value| serde_json::to_string(&v).expect("serialises");
    [
        (
            "/v1/predict",
            json(serde_json::json!({ "source": files[0].as_str() })),
        ),
        (
            "/v1/predict",
            json(serde_json::json!({
                "source": "function f($el, i, n) { var t = 0; while (i < n) { t += $el[i]; i++; } return t; }"
            })),
        ),
        (
            "/v1/predict_batch",
            json(serde_json::json!({
                "sources": vec![
                    files[0].as_str(),
                    "function { syntax error",
                    files[1].as_str(),
                ]
            })),
        ),
    ]
}

/// Serves `model` with `pigeon serve`, posts every request and returns
/// the FNV-1a/64 of each response body.
fn body_hashes(dir: &Path, name: &str, model: &[u8], files: &[String]) -> Vec<u64> {
    let path = dir.join(name);
    std::fs::write(&path, model).expect("writes model");
    let mut child = Command::new(env!("CARGO_BIN_EXE_pigeon"))
        .args(["serve", "--model"])
        .arg(&path)
        .args(["--port", "0", "--idle-timeout", "120"])
        .args(["--max-request-bytes", "16777216"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawns pigeon serve");
    let mut line = String::new();
    std::io::BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut line)
        .expect("startup line");
    let addr = line
        .split("http://")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("no address in startup line: {line:?}"))
        .to_owned();
    let hashes = requests(files)
        .iter()
        .map(|(route, body)| {
            let response =
                pigeon::http::request(&addr, "POST", route, "application/json", body.as_bytes())
                    .expect("HTTP exchange");
            assert_eq!(
                response.status,
                200,
                "{route}: {}",
                String::from_utf8_lossy(&response.body)
            );
            let text = String::from_utf8_lossy(&response.body);
            assert!(
                text.starts_with("{\"api\":\"pigeon/1\",\"model_version\":1,"),
                "{text}"
            );
            if route.ends_with("_batch") {
                assert!(text.contains("},{\"code\":\"parse\",\"error\":"), "{text}");
            }
            pigeon::core::fnv64(&response.body)
        })
        .collect();
    let _ = child.kill();
    let _ = child.wait();
    hashes
}

fn tmp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pigeon-response-bytes-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("creates temp dir");
    dir
}

#[test]
fn predict_route_bodies_are_byte_identical_to_the_pinned_hashes() {
    let namer = dataflow_namer();
    let files = whole_files();
    let dir = tmp_dir();
    let json = namer.to_json().expect("serialises");
    let artifact = namer
        .to_artifact(pigeon::crf::artifact::Quant::I8)
        .expect("compiles");
    let from_json = body_hashes(&dir, "model.json", json.as_bytes(), &files);
    let from_artifact = body_hashes(&dir, "model.pgnc", &artifact, &files);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        (from_json.as_slice(), from_artifact.as_slice()),
        (PINNED_JSON_MODEL.as_slice(), PINNED_PGNC_MODEL.as_slice()),
        "response bodies drifted"
    );
}

/// Body hashes with the JSON model: whole file, small function, batch.
const PINNED_JSON_MODEL: [u64; 3] = [
    4203944517434998132,
    15639818260925552295,
    3230824194396499571,
];

/// Body hashes with the i8 `.pgnc` model, in the same order.
const PINNED_PGNC_MODEL: [u64; 3] = [
    8671597550455684810,
    10953419198910925917,
    17322109253928958681,
];
