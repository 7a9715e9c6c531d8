//! Contract test for API.md: the `### METHOD /path` headings in the
//! doc are parsed and checked both ways against a live server — every
//! documented v1 route is probed and must answer as documented, and
//! every route the probe table (which mirrors the server's `route()`
//! dispatch) knows about must appear in the doc. Also covers the v1
//! response envelope, the CLI flag aliases, and the generated
//! per-command `--help`.

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};

fn pigeon() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pigeon"))
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pigeon-contract-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Generates a corpus, trains a model, and emits a 1-shard partial for
/// the same corpus — everything the probe run needs on disk.
fn fixtures(dir: &Path) -> (PathBuf, PathBuf, PathBuf) {
    let corpus = dir.join("corpus");
    let out = pigeon()
        .args(["generate", "--language", "js", "--files", "8"])
        .arg(&corpus)
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut files: Vec<PathBuf> = std::fs::read_dir(&corpus)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    files.sort();

    let model = dir.join("model.json");
    let mut cmd = pigeon();
    cmd.args(["train", "--language", "js", "--out"]).arg(&model);
    for f in &files {
        cmd.arg(f);
    }
    assert!(cmd.output().expect("runs").status.success());

    let partial = dir.join("shard0.pgnc");
    let mut cmd = pigeon();
    cmd.args([
        "train",
        "--language",
        "js",
        "--shard",
        "0/1",
        "--emit-partial",
    ])
    .arg(&partial);
    for f in &files {
        cmd.arg(f);
    }
    assert!(cmd.output().expect("runs").status.success());
    (corpus, model, partial)
}

fn spawn_server(model: &Path, cache_dir: &Path) -> (Child, String, BufReader<ChildStdout>) {
    let mut child = pigeon()
        .args(["serve", "--model"])
        .arg(model)
        .args(["--port", "0", "--idle-timeout", "120", "--cache-dir"])
        .arg(cache_dir)
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

fn request(addr: &str, method: &str, path: &str, body: &[u8]) -> (u16, String, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connects");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).expect("writes head");
    stream.write_all(body).expect("writes body");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("reads");
    let header_end = response
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("header terminator");
    let head = String::from_utf8_lossy(&response[..header_end]).to_string();
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .expect("status line")
        .parse()
        .expect("numeric status");
    (status, head, response[header_end + 4..].to_vec())
}

/// The documented routes: `### METHOD /path` headings out of API.md.
fn documented_routes() -> BTreeSet<String> {
    let doc = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/API.md"))
        .expect("API.md at the repo root");
    let routes: BTreeSet<String> = doc
        .lines()
        .filter_map(|l| l.strip_prefix("### "))
        .map(|h| h.trim().to_string())
        .collect();
    assert!(
        !routes.is_empty(),
        "API.md must contain `### METHOD /path` headings"
    );
    for route in &routes {
        let (method, path) = route.split_once(' ').expect("METHOD /path heading");
        assert!(
            matches!(method, "GET" | "POST"),
            "unexpected method in API.md heading: {route}"
        );
        assert!(path.starts_with("/v1/"), "non-v1 route documented: {route}");
    }
    routes
}

#[test]
fn every_documented_route_answers_and_every_probed_route_is_documented() {
    let dir = tmp_dir("routes");
    let (corpus, model, partial) = fixtures(&dir);
    let cache = dir.join("cache");
    let (mut server, addr, _stdout) = spawn_server(&model, &cache);

    let model_bytes = std::fs::read(&model).unwrap();
    let partial_bytes = std::fs::read(&partial).unwrap();
    let job = format!(
        r#"{{"corpus_dir": "{}", "language": "js", "out": "{}", "shard_count": 1}}"#,
        corpus.display(),
        dir.join("job-model.json").display()
    );

    // One probe per documented heading, in doc order where ordering
    // matters (the train-job is created before its status is read; its
    // model is fetched only after the partial upload completes it).
    // The doc path uses `{id}`/`{key}`/`{version}` placeholders; the
    // probe hits a concrete instance. This table mirrors the `route()`
    // dispatch in src/serve.rs — a route added there must be added here
    // and to API.md together.
    struct Probe {
        doc: &'static str,
        method: &'static str,
        path: String,
        body: Vec<u8>,
        want_status: u16,
        json: bool,
    }
    let mut cache_key = String::new();
    let probes = vec![
        Probe {
            doc: "POST /v1/predict",
            method: "POST",
            path: "/v1/predict".into(),
            body: br#"{"source": "function f(a, b) { b.send(a); }"}"#.to_vec(),
            want_status: 200,
            json: true,
        },
        Probe {
            doc: "POST /v1/predict_batch",
            method: "POST",
            path: "/v1/predict_batch".into(),
            body: br#"{"sources": ["function f(a) { return a; }"]}"#.to_vec(),
            want_status: 200,
            json: true,
        },
        Probe {
            doc: "POST /v1/models",
            method: "POST",
            path: "/v1/models".into(),
            body: model_bytes,
            want_status: 200,
            json: true,
        },
        Probe {
            doc: "GET /v1/models",
            method: "GET",
            path: "/v1/models".into(),
            body: vec![],
            want_status: 200,
            json: true,
        },
        Probe {
            doc: "GET /v1/models/{version}",
            method: "GET",
            path: "/v1/models/1".into(),
            body: vec![],
            want_status: 200,
            json: true,
        },
        Probe {
            doc: "POST /v1/train-jobs",
            method: "POST",
            path: "/v1/train-jobs".into(),
            body: job.into_bytes(),
            want_status: 200,
            json: true,
        },
        Probe {
            doc: "GET /v1/train-jobs",
            method: "GET",
            path: "/v1/train-jobs".into(),
            body: vec![],
            want_status: 200,
            json: true,
        },
        Probe {
            doc: "GET /v1/train-jobs/{id}",
            method: "GET",
            path: "/v1/train-jobs/1".into(),
            body: vec![],
            want_status: 200,
            json: true,
        },
        Probe {
            doc: "POST /v1/leases",
            method: "POST",
            path: "/v1/leases".into(),
            body: br#"{"worker": "contract-test"}"#.to_vec(),
            want_status: 200,
            json: true,
        },
        Probe {
            doc: "POST /v1/partials",
            method: "POST",
            path: "/v1/partials".into(),
            body: partial_bytes,
            want_status: 200,
            json: true,
        },
        // Completing the 1-shard job above makes its model fetchable.
        Probe {
            doc: "GET /v1/train-jobs/{id}/model",
            method: "GET",
            path: "/v1/train-jobs/1/model".into(),
            body: vec![],
            want_status: 200,
            json: false,
        },
        Probe {
            doc: "GET /v1/partials/{key}",
            method: "GET",
            path: String::new(), // filled in from the upload response
            body: vec![],
            want_status: 200,
            json: false,
        },
        Probe {
            doc: "GET /v1/stats",
            method: "GET",
            path: "/v1/stats".into(),
            body: vec![],
            want_status: 200,
            json: true,
        },
        Probe {
            doc: "GET /v1/health",
            method: "GET",
            path: "/v1/health".into(),
            body: vec![],
            want_status: 200,
            json: true,
        },
        Probe {
            doc: "GET /v1/metrics",
            method: "GET",
            path: "/v1/metrics".into(),
            body: vec![],
            want_status: 200,
            json: false,
        },
    ];

    let documented = documented_routes();
    let probed: BTreeSet<String> = probes.iter().map(|p| p.doc.to_string()).collect();
    assert_eq!(
        documented, probed,
        "API.md headings and the probe table must cover the same routes"
    );

    for probe in &probes {
        let path = if probe.doc == "GET /v1/partials/{key}" {
            assert!(!cache_key.is_empty(), "partial upload ran first");
            format!("/v1/partials/{cache_key}")
        } else {
            probe.path.clone()
        };
        let (status, _, body) = request(&addr, probe.method, &path, &probe.body);
        let text = String::from_utf8_lossy(&body);
        assert_eq!(
            status, probe.want_status,
            "{} {} answered {status}: {text}",
            probe.method, probe.doc
        );
        if probe.json {
            assert!(
                text.contains(r#""api":"pigeon/1""#),
                "{} must carry the v1 envelope: {text}",
                probe.doc
            );
        }
        if probe.doc == "POST /v1/partials" {
            let pos = text.find("\"key\":\"").expect("upload returns the key") + 7;
            cache_key = text[pos..pos + 16].to_string();
        }
    }

    // Errors carry the envelope and a stable code too.
    let (status, _, body) = request(&addr, "GET", "/v1/models/999", &[]);
    let text = String::from_utf8_lossy(&body);
    assert_eq!(status, 404, "{text}");
    assert!(text.starts_with(r#"{"api":"pigeon/1""#), "{text}");
    assert!(text.contains("\"code\":\"not-found\""), "{text}");
    let (status, _, body) = request(&addr, "GET", "/v1/nonexistent", &[]);
    assert_eq!(status, 404, "{}", String::from_utf8_lossy(&body));

    server.kill().expect("kills");
    let _ = server.wait();
}

/// Train jobs on a plain `pigeon serve` (no `--cache-dir`) answer the
/// documented 409 `no-coordinator` rather than a silent 404.
#[test]
fn coordinator_routes_answer_no_coordinator_without_a_cache_dir() {
    let dir = tmp_dir("nocoord");
    let (_corpus, model, _partial) = fixtures(&dir);
    let mut child = pigeon()
        .args(["serve", "--model"])
        .arg(&model)
        .args(["--port", "0", "--idle-timeout", "60"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawns");
    let mut reader = BufReader::new(child.stdout.take().expect("stdout"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("startup line");
    let addr = line
        .split("http://")
        .nth(1)
        .expect("address")
        .split_whitespace()
        .next()
        .unwrap()
        .to_string();

    for (method, path) in [
        ("POST", "/v1/train-jobs"),
        ("GET", "/v1/train-jobs"),
        ("POST", "/v1/leases"),
        ("POST", "/v1/partials"),
        ("GET", "/v1/partials/0011223344556677"),
    ] {
        let (status, _, body) = request(&addr, method, path, br#"{"worker": "x"}"#);
        let text = String::from_utf8_lossy(&body);
        assert_eq!(status, 409, "{method} {path}: {text}");
        assert!(
            text.contains("\"code\":\"no-coordinator\""),
            "{method} {path}: {text}"
        );
    }
    child.kill().expect("kills");
    let _ = child.wait();
}

/// Output files are named with `--out` only: the retired spellings
/// `pigeon merge -o` and the two-positional `pigeon compile` fail with a
/// usage error and write nothing.
#[test]
fn retired_flag_spellings_are_rejected() {
    let dir = tmp_dir("aliases");
    let (_corpus, model, partial) = fixtures(&dir);

    let merged = dir.join("merged.json");
    let out = pigeon()
        .args(["merge", "-o"])
        .arg(&merged)
        .arg(&partial)
        .output()
        .expect("runs");
    assert!(!out.status.success(), "merge -o must fail");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--out"),
        "the error must point at --out"
    );
    assert!(!merged.exists());

    let compiled = dir.join("model.pgnc");
    let out = pigeon()
        .arg("compile")
        .arg(&model)
        .arg(&compiled)
        .output()
        .expect("runs");
    assert!(!out.status.success(), "positional compile output must fail");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--out"),
        "the error must point at --out"
    );
    assert!(!compiled.exists());

    // The `--out` spellings work.
    let out = pigeon()
        .args(["merge", "--out"])
        .arg(&merged)
        .arg(&partial)
        .output()
        .expect("runs");
    assert!(out.status.success());
    assert!(merged.exists());
    let out = pigeon()
        .args(["compile", "--out"])
        .arg(&compiled)
        .arg(&model)
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(compiled.exists());
}

/// `pigeon <command> --help` is generated from the same flag table
/// that validates the flags, so every command documents its own flags.
#[test]
fn per_command_help_is_generated_from_the_flag_table() {
    let expectations: &[(&str, &[&str])] = &[
        ("paths", &["--language", "--max-length"]),
        ("generate", &["--files", "--seed"]),
        ("train", &["--out", "--shard", "--emit-partial"]),
        ("merge", &["--out"]),
        ("compile", &["--out", "--quantize"]),
        ("predict", &["--model", "--trace-out"]),
        ("serve", &["--model", "--cache-dir", "--lease-timeout-ms"]),
        ("coordinate", &["--cache-dir", "--lease-timeout-ms"]),
        ("work", &["--coordinator", "--poll-ms", "--exit-when-idle"]),
        ("experiment", &["--language", "--files"]),
        ("audit", &["--language"]),
    ];
    for (command, flags) in expectations {
        let out = pigeon().args([command, "--help"]).output().expect("runs");
        assert!(
            out.status.success(),
            "pigeon {command} --help failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains("USAGE") && stdout.contains("FLAGS"),
            "pigeon {command} --help: {stdout}"
        );
        for flag in *flags {
            assert!(
                stdout.contains(flag),
                "pigeon {command} --help must document {flag}: {stdout}"
            );
        }
    }
}
