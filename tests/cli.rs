//! Integration tests for the `pigeon` CLI binary.

use std::process::Command;

fn pigeon() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pigeon"))
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("pigeon-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn help_lists_every_command() {
    let out = pigeon().arg("help").output().expect("runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for cmd in [
        "paths",
        "generate",
        "train",
        "compile",
        "predict",
        "experiment",
        "serve",
    ] {
        assert!(text.contains(cmd), "help is missing `{cmd}`");
    }
}

/// Regression: flags used to be parsed permissively, so a typo like
/// `--max-legnth` was silently dropped and the default limit used
/// instead. Every subcommand must now reject flags it does not know.
#[test]
fn unknown_flags_are_rejected_not_ignored() {
    let cases: &[&[&str]] = &[
        &["paths", "--language", "js", "--max-legnth", "4", "x.js"],
        &["generate", "--language", "js", "--fils", "10", "/tmp/never"],
        &[
            "train",
            "--language",
            "js",
            "--output",
            "/tmp/never.json",
            "x.js",
        ],
        &["predict", "--model", "m.json", "--jobs", "2", "x.js"],
        &["experiment", "--language", "js", "--flies", "40"],
        &["serve", "--model", "m.json", "--prot", "8080"],
    ];
    for args in cases {
        let out = pigeon().args(*args).output().expect("runs");
        assert!(!out.status.success(), "accepted: {args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("unknown flag") && err.contains("allowed:"),
            "unhelpful error for {args:?}: {err}"
        );
    }
}

#[test]
fn unknown_command_fails_with_message() {
    let out = pigeon().arg("frobnicate").output().expect("runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown command"));
}

/// `pigeon paths` and `pigeon experiment` take their path limits through
/// `PigeonConfigBuilder`, as every trained predictor does: an over-bound
/// limit is its `config` message and exit 1, not a run whose cost grows
/// with the limit.
#[test]
fn local_tools_reject_over_bound_path_limits() {
    let dir = tmp_dir("local-limits");
    let file = dir.join("one.js");
    std::fs::write(&file, "function f(a) { var b = a + 1; return b; }").unwrap();
    for (limit, value, message) in [
        ("--max-length", "1000000", "max_length must be at most 16"),
        ("--max-width", "9", "max_width must be at most 8"),
    ] {
        let paths = pigeon()
            .args(["paths", "--language", "js", limit, value])
            .arg(&file)
            .output()
            .expect("runs");
        let experiment = pigeon()
            .args([
                "experiment",
                "--language",
                "js",
                "--files",
                "10",
                limit,
                value,
            ])
            .output()
            .expect("runs");
        for (command, out) in [("paths", paths), ("experiment", experiment)] {
            assert_eq!(out.status.code(), Some(1), "{command} {limit} {value}");
            let err = String::from_utf8_lossy(&out.stderr);
            assert!(err.contains(message), "{command} {limit} {value}: {err}");
        }
    }
}

#[test]
fn paths_prints_the_fig1_path() {
    let dir = tmp_dir("paths");
    let file = dir.join("fig1.js");
    std::fs::write(&file, "while (!d) { if (someCondition()) { d = true; } }").unwrap();
    let out = pigeon()
        .args(["paths", "--language", "js"])
        .arg(&file)
        .output()
        .expect("runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("⟨d, SymbolRef ↑ UnaryPrefix! ↑ While ↓ If ↓ Assign= ↓ SymbolRef, d⟩"),
        "missing headline path in:\n{text}"
    );
}

#[test]
fn generate_train_predict_round_trip() {
    let dir = tmp_dir("pipeline");
    let corpus_dir = dir.join("corpus");
    let model = dir.join("model.json");
    let query = dir.join("query.js");

    let out = pigeon()
        .args(["generate", "--language", "js", "--files", "120"])
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
    assert!(model.exists());

    std::fs::write(
        &query,
        "function f(a, b, c) { b.open('GET', a, false); b.send(c); }",
    )
    .unwrap();
    let out = pigeon()
        .args(["predict", "--model"])
        .arg(&model)
        .arg(&query)
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    // Three parameters predicted, each with candidates.
    assert_eq!(text.lines().count(), 3, "unexpected output:\n{text}");
    assert!(text.contains("top:"));
}

/// `pigeon compile` freezes a JSON model into the binary artifact;
/// `predict` and `audit` consume it interchangeably with the JSON, and
/// quantized variants keep the same decisions.
#[test]
fn compile_predict_audit_round_trip() {
    let dir = tmp_dir("compile");
    let model = dir.join("model.json");
    let artifact = dir.join("model.pgnc");
    let query = dir.join("query.js");

    let out = pigeon()
        .args(["train", "--language", "js", "--synthetic", "120", "--out"])
        .arg(&model)
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = pigeon()
        .args(["compile", "--out"])
        .arg(&artifact)
        .arg(&model)
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("f32 quantization"), "{text}");
    let bytes = std::fs::read(&artifact).expect("artifact written");
    assert_eq!(&bytes[..4], b"PGNC");

    // Predictions through the artifact match the JSON model exactly.
    std::fs::write(
        &query,
        "function f(a, b, c) { b.open('GET', a, false); b.send(c); }",
    )
    .unwrap();
    let predict = |model_path: &std::path::Path| {
        let out = pigeon()
            .args(["predict", "--model"])
            .arg(model_path)
            .arg(&query)
            .output()
            .expect("runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let from_json = predict(&model);
    assert_eq!(from_json, predict(&artifact));

    // The decision column: one predicted name per element. Quantization
    // may swap near-tied candidates deep in the top-k list, but the
    // chosen name must never move.
    let decisions = |stdout: &str| -> Vec<String> {
        stdout
            .lines()
            .map(|l| {
                l.split('→')
                    .nth(1)
                    .expect("prediction line")
                    .split('(')
                    .next()
                    .expect("name column")
                    .trim()
                    .to_owned()
            })
            .collect()
    };

    // Quantized artifacts keep the decisions; recompiling an artifact
    // (format sniffed on input) is byte-identical.
    for quant in ["f16", "i8"] {
        let quantized = dir.join(format!("model-{quant}.pgnc"));
        let out = pigeon()
            .args(["compile", "--quantize", quant, "--out"])
            .arg(&quantized)
            .arg(&model)
            .output()
            .expect("runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(
            decisions(&from_json),
            decisions(&predict(&quantized)),
            "{quant} changed decisions"
        );

        let recompiled = dir.join(format!("model-{quant}-2.pgnc"));
        let out = pigeon()
            .args(["compile", "--quantize", quant, "--out"])
            .arg(&recompiled)
            .arg(&quantized)
            .output()
            .expect("runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(
            std::fs::read(&quantized).unwrap(),
            std::fs::read(&recompiled).unwrap(),
            "{quant} recompile diverged"
        );
    }

    // `audit --model` understands the binary format.
    let out = pigeon()
        .args(["audit", "--model"])
        .arg(&artifact)
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("artifact-layout"), "{text}");
    assert!(text.contains("checksums verified"), "{text}");

    // A corrupted artifact audits to a hard error, exit code 2.
    let mut tampered = bytes.clone();
    let mid = tampered.len() / 2;
    tampered[mid] ^= 0x10;
    let bad = dir.join("tampered.pgnc");
    std::fs::write(&bad, &tampered).unwrap();
    let out = pigeon()
        .args(["audit", "--model"])
        .arg(&bad)
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("artifact-format"), "{text}");

    // Unknown quantization names are rejected up front.
    let out = pigeon()
        .args(["compile", "--quantize", "f8", "--out"])
        .arg(&artifact)
        .arg(&model)
        .output()
        .expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown quantization"));
}

#[test]
fn predict_with_missing_model_fails_cleanly() {
    let out = pigeon()
        .args(["predict", "--model", "/nonexistent/model.json", "x.js"])
        .output()
        .expect("runs");
    assert!(!out.status.success());
}

/// `pigeon serve` needs something to serve: a model, a partial cache to
/// coordinate, or both. With neither it exits non-zero naming both.
#[test]
fn serve_requires_a_model_or_a_cache_dir() {
    let out = pigeon()
        .args(["serve", "--port", "0", "--idle-timeout", "1"])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--model") && stderr.contains("--cache-dir"),
        "{stderr}"
    );
}

#[test]
fn train_requires_sources() {
    let out = pigeon()
        .args(["train", "--language", "js", "--out", "/tmp/never.json"])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--synthetic"));
}

#[test]
fn shard_merge_matches_direct_train_byte_for_byte() {
    let dir = tmp_dir("shard");
    let direct = dir.join("direct.json");
    let merged = dir.join("merged.json");

    // The synthetic corpus is deterministic for a given --language and
    // --synthetic N, so every shard worker sees the same corpus — the
    // contract `pigeon merge` documents.
    let out = pigeon()
        .args(["train", "--language", "js", "--synthetic", "60", "--out"])
        .arg(&direct)
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let mut parts = Vec::new();
    for i in 0..3 {
        let part = dir.join(format!("stats{i}.part"));
        let out = pigeon()
            .args([
                "train",
                "--language",
                "js",
                "--synthetic",
                "60",
                "--shard",
                &format!("{i}/3"),
                "--emit-partial",
            ])
            .arg(&part)
            .output()
            .expect("runs");
        assert!(
            out.status.success(),
            "shard {i}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(&std::fs::read(&part).unwrap()[..4], b"PGNC");
        parts.push(part);
    }

    let out = pigeon()
        .args(["merge", "--out"])
        .arg(&merged)
        .args(&parts)
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        std::fs::read(&direct).unwrap(),
        std::fs::read(&merged).unwrap(),
        "merged model differs from the single-process model"
    );
}

#[test]
fn shard_flags_validate_their_combinations() {
    let out = pigeon()
        .args([
            "train",
            "--language",
            "js",
            "--synthetic",
            "10",
            "--shard",
            "0/2",
            "--out",
            "/tmp/never.json",
        ])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--emit-partial"));

    let out = pigeon()
        .args([
            "train",
            "--language",
            "js",
            "--synthetic",
            "10",
            "--shard",
            "2/2",
            "--emit-partial",
            "/tmp/never.part",
            "--out",
            "/tmp/never.json",
        ])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("out of range"));
}

#[test]
fn merge_rejects_partials_from_different_configs() {
    let dir = tmp_dir("merge-mismatch");
    let a = dir.join("a.part");
    let b = dir.join("b.part");
    for (part, max_length, shard) in [(&a, "4", "0/2"), (&b, "5", "1/2")] {
        let out = pigeon()
            .args([
                "train",
                "--language",
                "js",
                "--synthetic",
                "12",
                "--max-length",
                max_length,
                "--shard",
                shard,
                "--emit-partial",
            ])
            .arg(part)
            .args(["--out", "/tmp/unused.json"])
            .output()
            .expect("runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let out = pigeon()
        .args(["merge", "--out"])
        .arg(dir.join("never.json"))
        .arg(&a)
        .arg(&b)
        .output()
        .expect("runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("max_length"), "must name the knob: {err}");
}

#[test]
fn checkpointed_training_matches_plain_training_and_cleans_up() {
    let dir = tmp_dir("ckpt");
    let plain = dir.join("plain.json");
    let checkpointed = dir.join("checkpointed.json");
    let ckdir = dir.join("checkpoints");

    let out = pigeon()
        .args(["train", "--language", "js", "--synthetic", "40", "--out"])
        .arg(&plain)
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = pigeon()
        .args([
            "train",
            "--language",
            "js",
            "--synthetic",
            "40",
            "--checkpoint-every",
            "2",
            "--checkpoint-dir",
        ])
        .arg(&ckdir)
        .arg("--out")
        .arg(&checkpointed)
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The checkpointed path produces the identical model…
    assert_eq!(
        std::fs::read(&plain).unwrap(),
        std::fs::read(&checkpointed).unwrap()
    );
    // …and a completed run removes its snapshot so a later --resume
    // cannot silently restart a finished run.
    assert!(!ckdir.join("checkpoint.pgnc").exists());
}

#[test]
fn audit_lints_partials_and_rejects_corrupt_ones() {
    let dir = tmp_dir("audit-partial");
    let part = dir.join("stats.part");
    let out = pigeon()
        .args([
            "train",
            "--language",
            "js",
            "--synthetic",
            "12",
            "--shard",
            "0/2",
            "--emit-partial",
        ])
        .arg(&part)
        .args(["--out", "/tmp/unused.json"])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = pigeon()
        .args(["audit", "--model"])
        .arg(&part)
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "clean partial must audit clean: {}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("shard 0/2"), "{text}");

    // A flipped byte must be denied (exit 2), not crash.
    let mut bytes = std::fs::read(&part).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    let bad = dir.join("bad.part");
    std::fs::write(&bad, &bytes).unwrap();
    let out = pigeon()
        .args(["audit", "--model"])
        .arg(&bad)
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2), "corrupt partial must be denied");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("partial-load"), "{text}");
}

#[test]
fn update_folds_new_documents_without_the_original_corpus() {
    let dir = tmp_dir("update");
    let base = dir.join("base.json");
    let updated = dir.join("updated.json");
    let new_docs = dir.join("new");

    let out = pigeon()
        .args(["train", "--language", "js", "--synthetic", "40", "--out"])
        .arg(&base)
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = pigeon()
        .args([
            "generate",
            "--language",
            "js",
            "--files",
            "8",
            "--seed",
            "424242",
        ])
        .arg(&new_docs)
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = pigeon()
        .args(["train", "--update"])
        .arg(&base)
        .arg("--add")
        .arg(&new_docs)
        .arg("--out")
        .arg(&updated)
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("folded 8 new files"), "{text}");
    assert_ne!(
        std::fs::read(&base).unwrap(),
        std::fs::read(&updated).unwrap()
    );
    // The updated model still loads and predicts.
    let query = dir.join("q.js");
    std::fs::write(&query, "function f() { var d = 0; d = d + 1; }").unwrap();
    let out = pigeon()
        .args(["predict", "--model"])
        .arg(&updated)
        .arg(&query)
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// SIGINT during `pigeon train` must write a final checkpoint and exit
/// cleanly; resuming completes to the same model as an uninterrupted
/// run. Timing-tolerant: if training finishes before the signal lands,
/// the test still asserts model equality.
#[cfg(unix)]
#[test]
fn sigint_writes_a_final_checkpoint_and_resume_completes() {
    use std::process::Stdio;

    let dir = tmp_dir("sigint");
    let baseline = dir.join("baseline.json");
    let model = dir.join("model.json");
    let ckdir = dir.join("ck");

    let out = pigeon()
        .args(["train", "--language", "js", "--synthetic", "150", "--out"])
        .arg(&baseline)
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let mut child = pigeon()
        .args([
            "train",
            "--language",
            "js",
            "--synthetic",
            "150",
            "--checkpoint-dir",
        ])
        .arg(&ckdir)
        .arg("--out")
        .arg(&model)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawns");
    std::thread::sleep(std::time::Duration::from_millis(400));
    let _ = std::process::Command::new("kill")
        .args(["-INT", &child.id().to_string()])
        .status();
    let status = child.wait().expect("waits");
    assert!(status.success(), "interrupted train must exit cleanly");

    if ckdir.join("checkpoint.pgnc").exists() {
        // Interrupted mid-run: resume against the same corpus + flags.
        let out = pigeon()
            .args([
                "train",
                "--language",
                "js",
                "--synthetic",
                "150",
                "--resume",
            ])
            .arg(&ckdir)
            .arg("--out")
            .arg(&model)
            .output()
            .expect("runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    assert_eq!(
        std::fs::read(&baseline).unwrap(),
        std::fs::read(&model).unwrap(),
        "kill-and-resume must reproduce the uninterrupted model"
    );
}
