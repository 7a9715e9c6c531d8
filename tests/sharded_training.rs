//! Sharded, resumable and incremental training through the facade:
//! shard-count invariance (byte-identical models for any `--shard n`),
//! checkpoint/resume determinism, partial-file robustness, and
//! incremental corpus updates.

use pigeon::corpus::{generate, CorpusConfig, Language};
use pigeon::crf::artifact::Quant;
use pigeon::crf::checkpoint::{decode_checkpoint, encode_checkpoint};
use pigeon::crf::TrainControl;
use pigeon::eval::ElementClass;
use pigeon::{Pigeon, PigeonConfig, TrainRun};
use std::cell::Cell;

fn corpus_sources(files: usize, seed: u64) -> Vec<String> {
    generate(
        Language::JavaScript,
        &CorpusConfig::default().with_files(files).with_seed(seed),
    )
    .docs
    .into_iter()
    .map(|d| d.source)
    .collect()
}

fn shard_and_merge(refs: &[&str], count: usize, config: &PigeonConfig) -> Pigeon {
    let parts: Vec<Vec<u8>> = (0..count)
        .map(|i| {
            Pigeon::build_training_partial(
                Language::JavaScript,
                ElementClass::Variable,
                refs,
                i,
                count,
                config,
            )
            .unwrap()
        })
        .collect();
    Pigeon::from_partials(&parts).unwrap()
}

#[test]
fn shard_count_invariance_is_byte_identical() {
    let sources = corpus_sources(40, 0x51AD_0001);
    let refs: Vec<&str> = sources.iter().map(String::as_str).collect();
    let config = PigeonConfig::default();
    let baseline = Pigeon::train_variable_namer(Language::JavaScript, &refs, &config)
        .unwrap()
        .to_json()
        .unwrap();
    // 40 documents in chunks of 4 leave shards 10–12 of 13 empty.
    for count in [1usize, 2, 4, 7, 13] {
        let merged = shard_and_merge(&refs, count, &config).to_json().unwrap();
        assert_eq!(
            merged, baseline,
            "merge of {count} shards differs from the single-process model"
        );
    }
}

#[test]
fn sharding_is_byte_identical_under_downsampling() {
    // Downsampling consumes the per-document rng; seeds derive from the
    // global document index, so a shard worker samples exactly as the
    // full run does.
    let sources = corpus_sources(30, 0x51AD_0002);
    let refs: Vec<&str> = sources.iter().map(String::as_str).collect();
    let config = PigeonConfig {
        keep_prob: 0.5,
        ..PigeonConfig::default()
    };
    let baseline = Pigeon::train_variable_namer(Language::JavaScript, &refs, &config)
        .unwrap()
        .to_json()
        .unwrap();
    for count in [1usize, 3] {
        let merged = shard_and_merge(&refs, count, &config).to_json().unwrap();
        assert_eq!(
            merged, baseline,
            "downsampled merge differs ({count} shards)"
        );
    }
}

#[test]
fn merge_rejects_partials_with_mismatched_configs_naming_the_knob() {
    let sources = corpus_sources(10, 0x51AD_0003);
    let refs: Vec<&str> = sources.iter().map(String::as_str).collect();
    let base = PigeonConfig::default();
    let wider = PigeonConfig {
        extraction: pigeon::core::ExtractionConfig::with_limits(5, 3),
        ..PigeonConfig::default()
    };
    let a = Pigeon::build_training_partial(
        Language::JavaScript,
        ElementClass::Variable,
        &refs,
        0,
        2,
        &base,
    )
    .unwrap();
    let b = Pigeon::build_training_partial(
        Language::JavaScript,
        ElementClass::Variable,
        &refs,
        1,
        2,
        &wider,
    )
    .unwrap();
    let err = Pigeon::from_partials(&[a, b]).unwrap_err();
    assert_eq!(err.code(), "config");
    assert!(
        err.message().contains("max_length"),
        "error must name the differing knob: {err}"
    );
}

#[test]
fn merge_rejects_incomplete_shard_sets() {
    let sources = corpus_sources(10, 0x51AD_0004);
    let refs: Vec<&str> = sources.iter().map(String::as_str).collect();
    let config = PigeonConfig::default();
    let only_first = Pigeon::build_training_partial(
        Language::JavaScript,
        ElementClass::Variable,
        &refs,
        0,
        3,
        &config,
    )
    .unwrap();
    let err = Pigeon::from_partials(&[only_first]).unwrap_err();
    assert_eq!(err.code(), "config");
    assert!(err.message().contains("missing"), "{err}");
}

#[test]
fn corrupt_partials_are_coded_errors_never_panics() {
    let sources = corpus_sources(8, 0x51AD_0005);
    let refs: Vec<&str> = sources.iter().map(String::as_str).collect();
    let bytes = Pigeon::build_training_partial(
        Language::JavaScript,
        ElementClass::Variable,
        &refs,
        0,
        1,
        &PigeonConfig::default(),
    )
    .unwrap();
    // Truncations at every interesting boundary.
    for len in [0, 3, 16, 27, 32, 63, bytes.len() / 2, bytes.len() - 1] {
        let err = Pigeon::from_partials(&[bytes[..len].to_vec()]).unwrap_err();
        assert_eq!(err.code(), "model-format", "truncation to {len}");
    }
    // Single-byte flips anywhere must be caught (checksums cover every
    // section) and classified, not panic.
    for i in (0..bytes.len()).step_by(11) {
        let mut bad = bytes.clone();
        bad[i] ^= 0x08;
        let err = Pigeon::from_partials(&[bad]).unwrap_err();
        assert_eq!(err.code(), "model-format", "flip at byte {i}");
    }
}

#[test]
fn interrupt_write_to_disk_and_resume_reproduces_the_model() {
    let sources = corpus_sources(25, 0x51AD_0006);
    let refs: Vec<&str> = sources.iter().map(String::as_str).collect();
    let config = PigeonConfig::default();
    let baseline = Pigeon::train_variable_namer(Language::JavaScript, &refs, &config)
        .unwrap()
        .to_json()
        .unwrap();

    // Interrupt mid-run via the polled hook (the CLI's SIGINT flag
    // drives the same closure), round-trip the state through the
    // on-disk checkpoint format, then resume to completion.
    let polls = Cell::new(0u32);
    let interrupt = || {
        polls.set(polls.get() + 1);
        polls.get() > 40
    };
    let run = Pigeon::train_namer_resumable(
        Language::JavaScript,
        ElementClass::Variable,
        &refs,
        &config,
        TrainControl {
            interrupt: Some(&interrupt),
            ..TrainControl::default()
        },
    )
    .unwrap();
    let state = match run {
        TrainRun::Interrupted(state) => state,
        TrainRun::Completed(_) => panic!("40 instances cannot cover 8 epochs over 25 docs"),
    };
    let file = std::env::temp_dir().join(format!("pigeon-ckpt-{}.pgnc", std::process::id()));
    std::fs::write(&file, encode_checkpoint(&state)).unwrap();
    let restored = decode_checkpoint(&std::fs::read(&file).unwrap()).unwrap();
    let _ = std::fs::remove_file(&file);

    let resumed = Pigeon::train_namer_resumable(
        Language::JavaScript,
        ElementClass::Variable,
        &refs,
        &config,
        TrainControl {
            resume: Some(restored),
            ..TrainControl::default()
        },
    )
    .unwrap();
    match resumed {
        TrainRun::Completed(model) => assert_eq!(
            model.to_json().unwrap(),
            baseline,
            "resumed model differs from the uninterrupted run"
        ),
        TrainRun::Interrupted(_) => panic!("resume without an interrupt hook must complete"),
    }
}

#[test]
fn resume_rejects_a_checkpoint_from_another_corpus() {
    let sources = corpus_sources(12, 0x51AD_0007);
    let refs: Vec<&str> = sources.iter().map(String::as_str).collect();
    let config = PigeonConfig::default();
    let polls = Cell::new(0u32);
    let interrupt = || {
        polls.set(polls.get() + 1);
        polls.get() > 5
    };
    let run = Pigeon::train_namer_resumable(
        Language::JavaScript,
        ElementClass::Variable,
        &refs,
        &config,
        TrainControl {
            interrupt: Some(&interrupt),
            ..TrainControl::default()
        },
    )
    .unwrap();
    let TrainRun::Interrupted(state) = run else {
        panic!("expected an interrupt");
    };
    let other = corpus_sources(13, 0x51AD_0008);
    let other_refs: Vec<&str> = other.iter().map(String::as_str).collect();
    let err = Pigeon::train_namer_resumable(
        Language::JavaScript,
        ElementClass::Variable,
        &other_refs,
        &config,
        TrainControl {
            resume: Some(*state),
            ..TrainControl::default()
        },
    )
    .unwrap_err();
    assert_eq!(err.code(), "config");
    assert!(err.message().contains("checkpoint"), "{err}");
}

#[test]
fn incremental_update_folds_new_documents_deterministically() {
    let base_sources = corpus_sources(30, 0x51AD_0009);
    let base_refs: Vec<&str> = base_sources.iter().map(String::as_str).collect();
    let base =
        Pigeon::train_variable_namer(Language::JavaScript, &base_refs, &PigeonConfig::default())
            .unwrap();
    let base_labels = base.vocabs().labels.len();

    let new_sources = corpus_sources(10, 0xD00D_0001);
    let new_refs: Vec<&str> = new_sources.iter().map(String::as_str).collect();
    let updated = base.update(&new_refs).unwrap();
    // New documents can only grow the vocabularies.
    assert!(updated.vocabs().labels.len() >= base_labels);
    // The update is deterministic: folding the same documents twice
    // yields the same model file.
    let again = base.update(&new_refs).unwrap();
    assert_eq!(updated.to_json().unwrap(), again.to_json().unwrap());
    // And the result still predicts on unseen programs.
    let query = "function f() { var d = false; while (!d) { if (go()) { d = true; } } }";
    assert!(!updated.predict(query).unwrap().is_empty());
}

#[test]
fn artifact_backed_models_refuse_incremental_update() {
    let sources = corpus_sources(15, 0x51AD_000A);
    let refs: Vec<&str> = sources.iter().map(String::as_str).collect();
    let trained =
        Pigeon::train_variable_namer(Language::JavaScript, &refs, &PigeonConfig::default())
            .unwrap();
    let compiled = Pigeon::load(&trained.to_artifact(Quant::F32).unwrap()).unwrap();
    let err = compiled.update(&refs[..2]).unwrap_err();
    assert_eq!(err.code(), "config");
}

/// The model-JSON hashes of every facade trainer, recorded before the
/// trainers shared one per-document stage and one replay: plain
/// training at jobs 1 and 4, method names, data-flow contexts under
/// downsampling, an incremental update, and an interrupted then resumed
/// run. Any drift in extraction, downsampling, interning, statistics or
/// SGD shows up here as a changed constant.
#[test]
fn facade_trainers_match_pinned_hashes() {
    let js = Language::JavaScript;
    let sources = corpus_sources(24, 0x51AD_000B);
    let refs: Vec<&str> = sources.iter().map(String::as_str).collect();
    let added = corpus_sources(6, 0xD00D_0002);
    let added_refs: Vec<&str> = added.iter().map(String::as_str).collect();
    let hash = |model: &Pigeon| pigeon::core::fnv64(model.to_json().unwrap().as_bytes());
    let serial = PigeonConfig::default();
    let parallel = PigeonConfig::builder().jobs(4).build().unwrap();
    let flow = PigeonConfig::builder()
        .dataflow_contexts(true)
        .keep_prob(0.5)
        .build()
        .unwrap();

    let base = Pigeon::train_variable_namer(js, &refs, &serial).unwrap();
    let polls = Cell::new(0u32);
    let interrupt = || {
        polls.set(polls.get() + 1);
        polls.get() > 30
    };
    let run = |control| {
        Pigeon::train_namer_resumable(js, ElementClass::Method, &refs, &serial, control).unwrap()
    };
    let TrainRun::Interrupted(state) = run(TrainControl {
        interrupt: Some(&interrupt),
        ..TrainControl::default()
    }) else {
        panic!("30 instances cannot cover 8 epochs over 24 docs");
    };
    let TrainRun::Completed(resumed) = run(TrainControl {
        resume: Some(*state),
        ..TrainControl::default()
    }) else {
        panic!("resume without an interrupt hook must complete");
    };

    let got = [
        ("variables, jobs 1", hash(&base)),
        (
            "variables, jobs 4",
            hash(&Pigeon::train_variable_namer(js, &refs, &parallel).unwrap()),
        ),
        (
            "methods",
            hash(&Pigeon::train_method_namer(js, &refs, &serial).unwrap()),
        ),
        (
            "data-flow contexts, keep_prob 0.5",
            hash(&Pigeon::train_variable_namer(js, &refs, &flow).unwrap()),
        ),
        ("update", hash(&base.update(&added_refs).unwrap())),
        ("methods, interrupted and resumed", hash(&resumed)),
    ];
    let want = [
        ("variables, jobs 1", 1489314818857980224),
        ("variables, jobs 4", 1489314818857980224),
        ("methods", 9085611626340182489),
        ("data-flow contexts, keep_prob 0.5", 10663363757289047338),
        ("update", 1493387300085329800),
        ("methods, interrupted and resumed", 9085611626340182489),
    ];
    assert_eq!(got, want);
}

/// A partial holds exactly its shard's documents: the honest partials
/// merge to one model in any order, while a shard-0 partial relabelled
/// as shard 1 and a partial in the layout of an older build (which also
/// stored per-document statistics) are `model-format` errors.
#[test]
fn forged_and_older_partials_are_refused() {
    use pigeon::eval::partial::{decode_partial, encode_partial};

    let sources = corpus_sources(16, 0x51AD_000C);
    let refs: Vec<&str> = sources.iter().map(String::as_str).collect();
    let config = PigeonConfig::default();
    let parts: Vec<Vec<u8>> = (0..2)
        .map(|i| {
            Pigeon::build_training_partial(
                Language::JavaScript,
                ElementClass::Variable,
                &refs,
                i,
                2,
                &config,
            )
            .unwrap()
        })
        .collect();
    let merge = |parts: &[Vec<u8>]| Pigeon::from_partials(parts).map(|m| m.to_json().unwrap());
    let honest = merge(&parts).unwrap();
    assert!(merge(&[parts[1].clone(), parts[0].clone()]).unwrap() == honest);

    let mut relabelled = decode_partial(&parts[0]).unwrap();
    relabelled.meta.shard_index = 1;
    let err = merge(&[parts[0].clone(), encode_partial(&relabelled)]).unwrap_err();
    assert_eq!(err.code(), "model-format", "{err}");
    assert!(err.message().contains("must hold documents"), "{err}");

    let older = std::fs::read(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/older-layout-shard-0-of-1.part"
    ))
    .unwrap();
    let err = merge(&[older]).unwrap_err();
    assert_eq!(err.code(), "model-format", "{err}");
    assert!(err.message().contains("older build"), "{err}");
}
