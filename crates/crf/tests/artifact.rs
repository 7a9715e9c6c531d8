//! The compiled binary artifact: byte-identity round-trips, decision
//! identity against the f64-trained reference (including under f16/i8
//! quantization), and corruption fuzzing — truncation, header
//! tampering, flipped section lengths, and bit flips must all surface
//! as coded errors, never panics.

use pigeon_crf::artifact::{
    checksum, file_checksum, is_artifact, read_artifact, write_artifact, ArtifactMeta, Quant,
    Reader, Writer, HEADER_LEN, MAGIC, SEC_CAPS, SEC_CK_PAIR_SUM, SEC_CK_UNARY_SUM,
    SEC_PAIR_WEIGHTS, TABLE_ENTRY_LEN,
};
use pigeon_crf::checkpoint::{decode_checkpoint, encode_checkpoint};
use pigeon_crf::{
    train, train_resumable, CrfConfig, CrfModel, Instance, Node, TrainControl, TrainOutcome,
    TrainState, MAX_CANDIDATES_BOUND,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const NUM_LABELS: u32 = 6;
const NUM_FEATURES: usize = 128;

/// A deterministic trained model with pair weights, unary weights and a
/// populated candidate index — every section of the artifact non-empty.
fn trained() -> (CrfModel, Vec<Instance>) {
    let mut rng = SmallRng::seed_from_u64(7);
    let instances: Vec<Instance> = (0..150)
        .map(|_| {
            let path = rng.gen_range(0..8u32);
            let mut inst = Instance::new(vec![Node::unknown(path % 4), Node::known(4 + path % 2)]);
            inst.add_pair(0, 1, path);
            inst.add_unary(0, 100 + path);
            inst
        })
        .collect();
    let model = train(&instances, NUM_LABELS, &CrfConfig::default());
    (model, instances)
}

fn meta() -> ArtifactMeta {
    ArtifactMeta {
        language: "js".to_owned(),
        target: "variables".to_owned(),
        abstraction: "full".to_owned(),
        max_length: 7,
        max_width: 3,
        semi_paths: true,
        top_k: 5,
        dataflow_contexts: false,
    }
}

fn vocab(prefix: &str, n: usize) -> Vec<String> {
    (0..n).map(|i| format!("{prefix}{i}")).collect()
}

fn compile(model: &CrfModel, quant: Quant) -> Vec<u8> {
    write_artifact(
        &meta(),
        &vocab("label", NUM_LABELS as usize),
        &vocab("feature", NUM_FEATURES),
        model,
        quant,
    )
    .expect("trained model compiles")
}

/// Rewrites the payload of one section in place, then repairs the
/// section and file checksums so the *semantic* validation — not the
/// integrity check — is what rejects the tampered bytes.
fn patch_section(bytes: &mut [u8], id: u32, patch: impl FnOnce(&mut [u8])) {
    let count = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    let entry = (0..count)
        .map(|i| HEADER_LEN + i * TABLE_ENTRY_LEN)
        .find(|&e| u32::from_le_bytes(bytes[e..e + 4].try_into().unwrap()) == id)
        .expect("section present");
    let off = u64::from_le_bytes(bytes[entry + 8..entry + 16].try_into().unwrap()) as usize;
    let len = u64::from_le_bytes(bytes[entry + 16..entry + 24].try_into().unwrap()) as usize;
    patch(&mut bytes[off..off + len]);
    let sum = checksum(&bytes[off..off + len]);
    bytes[entry + 24..entry + 32].copy_from_slice(&sum.to_le_bytes());
    let fsum = file_checksum(bytes);
    bytes[16..24].copy_from_slice(&fsum.to_le_bytes());
}

#[test]
fn round_trip_is_byte_identical_for_every_quantization() {
    let (model, _) = trained();
    for quant in [Quant::F32, Quant::F16, Quant::I8] {
        let bytes = compile(&model, quant);
        assert!(is_artifact(&bytes));
        let art = read_artifact(&bytes).expect("fresh artifact loads");
        assert!(
            !art.model.has_candidate_counts(),
            "artifacts ship no counts"
        );
        assert_eq!(art.quant, quant);
        assert_eq!(art.meta, meta());
        assert_eq!(art.labels, vocab("label", NUM_LABELS as usize));
        assert_eq!(art.features, vocab("feature", NUM_FEATURES));
        // Recompiling the loaded model reproduces the file exactly:
        // nothing is lost or renormalised on the way through.
        let again = write_artifact(&art.meta, &art.labels, &art.features, &art.model, quant)
            .expect("loaded model recompiles");
        assert_eq!(bytes, again, "{quant:?} recompile diverged");
    }
}

#[test]
fn artifact_predictions_match_the_reference_for_every_quantization() {
    let (model, instances) = trained();
    for quant in [Quant::F32, Quant::F16, Quant::I8] {
        let art = read_artifact(&compile(&model, quant)).expect("loads");
        for inst in &instances {
            assert_eq!(
                art.model.predict(inst),
                model.predict(inst),
                "{quant:?} changed a decision"
            );
        }
    }
}

#[test]
fn every_truncation_is_a_coded_error_not_a_panic() {
    let (model, _) = trained();
    let bytes = compile(&model, Quant::I8);
    for len in 0..bytes.len() {
        let err = read_artifact(&bytes[..len]).expect_err("truncated file must not load");
        assert!(!err.is_empty(), "error at length {len} carries no message");
    }
}

#[test]
fn every_single_byte_flip_is_detected() {
    let (model, _) = trained();
    let bytes = compile(&model, Quant::F32);
    for i in 0..bytes.len() {
        let mut tampered = bytes.clone();
        tampered[i] ^= 0xff;
        assert!(
            read_artifact(&tampered).is_err(),
            "flip at byte {i} went undetected"
        );
    }
}

#[test]
fn header_tampering_is_rejected() {
    let (model, _) = trained();
    let bytes = compile(&model, Quant::F32);

    let mut bad_magic = bytes.clone();
    bad_magic[..4].copy_from_slice(b"NOPE");
    assert!(!is_artifact(&bad_magic));
    let err = read_artifact(&bad_magic).unwrap_err();
    assert!(err.contains("magic"), "unexpected error: {err}");

    // An unsupported version, with the file checksum repaired so the
    // version check itself fires.
    let mut future = bytes.clone();
    future[4..8].copy_from_slice(&99u32.to_le_bytes());
    let sum = file_checksum(&future);
    future[16..24].copy_from_slice(&sum.to_le_bytes());
    let err = read_artifact(&future).unwrap_err();
    assert!(err.contains("version"), "unexpected error: {err}");
}

#[test]
fn flipped_section_length_is_rejected() {
    let (model, _) = trained();
    let bytes = compile(&model, Quant::F32);
    // Inflate the first section's recorded length past the end of the
    // file; repair the file checksum so the bounds check is what fires.
    let mut tampered = bytes.clone();
    let len_at = HEADER_LEN + 16;
    tampered[len_at..len_at + 8].copy_from_slice(&(bytes.len() as u64).to_le_bytes());
    let sum = file_checksum(&tampered);
    tampered[16..24].copy_from_slice(&sum.to_le_bytes());
    let err = read_artifact(&tampered).unwrap_err();
    assert!(
        err.contains("outside") || err.contains("beyond") || err.contains("overlap"),
        "unexpected error: {err}"
    );
}

#[test]
fn out_of_bound_caps_are_rejected_even_with_valid_checksums() {
    let (model, _) = trained();
    let mut bytes = compile(&model, Quant::F32);
    patch_section(&mut bytes, SEC_CAPS, |caps| {
        let huge = (MAX_CANDIDATES_BOUND as u64 + 1).to_le_bytes();
        caps[..8].copy_from_slice(&huge);
    });
    let err = read_artifact(&bytes).unwrap_err();
    assert!(err.contains("max_candidates"), "unexpected error: {err}");
}

#[test]
fn artifact_backed_models_refuse_json_serialisation() {
    // The artifact ships no candidate counts, and JSON needs them.
    let (model, _) = trained();
    let art = read_artifact(&compile(&model, Quant::F32)).expect("loads");
    let err = art.model.to_json().unwrap_err();
    assert!(
        err.to_string()
            .contains("no candidate co-occurrence counts"),
        "unexpected: {err}"
    );
}

#[test]
fn junk_is_not_an_artifact() {
    assert!(!is_artifact(b""));
    assert!(!is_artifact(b"{\"pair_weights\": []}"));
    assert!(is_artifact(&MAGIC));
    assert!(read_artifact(&MAGIC).is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Quantized artifacts are decision-identical to the f64-trained
    /// reference on arbitrary trained models, not just the fixed
    /// fixture: per-path power-of-two scales keep the ICM argmax stable.
    #[test]
    fn quantized_decisions_match_the_reference(seed in 0u64..1000, quant_i8 in any::<bool>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let instances: Vec<Instance> = (0..40)
            .map(|_| {
                let path = rng.gen_range(0..8u32);
                let mut inst =
                    Instance::new(vec![Node::unknown(path % 4), Node::known(4 + path % 2)]);
                inst.add_pair(0, 1, path);
                inst.add_unary(0, 100 + path);
                inst
            })
            .collect();
        let model = train(&instances, NUM_LABELS, &CrfConfig::default());
        let quant = if quant_i8 { Quant::I8 } else { Quant::F16 };
        let art = read_artifact(&compile(&model, quant)).expect("loads");
        for inst in &instances {
            prop_assert_eq!(art.model.predict(inst), model.predict(inst));
        }
    }

    /// Arbitrary leading garbage never panics the loader.
    #[test]
    fn random_bytes_never_panic_the_loader(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = read_artifact(&bytes);
        let mut magicked = MAGIC.to_vec();
        magicked.extend_from_slice(&bytes);
        let _ = read_artifact(&magicked);
    }
}

#[test]
fn duplicate_json_entries_name_the_first_duplicate() {
    let base = r#"{"label_counts": [1, 1], "global_candidates": [0],
        "max_candidates": 4, "max_passes": 4, "candidates": []"#;
    let json = format!(
        r#"{base}, "unary_weights": [],
           "pair_weights": [[3, 0, 1, 0.5], [3, 0, 1, -0.5]]}}"#
    );
    let err = CrfModel::from_json(&json, 4, 2).unwrap_err().to_string();
    assert!(
        err.contains("duplicate pairwise weight entry (path 3, labels 0/1)"),
        "unexpected: {err}"
    );

    let json = format!(
        r#"{base}, "pair_weights": [],
           "unary_weights": [[2, 1, 0.5], [2, 1, 0.25]]}}"#
    );
    let err = CrfModel::from_json(&json, 4, 2).unwrap_err().to_string();
    assert!(
        err.contains("duplicate unary weight entry (path 2, label 1)"),
        "unexpected: {err}"
    );

    let json = r#"{"label_counts": [1, 1], "global_candidates": [0],
        "max_candidates": 4, "max_passes": 4, "pair_weights": [], "unary_weights": [],
        "candidates": [[1, 0, 0, [[1, 2]]], [1, 0, 0, [[0, 1]]]]}"#;
    let err = CrfModel::from_json(json, 4, 2).unwrap_err().to_string();
    assert!(
        err.contains("duplicate candidate entry (path 1, label 0, side 0)"),
        "unexpected: {err}"
    );
}

#[test]
fn json_caps_beyond_the_bound_are_rejected() {
    let json = format!(
        r#"{{"pair_weights": [], "unary_weights": [], "label_counts": [],
            "candidates": [], "global_candidates": [],
            "max_candidates": {}, "max_passes": 1}}"#,
        MAX_CANDIDATES_BOUND + 1
    );
    let err = CrfModel::from_json(&json, 0, 0).unwrap_err().to_string();
    assert!(err.contains("max_candidates"), "unexpected: {err}");
}

#[test]
fn short_quantized_weight_sections_are_errors_not_panics() {
    // A consistent container (fresh checksums) whose i8 weight section
    // holds fewer bytes than the offsets index describes.
    let (model, _) = trained();
    let bytes = compile(&model, Quant::I8);
    let r = Reader::parse(&bytes).unwrap();
    let mut w = Writer::new();
    for s in r.sections() {
        let mut payload = r.section(s.id).unwrap().to_vec();
        if s.id == SEC_PAIR_WEIGHTS {
            payload.pop();
        }
        w.section(s.id, payload);
    }
    let err = read_artifact(&w.finish(Quant::I8)).unwrap_err();
    assert!(err.contains("pair-weights"), "unexpected: {err}");
}

#[test]
fn forged_checkpoint_ids_are_errors_not_aborts() {
    // A real epoch-boundary checkpoint of the `trained()` corpus.
    let (_, instances) = trained();
    let cfg = CrfConfig::default();
    let mut saved = Vec::new();
    let mut keep = |state: &TrainState| saved = encode_checkpoint(state);
    let outcome = train_resumable(
        &instances,
        NUM_LABELS,
        &cfg,
        TrainControl {
            checkpoint_every: 1,
            on_checkpoint: Some(&mut keep),
            ..TrainControl::default()
        },
    );
    assert!(matches!(outcome, Ok(TrainOutcome::Completed(_))));
    assert!(!saved.is_empty(), "no checkpoint was taken");

    let resume = |bytes: &[u8]| {
        let state = decode_checkpoint(bytes).expect("checksums are consistent");
        let control = TrainControl {
            resume: Some(state),
            ..TrainControl::default()
        };
        train_resumable(&instances, NUM_LABELS, &cfg, control).map(|_| ())
    };
    resume(&saved).expect("the untouched checkpoint resumes");

    // Each forgery raises one `u32` field of a section's last entry,
    // which keeps the entries sorted: the `ck-pair-sum` path id (resumed
    // unchecked, it would size the per-path buckets at about 100 GB), its
    // second label, and the `ck-unary-sum` label. `from_end` locates the
    // field from the end of the payload (24- and 16-byte entries).
    let forgeries: [(u32, usize, u32, &str); 3] = [
        (SEC_CK_PAIR_SUM, 24, u32::MAX - 1, "names path id"),
        (SEC_CK_PAIR_SUM, 16, NUM_LABELS, "names label 6"),
        (SEC_CK_UNARY_SUM, 12, u32::MAX - 1, "names label"),
    ];
    for (section, from_end, value, what) in forgeries {
        let mut bytes = saved.clone();
        patch_section(&mut bytes, section, |payload| {
            let at = payload.len() - from_end;
            payload[at..at + 4].copy_from_slice(&value.to_le_bytes());
        });
        let err = resume(&bytes).expect_err("a forged id must not resume");
        assert!(err.contains(what), "section {section}: {err}");
    }
}
