//! Regression pin for the training rewrite: the compiled engine must
//! produce a model **byte-identical** to the original HashMap-based
//! implementation. The golden hash below was captured from the pre-rewrite
//! `train()` on this fixed corpus; any trajectory drift (scoring order,
//! candidate order, tie-breaks, sweep scheduling) changes the serialised
//! model and fails this test.

use pigeon_core::fnv64;
use pigeon_crf::{train, train_incremental, CrfConfig, Instance, Node, RawStatistics};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A deterministic mixed corpus: joint unknown–unknown chains, evidence
/// links and unary factors, exercising every inference code path.
fn fixed_corpus() -> Vec<Instance> {
    let mut rng = SmallRng::seed_from_u64(0xB17E_1DE7);
    (0..120)
        .map(|i| {
            let path = rng.gen_range(0..20u32);
            let mut inst = Instance::new(vec![
                Node::unknown(path % 8),
                Node::unknown(8 + path % 4),
                Node::known(12 + path % 3),
            ]);
            inst.add_pair(0, 2, path);
            inst.add_pair(0, 1, 40 + path % 6);
            inst.add_unary(1, 100 + path);
            if i % 3 == 0 {
                inst.add_pair(1, 2, 70 + path % 4);
            }
            inst
        })
        .collect()
}

#[test]
fn trained_model_is_byte_identical_to_the_pre_rewrite_engine() {
    let corpus = fixed_corpus();
    let model = train(&corpus, 15, &CrfConfig::default());
    let json = model.to_json().expect("serialises");
    assert_eq!(
        fnv64(json.as_bytes()),
        GOLDEN_FNV64,
        "trained-model bytes drifted from the pre-rewrite implementation \
         (serialised length {})",
        json.len()
    );
}

/// FNV-1a/64 of `to_json()` for the model trained above, captured from the
/// HashMap-based engine before the compiled rewrite.
const GOLDEN_FNV64: u64 = 5653426235291517717;

#[test]
fn training_is_byte_identical_under_any_jobs_value() {
    // `jobs` only parallelises the statistics pass, whose merge is a sum
    // of per-chunk integer counts — the serialised model must not move.
    let corpus = fixed_corpus();
    let serial = train(&corpus, 15, &CrfConfig::default())
        .to_json()
        .expect("serialises");
    for jobs in [0, 2, 4, 7] {
        let parallel = train(
            &corpus,
            15,
            &CrfConfig {
                jobs,
                ..CrfConfig::default()
            },
        )
        .to_json()
        .expect("serialises");
        assert_eq!(serial, parallel, "jobs = {jobs} changed the model bytes");
    }
}

#[test]
fn incremental_update_is_byte_identical_to_the_pinned_model() {
    // `train --update`: fold the second part of the corpus into a model
    // trained on the first, warm-starting SGD from its weights.
    let corpus = fixed_corpus();
    let (old, new) = corpus.split_at(80);
    let cfg = CrfConfig::default();
    let base = train(old, 15, &cfg);
    let json = train_incremental(new, 15, &cfg, &base, &RawStatistics::collect(new, 15))
        .expect("incremental update runs")
        .to_json()
        .expect("serialises");
    assert_eq!(
        fnv64(json.as_bytes()),
        GOLDEN_INCREMENTAL_FNV64,
        "incrementally updated model bytes drifted (serialised length {})",
        json.len()
    );
}

/// FNV-1a/64 of `to_json()` for the incrementally updated model above.
const GOLDEN_INCREMENTAL_FNV64: u64 = 9110883840412890457;
