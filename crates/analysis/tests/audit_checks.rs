//! Mutation and property tests for the audit layer.
//!
//! The unit tests inside each module prove the happy path; these tests
//! prove the *detectors*: every check must fire when its violation is
//! deliberately seeded (a corrupted model file, a poisoned split), and
//! the scope resolver must agree with the extraction-side element
//! grouping on every corpus the generator can produce.

use pigeon_analysis::{audit_sources, check_split, cross_check, AuditConfig, Severity, SourceUnit};
use pigeon_corpus::{generate, CorpusConfig, Language};
use pigeon_crf::{train, CrfConfig, CrfModel, Instance, Node};
use pigeon_word2vec::SgnsModel;
use proptest::prelude::*;

/// A minimal healthy CRF model file: one pair weight, one unary weight,
/// one candidate row, a live label-count table and a global fallback.
fn crf_json(weight: &str, max_candidates: usize, global: &str) -> String {
    format!(
        concat!(
            "{{\"pair_weights\":[[0,0,1,{w}]],",
            "\"unary_weights\":[[1,0,0.5]],",
            "\"label_counts\":[3,2],",
            "\"candidates\":[[0,0,0,[[1,2]]]],",
            "\"global_candidates\":{g},",
            "\"max_candidates\":{m},",
            "\"max_passes\":4}}"
        ),
        w = weight,
        m = max_candidates,
        g = global,
    )
}

fn lint_codes(model: &CrfModel, num_features: usize) -> Vec<(String, Severity)> {
    pigeon_analysis::lint_crf("model.json", model, num_features, 2)
        .into_iter()
        .map(|d| (d.code.to_string(), d.severity))
        .collect()
}

fn lint_crf_codes(json: &str) -> Vec<(String, Severity)> {
    let model = CrfModel::from_json(json, 2, 2).expect("fixture must deserialize");
    lint_codes(&model, 2)
}

#[test]
fn healthy_crf_fixture_lints_clean() {
    let codes = lint_crf_codes(&crf_json("1.25", 8, "[0,1]"));
    assert!(
        codes.iter().all(|(_, sev)| *sev < Severity::Warning),
        "{codes:?}"
    );
}

#[test]
fn nonfinite_crf_weight_is_an_error() {
    // A degenerate learning rate overflows the trained weights to ±inf.
    // (Loading refuses such a file, so training is how one arises.)
    let mut inst = Instance::new(vec![Node::unknown(0), Node::known(1)]);
    inst.add_pair(0, 1, 0);
    let cfg = CrfConfig {
        learning_rate: f32::INFINITY,
        ..CrfConfig::default()
    };
    let model = train(&[inst], 2, &cfg);
    let codes = lint_codes(&model, 2);
    assert!(
        codes.contains(&("model-nonfinite-weight".to_string(), Severity::Error)),
        "{codes:?}"
    );
}

#[test]
fn empty_candidate_tables_are_flagged() {
    let codes = lint_crf_codes(&crf_json("1.25", 0, "[]"));
    assert!(
        codes.contains(&("model-empty-candidates".to_string(), Severity::Error)),
        "{codes:?}"
    );
}

#[test]
fn out_of_range_ids_are_an_error() {
    // The unary weight's path 1 against a 1-entry feature vocabulary.
    let json = crf_json("1.25", 8, "[0,1]");
    let model = CrfModel::from_json(&json, 2, 2).unwrap();
    let codes = lint_codes(&model, 1);
    assert!(
        codes.contains(&("model-id-range".to_string(), Severity::Error)),
        "{codes:?}"
    );
}

fn sgns_from_json(json: &str) -> SgnsModel {
    serde::Deserialize::from_value(&serde_json::from_str::<serde_json::Value>(json).unwrap())
        .expect("fixture must deserialize")
}

#[test]
fn tampered_sgns_table_shape_is_an_error() {
    // Claims 2 words × 2 dims but ships 3 floats in the word table.
    let model = sgns_from_json(
        "{\"dim\":2,\"num_words\":2,\"num_contexts\":1,\
         \"word_vecs\":[0.1,0.2,0.3],\"ctx_vecs\":[0.5,0.5],\
         \"word_counts\":[4,1]}",
    );
    let codes: Vec<_> = pigeon_analysis::lint_sgns("w2v.json", &model)
        .into_iter()
        .map(|d| d.code.to_string())
        .collect();
    assert!(
        codes.contains(&"model-table-shape".to_string()),
        "{codes:?}"
    );
}

#[test]
fn nonfinite_sgns_entry_is_an_error() {
    let model = sgns_from_json(
        "{\"dim\":2,\"num_words\":1,\"num_contexts\":1,\
         \"word_vecs\":[0.1,1e999],\"ctx_vecs\":[0.5,0.5],\
         \"word_counts\":[4]}",
    );
    let diags = pigeon_analysis::lint_sgns("w2v.json", &model);
    assert!(
        diags
            .iter()
            .any(|d| d.code == "model-nonfinite-weight" && d.severity == Severity::Error),
        "{diags:?}"
    );
}

#[test]
fn duplicated_split_is_refused() {
    // The same fingerprint appears in train and test: hard error.
    let train = vec![("train/a.js".to_string(), 0xdead_beef_u64)];
    let test = vec![
        ("test/z.js".to_string(), 0xdead_beef_u64),
        ("test/y.js".to_string(), 0x1234_u64),
    ];
    let diags = check_split("train", &train, "test", &test);
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].code, "split-leak");
    assert_eq!(diags[0].severity, Severity::Error);

    let clean = check_split("train", &train, "test", &test[1..]);
    assert!(clean.is_empty());
}

#[test]
fn corrupted_source_corpus_is_denied() {
    // One malformed unit inside an otherwise healthy corpus must
    // surface as an error, not silently vanish from the report.
    let mut units: Vec<SourceUnit> = (0..4)
        .map(|i| SourceUnit {
            name: format!("ok{i}.py"),
            source: format!("def f{i}(x):\n    return x + {i}\n"),
        })
        .collect();
    units.push(SourceUnit {
        name: "broken.py".to_string(),
        source: "def (((:".to_string(),
    });
    let report = audit_sources(Language::Python, &units, &AuditConfig::default());
    assert!(report.denied_count(Severity::Error) > 0);
    assert!(report
        .diagnostics
        .iter()
        .any(|d| d.code == "parse-error" && d.unit == "broken.py"));
}

fn config_strategy() -> impl Strategy<Value = CorpusConfig> {
    (1usize..6, 1usize..4, 0.0f64..0.4, any::<u64>()).prop_map(|(files, max_fns, noise, seed)| {
        CorpusConfig {
            files,
            min_functions: 1,
            max_functions: max_fns,
            name_noise: noise,
            seed,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The independent resolver in `pigeon-analysis` must reconstruct
    /// exactly the element grouping `pigeon-eval` extracts, on every
    /// corpus the generator can produce, in all four languages.
    #[test]
    fn resolver_agrees_with_element_classification(cfg in config_strategy()) {
        for language in Language::ALL {
            let corpus = generate(language, &cfg);
            for (i, doc) in corpus.docs.iter().enumerate() {
                let ast = language
                    .parse(&doc.source)
                    .map_err(|e| TestCaseError::fail(format!("{language}: {e}")))?;
                let elements = pigeon_eval::classify_elements(language, &ast);
                let diags = cross_check(language, &format!("doc{i}"), &ast, &elements);
                let errors: Vec<_> = diags
                    .iter()
                    .filter(|d| d.severity >= Severity::Error)
                    .collect();
                prop_assert!(
                    errors.is_empty(),
                    "{language}: resolver disagrees: {errors:?}\n{}",
                    doc.source
                );
            }
        }
    }

    /// Whole-corpus audits stay clean at `--deny warning` for any
    /// generator configuration — the CI gate can never flake.
    #[test]
    fn generated_corpora_always_audit_clean(cfg in config_strategy()) {
        for language in [Language::JavaScript, Language::Java] {
            let corpus = generate(language, &cfg);
            let units: Vec<SourceUnit> = corpus
                .docs
                .iter()
                .enumerate()
                .map(|(i, doc)| SourceUnit {
                    name: format!("doc{i:04}"),
                    source: doc.source.clone(),
                })
                .collect();
            let report = audit_sources(language, &units, &AuditConfig::default());
            prop_assert_eq!(
                report.denied_count(Severity::Warning),
                0,
                "{}: {}",
                language,
                report.render_text()
            );
        }
    }
}
