//! Model persistence and run-to-run determinism of the full pipeline.

use pigeon::corpus::{generate, CorpusConfig, Language};
use pigeon::crf::CrfModel;
use pigeon::eval::{run_name_experiment, NameExperiment};
use pigeon::{Pigeon, PigeonConfig};

#[test]
fn crf_model_round_trips_through_json_via_facade_training() {
    let corpus = generate(
        Language::JavaScript,
        &CorpusConfig::default().with_files(60),
    );
    let sources: Vec<&str> = corpus.docs.iter().map(|d| d.source.as_str()).collect();
    let namer =
        Pigeon::train_variable_namer(Language::JavaScript, &sources, &PigeonConfig::default())
            .unwrap();

    let query = "function f() { var d = false; while (!d) { if (go()) { d = true; } } }";
    let before = namer.predict(query).unwrap();
    assert!(!before.is_empty());
    // The facade's model serialises and restores byte-identically.
    let json = {
        // Re-train to obtain a raw model with the same data for the
        // serialisation check (the facade owns its model privately).
        let mut vocabs = pigeon::eval::Vocabs::new();
        let mut instances = Vec::new();
        for s in &sources {
            let ast = Language::JavaScript.parse(s).unwrap();
            let feats = pigeon::eval::extract_edge_features(
                Language::JavaScript,
                &ast,
                pigeon::eval::Representation::AstPaths(pigeon::core::Abstraction::Full),
                &pigeon::core::ExtractionConfig::with_limits(4, 3),
            );
            let g = pigeon::eval::build_name_graph(
                Language::JavaScript,
                &ast,
                pigeon::eval::ElementClass::Variable,
                &feats,
                &mut vocabs,
                true,
            );
            instances.push(g.instance);
        }
        let model = pigeon::crf::train(
            &instances,
            vocabs.labels.len() as u32,
            &pigeon::crf::CrfConfig::default(),
        );
        let json = model.to_json().unwrap();
        let restored =
            CrfModel::from_json(&json, vocabs.features.len(), vocabs.labels.len()).unwrap();
        for inst in instances.iter().take(10) {
            assert_eq!(model.predict(inst), restored.predict(inst));
        }
        json
    };
    assert!(json.len() > 100);
}

#[test]
fn facade_round_trips_config_and_predictions_through_json() {
    let corpus = generate(
        Language::JavaScript,
        &CorpusConfig::default().with_files(60),
    );
    let sources: Vec<&str> = corpus.docs.iter().map(|d| d.source.as_str()).collect();
    let config = PigeonConfig {
        extraction: pigeon::core::ExtractionConfig::with_limits(5, 2),
        top_k: 3,
        ..PigeonConfig::default()
    };
    let namer = Pigeon::train_variable_namer(Language::JavaScript, &sources, &config).unwrap();

    let json = namer.to_json().unwrap();
    let restored = Pigeon::from_json(&json).unwrap();
    assert_eq!(restored.language(), Language::JavaScript);
    // Config fields survive: serialising the restored predictor again
    // must reproduce the same document.
    assert_eq!(restored.to_json().unwrap(), json);

    // And it predicts identically, scores included.
    let query = "function f() { var d = false; while (!d) { if (go()) { d = true; } } }";
    let before = namer.predict(query).unwrap();
    let after = restored.predict(query).unwrap();
    assert!(!before.is_empty());
    assert_eq!(before.len(), after.len());
    for (b, a) in before.iter().zip(&after) {
        assert_eq!(b.current_name, a.current_name);
        assert_eq!(b.predicted_name, a.predicted_name);
        assert_eq!(b.candidates, a.candidates);
    }
}

#[test]
fn parallel_training_matches_serial_byte_for_byte() {
    let corpus = generate(
        Language::JavaScript,
        &CorpusConfig::default().with_files(60),
    );
    let sources: Vec<&str> = corpus.docs.iter().map(|d| d.source.as_str()).collect();
    let serial = Pigeon::train_variable_namer(
        Language::JavaScript,
        &sources,
        &PigeonConfig {
            jobs: 1,
            ..PigeonConfig::default()
        },
    )
    .unwrap();
    let parallel = Pigeon::train_variable_namer(
        Language::JavaScript,
        &sources,
        &PigeonConfig {
            jobs: 4,
            ..PigeonConfig::default()
        },
    )
    .unwrap();
    assert_eq!(serial.to_json().unwrap(), parallel.to_json().unwrap());
}

#[test]
fn downsampled_facade_training_is_reproducible_and_shrinks_features() {
    let corpus = generate(
        Language::JavaScript,
        &CorpusConfig::default().with_files(60),
    );
    let sources: Vec<&str> = corpus.docs.iter().map(|d| d.source.as_str()).collect();
    let sampled = PigeonConfig {
        keep_prob: 0.5,
        ..PigeonConfig::default()
    };
    let a = Pigeon::train_variable_namer(Language::JavaScript, &sources, &sampled).unwrap();
    let b = Pigeon::train_variable_namer(Language::JavaScript, &sources, &sampled).unwrap();
    // The sampling seed is fixed, so downsampled runs are reproducible.
    assert_eq!(a.to_json().unwrap(), b.to_json().unwrap());
    // And sampling at 0.5 genuinely drops contexts relative to keeping all.
    let full =
        Pigeon::train_variable_namer(Language::JavaScript, &sources, &PigeonConfig::default())
            .unwrap();
    assert!(a.to_json().unwrap().len() < full.to_json().unwrap().len());
}

#[test]
fn parallel_experiment_matches_serial() {
    let base = NameExperiment {
        corpus: CorpusConfig::default().with_files(80),
        ..NameExperiment::var_names(Language::JavaScript)
    };
    let serial = run_name_experiment(&base);
    let parallel = run_name_experiment(&NameExperiment {
        jobs: 4,
        ..base.clone()
    });
    assert_eq!(serial.accuracy, parallel.accuracy);
    assert_eq!(serial.topk_accuracy, parallel.topk_accuracy);
    assert_eq!(serial.f1, parallel.f1);
    assert_eq!(serial.n_test, parallel.n_test);
    assert_eq!(serial.n_features, parallel.n_features);
    assert_eq!(serial.n_labels, parallel.n_labels);
}

#[test]
fn end_to_end_runs_are_deterministic() {
    let exp = NameExperiment {
        corpus: CorpusConfig::default().with_files(80),
        ..NameExperiment::var_names(Language::Python)
    };
    let a = run_name_experiment(&exp);
    let b = run_name_experiment(&exp);
    assert_eq!(a.accuracy, b.accuracy);
    assert_eq!(a.n_test, b.n_test);
    assert_eq!(a.n_features, b.n_features);
}

#[test]
fn different_seeds_give_different_corpora_but_similar_accuracy() {
    let base = NameExperiment {
        corpus: CorpusConfig::default().with_files(200),
        ..NameExperiment::var_names(Language::JavaScript)
    };
    let a = run_name_experiment(&base);
    let b = run_name_experiment(&NameExperiment {
        corpus: base.corpus.with_seed(0xDEADBEEF),
        ..base.clone()
    });
    assert!(
        (a.accuracy - b.accuracy).abs() < 0.12,
        "seed variance too large: {:.3} vs {:.3}",
        a.accuracy,
        b.accuracy
    );
}
