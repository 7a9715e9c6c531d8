//! Integration tests for the `dataflow_contexts` knob: feature
//! extraction, serialisation in all three model formats, and the
//! byte-identity guarantee when the knob is off.

use pigeon::core::{Abstraction, ExtractionConfig};
use pigeon::corpus::{generate, CorpusConfig, Language};
use pigeon::{dataflow_edge_features, Pigeon, PigeonConfig};

fn sources(language: Language, files: usize) -> Vec<String> {
    generate(language, &CorpusConfig::default().with_files(files))
        .docs
        .into_iter()
        .map(|d| d.source)
        .collect()
}

fn train(language: Language, sources: &[String], config: &PigeonConfig) -> Pigeon {
    let refs: Vec<&str> = sources.iter().map(String::as_str).collect();
    Pigeon::train_variable_namer(language, &refs, config).expect("training corpus parses")
}

#[test]
fn dataflow_edge_features_carry_both_edge_kinds() {
    let source = "function f(a) { var b = a + 1; b = b * 2; return b; }";
    let ast = pigeon::js::parse(source).expect("parses");
    let features = dataflow_edge_features(
        Language::JavaScript,
        &ast,
        &ExtractionConfig::with_limits(4, 3),
        Abstraction::Full,
    );
    assert!(
        features.iter().any(|f| f.feature.starts_with("lw:")),
        "expected a last-write feature: {features:?}"
    );
    assert!(
        features.iter().any(|f| f.feature.starts_with("lu:")),
        "expected a last-use feature: {features:?}"
    );
    // Every flow feature connects two distinct leaves of the tree.
    for f in &features {
        assert_ne!(f.a, f.b, "self-edges are never extracted: {f:?}");
    }
}

/// The knob defaults to off, and off means *really* off: the trained
/// model is byte-identical to one trained before the knob existed — no
/// `lw:`/`lu:` features in the vocabulary, no `dataflow_contexts` key
/// in the JSON, nothing extra in the artifact meta section.
#[test]
fn knob_off_training_and_serialisation_are_byte_identical_to_default() {
    let corpus = sources(Language::JavaScript, 80);
    let default = train(Language::JavaScript, &corpus, &PigeonConfig::default());
    let explicit_off = train(
        Language::JavaScript,
        &corpus,
        &PigeonConfig::builder()
            .dataflow_contexts(false)
            .build()
            .unwrap(),
    );
    let default_json = default.to_json().unwrap();
    assert_eq!(default_json, explicit_off.to_json().unwrap());
    assert!(!default_json.contains("dataflow_contexts"));
    assert!(!default_json.contains("\"lw:"));
    assert_eq!(
        default
            .to_artifact(pigeon::crf::artifact::Quant::F32)
            .unwrap(),
        explicit_off
            .to_artifact(pigeon::crf::artifact::Quant::F32)
            .unwrap()
    );
}

#[test]
fn knob_on_features_reach_the_vocabulary_and_survive_both_formats() {
    let corpus = sources(Language::JavaScript, 80);
    let config = PigeonConfig::builder()
        .dataflow_contexts(true)
        .build()
        .unwrap();
    let namer = train(Language::JavaScript, &corpus, &config);
    let has = |prefix: &str| {
        namer
            .vocabs()
            .features
            .iter()
            .any(|(_, s)| s.starts_with(prefix))
    };
    assert!(has("lw:"), "last-write features must be interned");
    assert!(has("lu:"), "last-use features must be interned");

    let query = "function f(a) { var b = a + 1; b = b * 2; return b; }";
    let expected = format!("{:?}", namer.predict(query).unwrap());

    let json = namer.to_json().unwrap();
    assert!(json.contains("\"dataflow_contexts\":true"));
    let from_json = Pigeon::from_json(&json).unwrap();
    assert_eq!(format!("{:?}", from_json.predict(query).unwrap()), expected);
    // The restored model keeps extracting flow features (otherwise its
    // lw:/lu: weights would silently go unused).
    assert_eq!(from_json.to_json().unwrap(), json);

    let artifact = namer
        .to_artifact(pigeon::crf::artifact::Quant::F32)
        .unwrap();
    let from_artifact = Pigeon::load(&artifact).unwrap();
    assert_eq!(
        format!("{:?}", from_artifact.predict(query).unwrap()),
        expected
    );
}

/// Sharded training with the knob on merges to the same model as a
/// single-process run, and refuses to merge partials that disagree on
/// the knob (mixed statistics would be silently wrong).
#[test]
fn sharded_training_carries_the_knob_and_rejects_mixed_partials() {
    use pigeon::eval::ElementClass;

    let corpus = sources(Language::JavaScript, 60);
    let refs: Vec<&str> = corpus.iter().map(String::as_str).collect();
    let config = PigeonConfig::builder()
        .dataflow_contexts(true)
        .build()
        .unwrap();

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
    let merged = Pigeon::from_partials(&parts).unwrap();
    let single = train(Language::JavaScript, &corpus, &config);
    assert_eq!(merged.to_json().unwrap(), single.to_json().unwrap());

    let off = PigeonConfig::builder()
        .dataflow_contexts(false)
        .build()
        .unwrap();
    let mixed = vec![
        parts[0].clone(),
        Pigeon::build_training_partial(
            Language::JavaScript,
            ElementClass::Variable,
            &refs,
            1,
            2,
            &off,
        )
        .unwrap(),
    ];
    let err = Pigeon::from_partials(&mixed).unwrap_err();
    assert!(
        err.to_string().contains("dataflow_contexts"),
        "the error must name the knob: {err}"
    );
}

/// The flow analyses fan out with the rest of extraction; the trained
/// model must stay byte-identical for any worker count.
#[test]
fn knob_on_training_is_jobs_invariant() {
    let corpus = sources(Language::Python, 60);
    let baseline = train(
        Language::Python,
        &corpus,
        &PigeonConfig::builder()
            .dataflow_contexts(true)
            .jobs(1)
            .build()
            .unwrap(),
    );
    for jobs in [0, 3] {
        let model = train(
            Language::Python,
            &corpus,
            &PigeonConfig::builder()
                .dataflow_contexts(true)
                .jobs(jobs)
                .build()
                .unwrap(),
        );
        assert_eq!(
            model.to_json().unwrap(),
            baseline.to_json().unwrap(),
            "jobs={jobs}"
        );
    }
}

/// Data-flow features format each distinct `(edge kind, path)` once per
/// document; for every abstraction in every language they must equal
/// rendering every context, in context order.
#[test]
fn dataflow_rendering_equals_rendering_every_context() {
    let extraction = ExtractionConfig::with_limits(4, 3);
    for language in Language::ALL {
        for source in sources(language, 3) {
            let ast = language.parse(&source).expect("parses");
            let edges = pigeon::analysis::flow_edges(language, &ast);
            let contexts = pigeon::core::flow_contexts(&ast, &edges, &extraction);
            assert!(
                !contexts.is_empty(),
                "{}: no flow contexts",
                language.name()
            );
            for abstraction in Abstraction::ALL {
                let features: Vec<_> =
                    dataflow_edge_features(language, &ast, &extraction, abstraction)
                        .into_iter()
                        .map(|f| (f.a, f.b, f.feature))
                        .collect();
                let expected: Vec<_> = contexts
                    .iter()
                    .map(|(kind, c)| {
                        let feature = format!("{}:{}", kind.tag(), abstraction.apply(&c.path));
                        (c.start_node, c.end_node, feature)
                    })
                    .collect();
                assert_eq!(features, expected, "{} {abstraction}", language.name());
            }
        }
    }
}

/// Whole files cost time linear in their function count: prediction
/// with a data-flow model and the data-flow lints on a file of `8n`
/// one-line functions take far less than the 64× of the `n`-function
/// file a quadratic pass would (linear is 8×; the bound leaves room for
/// timer noise). Each size keeps its fastest of three runs.
#[test]
fn whole_file_cost_is_linear_in_function_count() {
    let config = PigeonConfig::builder()
        .dataflow_contexts(true)
        .build()
        .expect("valid");
    let model = train(
        Language::JavaScript,
        &sources(Language::JavaScript, 20),
        &config,
    );
    let file = |n: usize| -> String {
        (0..n)
            .map(|k| format!("function f{k}(a){{return a;}}\n"))
            .collect()
    };
    let cost = |source: &str| -> std::time::Duration {
        (0..3)
            .map(|_| {
                let start = std::time::Instant::now();
                let predictions = model.predict(source).expect("parses");
                let ast = pigeon::js::parse(source).expect("parses");
                let lints = pigeon::analysis::audit_ast(Language::JavaScript, "f.js", &ast);
                assert!(!predictions.is_empty());
                assert!(lints.is_empty(), "{lints:?}");
                start.elapsed()
            })
            .min()
            .expect("three runs")
    };
    let n = 500;
    let (small, large) = (cost(&file(n)), cost(&file(8 * n)));
    let ratio = large.as_secs_f64() / small.as_secs_f64();
    assert!(
        ratio <= 20.0,
        "{n} functions took {small:?}, {} took {large:?}: {ratio:.1}×",
        8 * n
    );
}
