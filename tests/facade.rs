//! Integration tests for the `Pigeon` facade: persistence and behaviour
//! parity with the experiment drivers.

use pigeon::corpus::{generate, CorpusConfig, Language};
use pigeon::{Pigeon, PigeonConfig};

fn trained_namer(language: Language, files: usize) -> Pigeon {
    let corpus = generate(language, &CorpusConfig::default().with_files(files));
    let sources: Vec<&str> = corpus.docs.iter().map(|d| d.source.as_str()).collect();
    Pigeon::train_variable_namer(language, &sources, &PigeonConfig::default())
        .expect("training corpus parses")
}

#[test]
fn facade_json_round_trip_preserves_predictions() {
    let namer = trained_namer(Language::JavaScript, 150);
    let json = namer.to_json().expect("serialises");
    let restored = Pigeon::from_json(&json).expect("deserialises");
    assert_eq!(restored.language(), Language::JavaScript);

    for query in [
        "function f() { var d = false; while (!d) { if (go()) { d = true; } } }",
        "function g(xs) { var n = 0; for (var x of xs) { n += x; } return n; }",
        "function h(a, b, c) { b.open('GET', a, false); b.send(c); }",
    ] {
        let before = namer.predict(query).expect("parses");
        let after = restored.predict(query).expect("parses");
        assert_eq!(before.len(), after.len());
        for (x, y) in before.iter().zip(&after) {
            assert_eq!(x.current_name, y.current_name);
            assert_eq!(x.predicted_name, y.predicted_name);
            let xc: Vec<&String> = x.candidates.iter().map(|(n, _)| n).collect();
            let yc: Vec<&String> = y.candidates.iter().map(|(n, _)| n).collect();
            assert_eq!(xc, yc);
        }
    }
}

#[test]
fn facade_rejects_garbage_model_files() {
    assert!(Pigeon::from_json("{}").is_err());
    assert!(Pigeon::from_json("not json at all").is_err());
    assert!(Pigeon::from_json(r#"{"language": "klingon"}"#).is_err());
}

/// A model whose weight tables reference ids beyond the stored
/// vocabularies must be rejected with a named mismatch, not loaded (it
/// would panic or silently mispredict later).
#[test]
fn facade_rejects_model_with_out_of_range_ids() {
    let namer = trained_namer(Language::JavaScript, 60);
    let json = namer.to_json().expect("serialises");

    // Truncate the feature vocabulary: every id the weight tables
    // mention past the cut is now dangling.
    let truncated = {
        let mut v: serde_json::Value = serde_json::from_str(&json).unwrap();
        let features = v
            .get_mut("features")
            .and_then(|x| x.as_array_mut())
            .expect("feature vocab array");
        assert!(features.len() > 1, "test needs a non-trivial vocabulary");
        features.truncate(1);
        serde_json::to_string(&v).unwrap()
    };
    let err = Pigeon::from_json(&truncated).expect_err("must reject");
    let msg = err.to_string();
    assert!(
        msg.contains("feature") && msg.contains("vocabulary"),
        "error should name the mismatched table: {msg}"
    );

    // Same for labels: the label-count table no longer lines up.
    let truncated = {
        let mut v: serde_json::Value = serde_json::from_str(&json).unwrap();
        let labels = v
            .get_mut("labels")
            .and_then(|x| x.as_array_mut())
            .expect("label vocab array");
        labels.truncate(1);
        serde_json::to_string(&v).unwrap()
    };
    let err = Pigeon::from_json(&truncated).expect_err("must reject");
    assert!(err.to_string().contains("label"), "{err}");
}

/// The same bad model file must fail the same way on every load: the
/// loader walks its tables in key order and names the smallest
/// offending entry.
#[test]
fn validation_errors_are_deterministic() {
    let bad = r#"{"language":"js","target":"variables","abstraction":"full",
        "max_length":7,"max_width":3,"semi_paths":true,"top_k":5,
        "labels":["a","b"],"features":["f0","f1"],
        "model":"{\"pair_weights\":[[9,0,1,0.5],[5,1,0,0.5],[12,1,1,0.5],[7,0,0,0.5],[1,0,1,0.5]],\"unary_weights\":[],\"label_counts\":[1,1],\"candidates\":[],\"global_candidates\":[0],\"max_candidates\":4,\"max_passes\":4}"}"#;
    let expected = "model file: pairwise weight references feature id 5, but the \
                    feature vocabulary has 2 entries (model-id-range)";
    for _ in 0..20 {
        let err = Pigeon::load(bad.as_bytes()).expect_err("out-of-range ids must not load");
        assert_eq!(err.to_string(), expected);
    }
}

/// `predict_batch` is a parallel fan-out over `predict`: for every jobs
/// count the results must be identical to the sequential loop, in
/// source order.
#[test]
fn predict_batch_matches_sequential_predict_exactly() {
    let namer = trained_namer(Language::JavaScript, 120);
    let sources = [
        "function f() { var d = false; while (!d) { if (go()) { d = true; } } }",
        "function { syntax error",
        "function g(xs) { var n = 0; for (var x of xs) { n += x; } return n; }",
        "function h(a, b, c) { b.open(0, a, false); b.send(c); }",
    ];
    let sequential: Vec<String> = sources
        .iter()
        .map(|s| format!("{:?}", namer.predict(s)))
        .collect();
    for jobs in [1usize, 4] {
        let batched: Vec<String> = namer
            .predict_batch(&sources, jobs)
            .iter()
            .map(|r| format!("{r:?}"))
            .collect();
        assert_eq!(batched, sequential, "jobs={jobs} diverged from serial");
    }
}

/// A fixed multi-function program for the prediction golden: loops,
/// calls and variables that flow into each other, so the unknowns of
/// each function interact through pairwise factors.
const GOLDEN_PROGRAM: &str = "\
function a(b, c) { var d = 0; for (var e = 0; e < b.length; e++) { d += b[e] * c; } return d; }
function f(g) { var h = false; while (!h) { if (g.check()) { h = true; } } return h; }
function i(j, k, l) { j.open('GET', k, false); j.send(l); var m = j.responseText; return m; }
function n(o) { var p = []; for (var q of o) { if (q > 0) { p.push(q); } } return p.length; }
function r(s, t) { var u = s + t; var v = u * 2; var w = v - s; return w; }
";

/// Renders predictions with every candidate score as raw `f32` bits, so
/// the golden pins order, names and scores exactly.
fn render_predictions(predictions: &[pigeon::Prediction]) -> String {
    let mut out = String::new();
    for p in predictions {
        out.push_str(&format!("{} -> {}:", p.current_name, p.predicted_name));
        for (name, score) in &p.candidates {
            out.push_str(&format!(" {name}={:08x}", score.to_bits()));
        }
        out.push('\n');
    }
    out
}

/// Pins `Pigeon::predict` on a fixed model and program: predicted names,
/// candidate order and candidate score bits. The hash was captured
/// before top-k ranking moved onto a single MAP inference per program,
/// which must not move a byte.
#[test]
fn predictions_are_byte_identical_to_the_pinned_golden() {
    let namer = trained_namer(Language::JavaScript, 60);
    let predictions = namer
        .predict(GOLDEN_PROGRAM)
        .expect("golden program parses");
    assert!(predictions.len() >= 15, "{} unknowns", predictions.len());
    let rendered = render_predictions(&predictions);
    assert_eq!(
        pigeon::core::fnv64(rendered.as_bytes()),
        GOLDEN_PREDICT_FNV64,
        "rendered predictions drifted:\n{rendered}"
    );
}

/// FNV-1a/64 of [`render_predictions`] for the golden program above.
const GOLDEN_PREDICT_FNV64: u64 = 17032038171425160053;

/// A data-flow namer (`lw:`/`lu:` contexts on) and one generated
/// whole file of 32 functions: the shape of a whole-file deobfuscation
/// request, where ICM sweeps and top-k ranking cover dozens of
/// interacting unknowns at once.
fn dataflow_namer_and_whole_file() -> (Pigeon, String) {
    let corpus = generate(
        Language::JavaScript,
        &CorpusConfig::default().with_files(80),
    );
    let sources: Vec<&str> = corpus.docs.iter().map(|d| d.source.as_str()).collect();
    let config = PigeonConfig::builder()
        .dataflow_contexts(true)
        .build()
        .expect("valid config");
    let namer = Pigeon::train_variable_namer(Language::JavaScript, &sources, &config)
        .expect("training corpus parses");
    let file = generate(
        Language::JavaScript,
        &CorpusConfig {
            files: 1,
            min_functions: 32,
            max_functions: 32,
            seed: 0x00F1_1E5E,
            ..CorpusConfig::default()
        },
    )
    .docs
    .pop()
    .expect("one document")
    .source;
    (namer, file)
}

/// The rendered predictions of `namer` on `file`, checked to cover a
/// whole file's worth of unknowns.
fn whole_file_predictions(namer: &Pigeon, file: &str) -> String {
    let predictions = namer.predict(file).expect("whole file parses");
    assert!(predictions.len() >= 60, "{} unknowns", predictions.len());
    render_predictions(&predictions)
}

/// Pins whole-file prediction of a data-flow model, from memory and
/// after a JSON round trip: names, candidate order and score bits.
#[test]
fn whole_file_dataflow_predictions_are_pinned() {
    let (namer, file) = dataflow_namer_and_whole_file();
    let rendered = whole_file_predictions(&namer, &file);
    assert_eq!(
        pigeon::core::fnv64(rendered.as_bytes()),
        GOLDEN_DATAFLOW_FILE_FNV64,
        "rendered predictions drifted:\n{rendered}"
    );
    let json = namer.to_json().expect("serialises");
    let restored = Pigeon::load(json.as_bytes()).expect("loads");
    assert_eq!(whole_file_predictions(&restored, &file), rendered);
}

/// Pins whole-file prediction of the same data-flow model compiled to
/// an i8 `.pgnc`, whose dequantised weights differ from the JSON ones.
#[test]
fn whole_file_i8_artifact_predictions_are_pinned() {
    let (namer, file) = dataflow_namer_and_whole_file();
    let artifact = namer
        .to_artifact(pigeon::crf::artifact::Quant::I8)
        .expect("compiles");
    let loaded = Pigeon::load(&artifact).expect("loads");
    let rendered = whole_file_predictions(&loaded, &file);
    assert_eq!(
        pigeon::core::fnv64(rendered.as_bytes()),
        GOLDEN_DATAFLOW_FILE_I8_FNV64,
        "rendered predictions drifted:\n{rendered}"
    );
}

/// FNV-1a/64 of the data-flow whole-file predictions above.
const GOLDEN_DATAFLOW_FILE_FNV64: u64 = 11900580151761774767;

/// FNV-1a/64 of the i8 `.pgnc` whole-file predictions above.
const GOLDEN_DATAFLOW_FILE_I8_FNV64: u64 = 11517705175785571624;

#[test]
fn facade_surfaces_parse_errors() {
    let namer = trained_namer(Language::JavaScript, 40);
    let err = namer.predict("function { syntax error").unwrap_err();
    assert!(err.to_string().contains("parse error"));
}

#[test]
fn method_namer_targets_methods_not_variables() {
    let corpus = generate(Language::Python, &CorpusConfig::default().with_files(150));
    let sources: Vec<&str> = corpus.docs.iter().map(|d| d.source.as_str()).collect();
    let namer =
        Pigeon::train_method_namer(Language::Python, &sources, &PigeonConfig::default()).unwrap();
    let query = "def m(xs, t):\n    c = 0\n    for x in xs:\n        if x == t:\n            \
                 c += 1\n    return c\n";
    let predictions = namer.predict(query).unwrap();
    assert_eq!(predictions.len(), 1, "only the function name is unknown");
    assert_eq!(predictions[0].current_name, "m");
}

#[test]
fn config_builder_matches_default_and_validates() {
    use pigeon::ErrorKind;

    // A builder with no overrides reproduces `PigeonConfig::default()`,
    // so existing `Default` users lose nothing by migrating.
    let built = PigeonConfig::builder().build().expect("defaults are valid");
    let default = PigeonConfig::default();
    assert_eq!(built.extraction.max_length, default.extraction.max_length);
    assert_eq!(built.extraction.max_width, default.extraction.max_width);
    assert_eq!(built.top_k, default.top_k);
    assert_eq!(built.jobs, default.jobs);
    assert_eq!(built.keep_prob, default.keep_prob);

    for (config, needle) in [
        (PigeonConfig::builder().limits(0, 3).build(), "max_length"),
        (PigeonConfig::builder().keep_prob(0.0).build(), "keep_prob"),
        (PigeonConfig::builder().keep_prob(1.5).build(), "keep_prob"),
        (
            PigeonConfig::builder().keep_prob(f64::NAN).build(),
            "keep_prob",
        ),
        (PigeonConfig::builder().top_k(0).build(), "top_k"),
        (PigeonConfig::builder().limits(17, 3).build(), "max_length"),
        (PigeonConfig::builder().limits(4, 9).build(), "max_width"),
        (
            PigeonConfig::builder().limits(1_000_000, 1_000_000).build(),
            "max_length",
        ),
        (
            PigeonConfig::builder().limits(4, 1_000_000).build(),
            "max_width",
        ),
    ] {
        let err = config.expect_err(needle);
        assert_eq!(err.kind(), ErrorKind::Config, "{err}");
        assert_eq!(err.code(), "config");
        assert!(err.to_string().contains(needle), "{err}");
    }
}

/// The path-limit bound admits every setting the paper (Table 2:
/// length ≤ 12, width ≤ 6) and this repository (Fig. 10 sweeps 3–7 ×
/// 1–3, the tuned 3–8 × 3, the CLI's 4 × 3) use, up to the bound itself.
#[test]
fn config_builder_bound_admits_every_setting_in_use() {
    use pigeon::PigeonConfigBuilder;

    let (length, width) = (
        PigeonConfigBuilder::MAX_PATH_LENGTH,
        PigeonConfigBuilder::MAX_PATH_WIDTH,
    );
    assert_eq!((length, width), (16, 8));
    for (l, w) in [(12, 6), (3, 1), (7, 3), (8, 3), (4, 3), (length, width)] {
        let config = PigeonConfig::builder().limits(l, w).build();
        assert!(config.is_ok(), "{l} × {w}: {:?}", config.err());
    }
}

/// One table of malformed headers, each run through every loader —
/// model JSON, compiled artifact, training partials and the worker's
/// lease. Every path must reject it with `model-format` and the same
/// message the one header resolver gives.
#[test]
fn every_loader_rejects_a_malformed_header_the_same_way() {
    use pigeon::crf::artifact::{write_artifact, ArtifactMeta, Quant};
    use pigeon::crf::CrfConfig;
    use pigeon::eval::partial::{decode_partial, encode_partial};
    use pigeon::eval::ElementClass;

    let corpus = generate(
        Language::JavaScript,
        &CorpusConfig::default().with_files(12),
    );
    let sources: Vec<&str> = corpus.docs.iter().map(|d| d.source.as_str()).collect();
    let namer =
        Pigeon::train_variable_namer(Language::JavaScript, &sources, &PigeonConfig::default())
            .expect("training corpus parses");
    let good = Pigeon::header(
        Language::JavaScript,
        ElementClass::Variable,
        &PigeonConfig::default(),
    );
    let model_json: serde_json::Value =
        serde_json::from_str(&namer.to_json().unwrap()).expect("model JSON parses");
    let (labels, features) = namer.vocabs().tables();
    let partial = Pigeon::build_training_partial(
        Language::JavaScript,
        ElementClass::Variable,
        &sources,
        0,
        1,
        &PigeonConfig::default(),
    )
    .expect("partial builds");

    // Each loader, fed a predictor whose header is `header`.
    let load_all = |header: &ArtifactMeta| -> [(&'static str, Result<(), pigeon::PigeonError>); 4] {
        let mut json = model_json.clone();
        let object = json.as_object_mut().expect("model JSON is an object");
        object.remove("dataflow_contexts");
        object.extend(header.to_json());
        let artifact = write_artifact(header, &labels, &features, namer.crf_model(), Quant::F32)
            .expect("artifact encodes");
        let mut decoded = decode_partial(&partial).expect("partial decodes");
        decoded.meta.header = header.clone();
        let mut lease = header.to_json();
        lease.insert("keep_prob".to_owned(), serde_json::json!(1.0));
        [
            (
                "json",
                Pigeon::from_json(&serde_json::to_string(&json).unwrap()).map(drop),
            ),
            ("artifact", Pigeon::from_artifact(&artifact).map(drop)),
            (
                "partial",
                Pigeon::from_partials(&[encode_partial(&decoded)]).map(drop),
            ),
            (
                "lease",
                pigeon::distrib::lease_config(&serde_json::Value::Object(lease)).map(drop),
            ),
        ]
    };

    for (path, outcome) in load_all(&good) {
        assert!(
            outcome.is_ok(),
            "{path}: the valid header must load: {outcome:?}"
        );
    }
    let bad = |edit: fn(&mut ArtifactMeta)| {
        let mut header = good.clone();
        edit(&mut header);
        header
    };
    for (header, needle) in [
        (
            bad(|h| h.language = "cobol".into()),
            "unknown language `cobol`",
        ),
        (
            bad(|h| h.target = "garbage".into()),
            "unknown target `garbage`",
        ),
        (
            bad(|h| h.abstraction = "zigzag".into()),
            "unknown abstraction `zigzag`",
        ),
        (bad(|h| h.max_length = 0), "max_length"),
        (bad(|h| h.top_k = 0), "top_k"),
        (bad(|h| h.max_length = 17), "max_length"),
        (bad(|h| h.max_width = 9), "max_width"),
        (
            bad(|h| {
                h.max_length = 1_000_000;
                h.max_width = 1_000_000;
            }),
            "max_length",
        ),
        (bad(|h| h.max_width = 1_000_000), "max_width"),
    ] {
        let expected = pigeon::resolve_header(&header, CrfConfig::default(), 1.0)
            .expect_err("the resolver rejects the header");
        assert_eq!(expected.code(), "model-format");
        assert!(expected.message().contains(needle), "{expected}");
        for (path, outcome) in load_all(&header) {
            let err = outcome.expect_err(path);
            assert_eq!(err.code(), "model-format", "{path}: {err}");
            assert!(
                err.message().ends_with(expected.message()),
                "{path} must give the resolver's rejection `{expected}`, gave `{err}`"
            );
        }
    }
}

#[test]
fn errors_carry_stable_machine_readable_codes() {
    use pigeon::ErrorKind;

    let namer = trained_namer(Language::JavaScript, 40);
    let err = namer.predict("function { syntax error").unwrap_err();
    assert_eq!(err.kind(), ErrorKind::Parse);
    assert_eq!(err.code(), "parse");

    let err = Pigeon::from_json("{\"not\": \"a model\"}").unwrap_err();
    assert_eq!(err.kind(), ErrorKind::ModelFormat);
    assert_eq!(err.code(), "model-format");

    // Codes are part of the serve wire format; they must never drift.
    assert_eq!(ErrorKind::Config.code(), "config");
    assert_eq!(ErrorKind::Io.code(), "io");
    assert_eq!(ErrorKind::Internal.code(), "internal");
}
