//! End-to-end experiment drivers for the three prediction tasks of §5.3:
//! variable names, method names, and full types.

use crate::elements::{classify_elements, ElementClass};
use crate::features::{extract_edge_features, extract_node_features, Representation};
use crate::graph::{
    add_semi_paths, add_semi_paths_lookup, build_name_graph, build_name_graph_lookup,
    build_type_graph, build_type_graph_lookup, Vocabs,
};
use crate::metrics::Scoreboard;
use pigeon_ast::{Ast, NodeId};
use pigeon_core::parallel_map_indexed;
use pigeon_core::{downsample, Abstraction, ExtractionConfig};
use pigeon_corpus::{generate, generate_java_types, Corpus, CorpusConfig, Language};
use pigeon_crf::{train as train_crf, CrfConfig, Instance};
use pigeon_telemetry as telemetry;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::Instant;

/// Configuration of one CRF experiment on a name-prediction task.
#[derive(Debug, Clone)]
pub struct NameExperiment {
    /// Evaluation language.
    pub language: Language,
    /// Which elements are stripped and predicted.
    pub target: ElementClass,
    /// Corpus generation parameters.
    pub corpus: CorpusConfig,
    /// Input representation (AST paths or a baseline).
    pub representation: Representation,
    /// Path length/width limits.
    pub extraction: ExtractionConfig,
    /// CRF training parameters.
    pub crf: CrfConfig,
    /// Training-time path-context keep probability (§5.5, Fig. 11).
    pub keep_prob: f64,
    /// Fraction of documents used for training (the rest is test).
    pub train_frac: f64,
    /// Candidates reported for top-k accuracy.
    pub top_k: usize,
    /// Worker threads for per-document parse + extraction; `1` is fully
    /// serial, `0` uses all available cores. Results are merged in
    /// document order, so the trained model is identical for any value.
    pub jobs: usize,
    /// Optional extra edge-feature extractor whose triples are appended
    /// after the base representation's. The facade injects edge-typed
    /// data-flow path-contexts through this hook — this crate cannot
    /// depend on the analysis crate that computes the flow edges, so
    /// the composed extractor arrives from above. A plain function
    /// pointer (not a boxed closure) keeps the config `Clone` + `Debug`.
    pub dataflow: Option<DataflowExtractor>,
}

/// Signature of the [`NameExperiment::dataflow`] hook: language, tree,
/// the experiment's extraction limits, and the path abstraction to
/// render features under.
pub type DataflowExtractor =
    fn(Language, &Ast, &ExtractionConfig, Abstraction) -> Vec<crate::features::EdgeFeature>;

impl NameExperiment {
    /// The best variable-name configuration per language, tuned on a
    /// validation split the way the paper tunes its Table 2 parameters.
    /// The paper's optima are 7/3, 6/3, 7/4, 7/4 on GB-scale corpora; on
    /// our smaller synthetic corpora the same bias–variance trade-off
    /// (§4.2 of the paper) moves the optimum to shorter paths.
    pub fn var_names(language: Language) -> Self {
        let (len, width) = match language {
            Language::JavaScript => (3, 3),
            Language::Java => (4, 3),
            Language::Python => (3, 3),
            Language::CSharp => (3, 3),
        };
        NameExperiment {
            language,
            target: ElementClass::Variable,
            corpus: CorpusConfig::default(),
            representation: Representation::AstPaths(Abstraction::Full),
            // Leafwise paths plus semi-paths, as the paper uses for name
            // prediction ("semi-paths provide more generalization", §5).
            extraction: ExtractionConfig::with_limits(len, width).semi_paths(true),
            crf: CrfConfig::default(),
            keep_prob: 1.0,
            train_frac: 0.8,
            top_k: 5,
            jobs: 1,
            dataflow: None,
        }
    }

    /// The best method-name configuration per language (tuned as above;
    /// the paper's Table 2 uses lengths 12/6/10 at its corpus scale).
    /// Method names see the whole body, so the optimum is longer than for
    /// variables — the same ordering the paper reports.
    pub fn method_names(language: Language) -> Self {
        let (len, width) = match language {
            Language::JavaScript => (6, 3),
            Language::Java => (8, 3),
            Language::Python => (6, 3),
            Language::CSharp => (6, 3),
        };
        NameExperiment {
            target: ElementClass::Method,
            extraction: ExtractionConfig::with_limits(len, width),
            ..NameExperiment::var_names(language)
        }
    }

    /// Same experiment with a different representation.
    pub fn with_representation(mut self, rep: Representation) -> Self {
        self.representation = rep;
        self
    }

    /// Same experiment with a different corpus size.
    pub fn with_files(mut self, files: usize) -> Self {
        self.corpus = self.corpus.with_files(files);
        self
    }

    /// Same experiment with extra data-flow edge features appended to
    /// every document's triples.
    pub fn with_dataflow(mut self, extractor: DataflowExtractor) -> Self {
        self.dataflow = Some(extractor);
        self
    }
}

/// Aggregate result of one experiment run.
#[derive(Debug, Clone, Copy)]
pub struct TaskOutcome {
    /// Normalised exact-match accuracy on the test split.
    pub accuracy: f64,
    /// Top-k accuracy (k from the experiment config).
    pub topk_accuracy: f64,
    /// Mean sub-token F1.
    pub f1: f64,
    /// Number of predictions scored.
    pub n_test: usize,
    /// Wall-clock training time in seconds.
    pub train_secs: f64,
    /// Distinct relation features in the vocabulary after training.
    pub n_features: usize,
    /// Distinct labels after training.
    pub n_labels: usize,
    /// Fraction of test golds that were out of vocabulary (§5.3 reports
    /// 5–15% across the paper's datasets).
    pub oov_rate: f64,
}

/// Parses every document across `jobs` workers; pairs come back in
/// document order.
fn parse_corpus_jobs(corpus: &Corpus, jobs: usize) -> Vec<(Ast, &pigeon_corpus::Document)> {
    let _phase = telemetry::span("parse_extract");
    parallel_map_indexed(&corpus.docs, jobs, |_, doc| {
        corpus
            .language
            .parse(&doc.source)
            .expect("generated documents parse")
    })
    .into_iter()
    .zip(&corpus.docs)
    .collect()
}

/// Per-document output of the parallel parse + extract stage, produced by
/// workers and consumed in document order by the (sequential, vocabulary-
/// interning) graph-build stage.
struct ExtractedDoc {
    ast: Ast,
    features: Vec<crate::features::EdgeFeature>,
    semis: Option<Vec<crate::features::NodeFeature>>,
}

/// Parses and extracts every document of `corpus` across `jobs` workers.
/// Results come back in document order, so downstream vocabulary
/// interning encounters features in the same order as a serial run.
fn extract_corpus(corpus: &Corpus, exp: &NameExperiment) -> Vec<ExtractedDoc> {
    let _phase = telemetry::span("parse_extract");
    parallel_map_indexed(&corpus.docs, exp.jobs, |_, doc| {
        let ast = corpus
            .language
            .parse(&doc.source)
            .expect("generated documents parse");
        let mut features =
            extract_edge_features(exp.language, &ast, exp.representation, &exp.extraction);
        if let Some(flow) = exp.dataflow {
            // Render flow features under the same abstraction as the
            // base paths; baselines without one fall back to Full.
            let abstraction = match exp.representation {
                Representation::AstPaths(a) => a,
                _ => Abstraction::Full,
            };
            features.extend(flow(exp.language, &ast, &exp.extraction, abstraction));
        }
        let semis = exp
            .extraction
            .semi_paths
            .then(|| extract_node_features(&ast, exp.representation, &exp.extraction));
        ExtractedDoc {
            ast,
            features,
            semis,
        }
    })
}

/// Runs a name-prediction experiment end to end: generate → parse →
/// extract → build graphs → train CRF → score on the held-out split.
///
/// Parsing and extraction fan out over `exp.jobs` workers; downsampling
/// and graph building stay sequential in document order, so the trained
/// model does not depend on the worker count.
pub fn run_name_experiment(exp: &NameExperiment) -> TaskOutcome {
    let _span = telemetry::span("name_experiment");
    let corpus = {
        let _phase = telemetry::span("corpus_generate");
        generate(exp.language, &exp.corpus)
    };
    // Duplicate-safe split: no program crosses into test under a mere
    // renaming (see `split_dedup`).
    let (train_corpus, _, test_corpus) = {
        let _phase = telemetry::span("split_dedup");
        crate::split::split_dedup(corpus, exp.train_frac, 0.0, exp.jobs)
    };
    let mut vocabs = Vocabs::new();
    let mut rng = SmallRng::seed_from_u64(exp.corpus.seed ^ 0xD05A);

    let train_docs = extract_corpus(&train_corpus, exp);
    let mut train_instances: Vec<Instance> = Vec::new();
    {
        let _phase = telemetry::span("graph_build");
        for doc in train_docs {
            let features = downsample(doc.features, exp.keep_prob, &mut rng);
            let mut graph = build_name_graph(
                exp.language,
                &doc.ast,
                exp.target,
                &features,
                &mut vocabs,
                true,
            );
            if let Some(semis) = &doc.semis {
                add_semi_paths(
                    exp.language,
                    &doc.ast,
                    exp.target,
                    &mut graph,
                    semis,
                    &mut vocabs,
                    true,
                );
            }
            train_instances.push(graph.instance);
        }
    }

    let n_labels = vocabs.labels.len() as u32;
    let started = Instant::now();
    let crf_cfg = CrfConfig {
        jobs: exp.jobs,
        ..exp.crf
    };
    let model = train_crf(&train_instances, n_labels, &crf_cfg);
    let train_secs = started.elapsed().as_secs_f64();

    // Held-out scoring fans out per document: graph building is
    // lookup-only against the frozen vocabularies and prediction runs on
    // the model's shared compiled engine. Per-document scoreboards merge
    // in document order.
    let extracted = extract_corpus(&test_corpus, exp);
    let _score_phase = telemetry::span("eval_score");
    let vocabs = &vocabs;
    let model = &model;
    let boards = parallel_map_indexed(&extracted, exp.jobs, |_, doc| {
        let mut board = Scoreboard::new();
        let mut graph =
            build_name_graph_lookup(exp.language, &doc.ast, exp.target, &doc.features, vocabs);
        if let Some(semis) = &doc.semis {
            add_semi_paths_lookup(
                exp.language,
                &doc.ast,
                exp.target,
                &mut graph,
                semis,
                vocabs,
            );
        }
        let (predicted, ranked) =
            model.predict_top_k(&graph.instance, &graph.unknown_nodes, exp.top_k);
        for (&node, top) in graph.unknown_nodes.iter().zip(ranked) {
            let gold = &graph.node_names[node];
            let name = vocabs.label_name(predicted[node]).to_owned();
            let top: Vec<String> = top
                .into_iter()
                .map(|(l, _)| vocabs.label_name(l).to_owned())
                .collect();
            board.record(&name, gold, Some(&top));
            if vocabs.labels.get(gold).is_none() {
                board.note_oov();
            }
        }
        board
    });
    let mut board = Scoreboard::new();
    for b in &boards {
        board.merge(b);
    }

    TaskOutcome {
        accuracy: board.accuracy(),
        topk_accuracy: board.topk_accuracy(),
        f1: board.f1(),
        n_test: board.total(),
        train_secs,
        n_features: vocabs.features.len(),
        n_labels: vocabs.labels.len(),
        oov_rate: board.oov_rate(),
    }
}

/// Configuration of the full-type experiment (§5.3.3).
#[derive(Debug, Clone)]
pub struct TypeExperiment {
    /// Corpus generation parameters (typed-Java generator).
    pub corpus: CorpusConfig,
    /// Path limits; the paper's best is length 4, width 1.
    pub extraction: ExtractionConfig,
    /// Path abstraction level.
    pub abstraction: Abstraction,
    /// CRF training parameters.
    pub crf: CrfConfig,
    /// Fraction of documents used for training.
    pub train_frac: f64,
    /// Worker threads for per-document parsing and held-out scoring
    /// (`1` serial, `0` all cores); the trained model is identical for
    /// any value.
    pub jobs: usize,
}

impl Default for TypeExperiment {
    fn default() -> Self {
        TypeExperiment {
            corpus: CorpusConfig::default(),
            extraction: ExtractionConfig::with_limits(4, 1),
            abstraction: Abstraction::Full,
            crf: CrfConfig::default(),
            train_frac: 0.8,
            jobs: 1,
        }
    }
}

/// Runs the full-type prediction experiment.
pub fn run_type_experiment(exp: &TypeExperiment) -> TaskOutcome {
    let _span = telemetry::span("type_experiment");
    let corpus = {
        let _phase = telemetry::span("corpus_generate");
        generate_java_types(&exp.corpus)
    };
    let (train_corpus, _, test_corpus) = {
        let _phase = telemetry::span("split_dedup");
        crate::split::split_dedup(corpus, exp.train_frac, 0.0, exp.jobs)
    };
    let mut vocabs = Vocabs::new();

    // Parsing fans out; graph building interns vocabulary entries and
    // stays sequential in document order.
    let train_parsed = parse_corpus_jobs(&train_corpus, exp.jobs);
    let mut train_instances = Vec::new();
    {
        let _phase = telemetry::span("graph_build");
        for (ast, doc) in train_parsed {
            let graph = build_type_graph(
                &ast,
                &doc.truth.types,
                &exp.extraction,
                exp.abstraction,
                &mut vocabs,
                true,
            );
            train_instances.push(graph.instance);
        }
    }

    let n_labels = vocabs.labels.len() as u32;
    let started = Instant::now();
    let crf_cfg = CrfConfig {
        jobs: exp.jobs,
        ..exp.crf
    };
    let model = train_crf(&train_instances, n_labels, &crf_cfg);
    let train_secs = started.elapsed().as_secs_f64();

    // Held-out scoring is per-document independent: lookup-only graph
    // builds, shared compiled model, scoreboards merged in doc order.
    let parsed = parse_corpus_jobs(&test_corpus, exp.jobs);
    let _score_phase = telemetry::span("eval_score");
    let vocabs_ref = &vocabs;
    let model = &model;
    let boards = parallel_map_indexed(&parsed, exp.jobs, |_, (ast, doc)| {
        let mut board = Scoreboard::new();
        let graph = build_type_graph_lookup(
            ast,
            &doc.truth.types,
            &exp.extraction,
            exp.abstraction,
            vocabs_ref,
        );
        let predicted = model.predict(&graph.instance);
        for &node in &graph.unknown_nodes {
            let gold = &graph.node_names[node];
            let name = vocabs_ref.label_name(predicted[node]);
            // Types match exactly (FQNs are case-sensitive identifiers,
            // but our normalised comparison is equivalent here).
            board.record(name, gold, None);
        }
        board
    });
    let mut board = Scoreboard::new();
    for b in &boards {
        board.merge(b);
    }

    TaskOutcome {
        accuracy: board.accuracy(),
        topk_accuracy: 0.0,
        f1: board.f1(),
        n_test: board.total(),
        train_secs,
        n_features: vocabs.features.len(),
        n_labels: vocabs.labels.len(),
        oov_rate: board.oov_rate(),
    }
}

/// The paper's naive full-type baseline: predict `java.lang.String` for
/// every expression (24.1% in the paper).
pub fn naive_string_type_accuracy(corpus_cfg: &CorpusConfig, train_frac: f64) -> TaskOutcome {
    let corpus = generate_java_types(corpus_cfg);
    // Baselines score on the same deduplicated test split as the real
    // experiments, keeping the comparison apples-to-apples.
    let (_, _, test_corpus) = crate::split::split_dedup(corpus, train_frac, 0.0, 1);
    let mut board = Scoreboard::new();
    for doc in &test_corpus.docs {
        for t in &doc.truth.types {
            board.record("java.lang.String", &t.fqn, None);
        }
    }
    TaskOutcome {
        accuracy: board.accuracy(),
        topk_accuracy: 0.0,
        f1: 0.0,
        n_test: board.total(),
        train_secs: 0.0,
        n_features: 0,
        n_labels: 1,
        oov_rate: 0.0,
    }
}

/// The paper's rule-based Java baseline (§5.3.1): pattern heuristics —
/// `i` for classic for-loop indices, `e` for catch parameters, otherwise
/// a name derived from the declared type (`HttpClient client`).
pub fn rule_based_java_vars(corpus_cfg: &CorpusConfig, train_frac: f64) -> TaskOutcome {
    let corpus = generate(Language::Java, corpus_cfg);
    let (_, _, test_corpus) = crate::split::split_dedup(corpus, train_frac, 0.0, 1);
    let mut board = Scoreboard::new();
    for doc in &test_corpus.docs {
        let ast = Language::Java
            .parse(&doc.source)
            .expect("generated docs parse");
        for element in classify_elements(Language::Java, &ast) {
            if element.class != ElementClass::Variable {
                continue;
            }
            let decl = element
                .occurrences
                .iter()
                .copied()
                .find(|&l| matches!(ast.kind(l).as_str(), "NameVar" | "NameParam"));
            let predicted = decl
                .map(|l| rule_based_prediction(&ast, l))
                .unwrap_or_else(|| "value".to_owned());
            board.record(&predicted, &element.name, None);
        }
    }
    TaskOutcome {
        accuracy: board.accuracy(),
        topk_accuracy: 0.0,
        f1: board.f1(),
        n_test: board.total(),
        train_secs: 0.0,
        n_features: 0,
        n_labels: 0,
        oov_rate: 0.0,
    }
}

fn rule_based_prediction(ast: &Ast, decl: NodeId) -> String {
    // `for (int i = ...)` → i.
    let in_for_init = ast.ancestors(decl).take(3).any(|a| {
        ast.kind(a).as_str() == "LocalVar"
            && ast
                .parent(a)
                .is_some_and(|p| ast.kind(p).as_str() == "For" && ast.child_index(a) == 0)
    });
    if in_for_init {
        return "i".to_owned();
    }
    // `catch (... e)` → e.
    if ast
        .parent(decl)
        .is_some_and(|p| ast.kind(p).as_str() == "Catch")
    {
        return "e".to_owned();
    }
    // Otherwise: use the type — `HttpClient client`.
    if let Some(ty) = declared_type(ast, decl) {
        return type_based_name(&ty);
    }
    "value".to_owned()
}

/// The declared type's simple name for a NameVar/NameParam leaf.
fn declared_type(ast: &Ast, decl: NodeId) -> Option<String> {
    let parent = ast.parent(decl)?;
    let type_holder = match ast.kind(parent).as_str() {
        // LocalVar → [Type, VariableDeclarator...]; Parameter → [Type, Name];
        // ForEach → [Type, NameVar, iterable, body]; Catch → [Type, Name, Block].
        "VariableDeclarator" => ast.parent(parent)?,
        "Parameter" | "ForEach" | "Catch" => parent,
        _ => return None,
    };
    let ty = *ast.children(type_holder).first()?;
    type_simple_name(ast, ty)
}

fn type_simple_name(ast: &Ast, ty: NodeId) -> Option<String> {
    match ast.kind(ty).as_str() {
        "PrimitiveType" => Some(ast.value(ty)?.as_str().to_owned()),
        "ArrayType" => type_simple_name(ast, *ast.children(ty).first()?),
        "ClassType" => {
            let name_leaf = *ast.children(ty).first()?;
            let full = ast.value(name_leaf)?.as_str();
            Some(full.rsplit('.').next().unwrap_or(full).to_owned())
        }
        _ => None,
    }
}

fn type_based_name(ty: &str) -> String {
    let mut chars = ty.chars();
    match chars.next() {
        Some(c) => c.to_lowercase().collect::<String>() + chars.as_str(),
        None => "value".to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_corpus() -> CorpusConfig {
        CorpusConfig::default().with_files(120)
    }

    #[test]
    fn js_var_names_learn_well_above_no_paths() {
        let base = NameExperiment::var_names(Language::JavaScript);
        let paths = run_name_experiment(&NameExperiment {
            corpus: small_corpus(),
            ..base.clone()
        });
        let no_paths = run_name_experiment(
            &NameExperiment {
                corpus: small_corpus(),
                ..base
            }
            .with_representation(Representation::NoPaths),
        );
        assert!(paths.n_test > 50);
        assert!(
            paths.accuracy > no_paths.accuracy + 0.03,
            "paths {:.3} should beat no-paths {:.3} clearly",
            paths.accuracy,
            no_paths.accuracy
        );
        assert!(paths.accuracy > 0.4, "paths accuracy {:.3}", paths.accuracy);
        assert!(
            paths.topk_accuracy >= paths.accuracy,
            "top-k dominates top-1"
        );
    }

    #[test]
    fn method_names_are_learnable() {
        let out = run_name_experiment(&NameExperiment {
            corpus: small_corpus(),
            ..NameExperiment::method_names(Language::Python)
        });
        assert!(out.n_test > 30);
        assert!(out.accuracy > 0.25, "accuracy {:.3}", out.accuracy);
        assert!(
            out.f1 >= out.accuracy,
            "subtoken F1 includes partial credit"
        );
    }

    #[test]
    fn type_task_beats_the_string_baseline() {
        let cfg = small_corpus();
        let types = run_type_experiment(&TypeExperiment {
            corpus: cfg,
            ..TypeExperiment::default()
        });
        let naive = naive_string_type_accuracy(&cfg, 0.8);
        assert!(types.n_test > 50);
        assert!(
            types.accuracy > naive.accuracy + 0.2,
            "paths {:.3} vs naive {:.3}",
            types.accuracy,
            naive.accuracy
        );
        assert!(
            (0.15..0.40).contains(&naive.accuracy),
            "naive baseline should sit near the String share, got {:.3}",
            naive.accuracy
        );
    }

    #[test]
    fn rule_based_baseline_is_weak_but_nonzero() {
        let out = rule_based_java_vars(&small_corpus(), 0.8);
        assert!(out.n_test > 50);
        assert!(
            (0.01..0.45).contains(&out.accuracy),
            "rule-based accuracy {:.3}",
            out.accuracy
        );
    }

    #[test]
    fn downsampling_keeps_most_of_the_accuracy() {
        let base = NameExperiment {
            corpus: small_corpus(),
            ..NameExperiment::var_names(Language::JavaScript)
        };
        let full = run_name_experiment(&base);
        let sampled = run_name_experiment(&NameExperiment {
            keep_prob: 0.5,
            ..base
        });
        assert!(
            sampled.accuracy > full.accuracy - 0.15,
            "p=0.5 dropped accuracy too far: {:.3} vs {:.3}",
            sampled.accuracy,
            full.accuracy
        );
    }
}
