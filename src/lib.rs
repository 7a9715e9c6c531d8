//! PIGEON: a general path-based representation for predicting program
//! properties.
//!
//! This workspace reproduces *A General Path-Based Representation for
//! Predicting Program Properties* (Alon, Zilberstein, Levy & Yahav, PLDI
//! 2018) as a complete Rust system: four language frontends, the AST-path
//! extraction at the heart of the paper, both learners it evaluates (a
//! Nice2Predict-style CRF and SGNS word embeddings), the paper's
//! baselines, and a benchmark harness regenerating every table and
//! figure. See `DESIGN.md` for the system inventory and `EXPERIMENTS.md`
//! for paper-vs-measured results.
//!
//! The crate re-exports each subsystem under a short module name and
//! offers [`Pigeon`], a high-level facade covering the common use case:
//! train a variable-name (or method-name) predictor on a corpus and query
//! it on new programs.
//!
//! # Quickstart
//!
//! ```
//! use pigeon::{corpus, Pigeon, PigeonConfig};
//! use pigeon::corpus::{CorpusConfig, Language};
//!
//! // Train on a small synthetic JavaScript corpus…
//! let training = corpus::generate(
//!     Language::JavaScript,
//!     &CorpusConfig::default().with_files(120),
//! );
//! let sources: Vec<&str> =
//!     training.docs.iter().map(|d| d.source.as_str()).collect();
//! let namer = Pigeon::train_variable_namer(
//!     Language::JavaScript,
//!     &sources,
//!     &PigeonConfig::default(),
//! ).unwrap();
//!
//! // …then ask it to name the paper's Fig. 1 variable `d`.
//! let program = "function f() { var d = false; while (!d) { \
//!                if (check()) { d = true; } } }";
//! let predictions = namer.predict(program).unwrap();
//! assert_eq!(predictions.len(), 1);
//! assert_eq!(predictions[0].current_name, "d");
//! assert!(!predictions[0].candidates.is_empty());
//! ```

pub use pigeon_analysis as analysis;
pub use pigeon_ast as ast;
pub use pigeon_core as core;
pub use pigeon_corpus as corpus;
pub use pigeon_crf as crf;
pub use pigeon_csharp as csharp;
pub use pigeon_eval as eval;
pub use pigeon_java as java;
pub use pigeon_js as js;
pub use pigeon_python as python;
pub use pigeon_telemetry as telemetry;
pub use pigeon_word2vec as word2vec;

pub mod distrib;
pub mod http;
pub mod serve;

use pigeon_core::{derive_seed, downsample, Abstraction, ExtractionConfig, DOWNSAMPLE_SEED};
use pigeon_corpus::Language;
use pigeon_crf::{CrfConfig, CrfModel, RawStatistics, TrainControl, TrainOutcome, TrainState};
use pigeon_eval::partial::{DocPartial, PartialMeta, TrainPartial};
use pigeon_eval::{
    build_name_graph, build_name_graph_lookup, extract_edge_features, parallel_map_indexed,
    shard_range, ElementClass, Representation, Vocabs,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::fmt;

/// Configuration of a [`Pigeon`] predictor.
#[derive(Debug, Clone)]
pub struct PigeonConfig {
    /// Path length/width limits (§4.2 of the paper).
    pub extraction: ExtractionConfig,
    /// Path abstraction level (§5.6).
    pub abstraction: Abstraction,
    /// CRF training parameters.
    pub crf: CrfConfig,
    /// Candidates returned per prediction.
    pub top_k: usize,
    /// Probability of keeping each extracted path-context during
    /// training (§5.5 of the paper: downsampling trades a little accuracy
    /// for much smaller models). `1.0` keeps everything; the sampling
    /// seed is fixed, so a given `keep_prob` is reproducible.
    pub keep_prob: f64,
    /// Worker threads for per-source parse + extraction and the CRF's
    /// statistics pass during training; `1` is fully serial, `0` uses
    /// all available cores. Per-source results merge in source order and
    /// the statistics merge is commutative, so the trained model is
    /// byte-identical for any value.
    pub jobs: usize,
    /// Also extract edge-typed data-flow path-contexts (`lw:`/`lu:`
    /// features over last-write/last-use edges from the data-flow
    /// engine in `pigeon-analysis`). Off by default; with it off, every
    /// training and serialisation surface is byte-identical to builds
    /// that predate the knob.
    pub dataflow_contexts: bool,
}

impl Default for PigeonConfig {
    fn default() -> Self {
        PigeonConfig {
            extraction: ExtractionConfig::with_limits(4, 3),
            abstraction: Abstraction::Full,
            crf: CrfConfig::default(),
            top_k: 8,
            keep_prob: 1.0,
            jobs: 1,
            dataflow_contexts: false,
        }
    }
}

impl PigeonConfig {
    /// A validating builder starting from the defaults. Unlike struct
    /// literals, [`PigeonConfigBuilder::build`] rejects configurations
    /// that would silently train a useless model (`max_length == 0`,
    /// `keep_prob` outside `(0, 1]`, …).
    pub fn builder() -> PigeonConfigBuilder {
        PigeonConfigBuilder {
            config: PigeonConfig::default(),
        }
    }
}

/// Builder for [`PigeonConfig`]; see [`PigeonConfig::builder`].
#[derive(Debug, Clone)]
pub struct PigeonConfigBuilder {
    config: PigeonConfig,
}

impl PigeonConfigBuilder {
    /// Path length/width limits (§4.2 of the paper).
    pub fn extraction(mut self, extraction: ExtractionConfig) -> Self {
        self.config.extraction = extraction;
        self
    }

    /// Shorthand for the two extraction limits.
    pub fn limits(mut self, max_length: usize, max_width: usize) -> Self {
        let semi = self.config.extraction.semi_paths;
        self.config.extraction =
            ExtractionConfig::with_limits(max_length, max_width).semi_paths(semi);
        self
    }

    /// Also emit semi-paths (terminal → ancestor).
    pub fn semi_paths(mut self, on: bool) -> Self {
        self.config.extraction.semi_paths = on;
        self
    }

    /// Path abstraction level (§5.6).
    pub fn abstraction(mut self, abstraction: Abstraction) -> Self {
        self.config.abstraction = abstraction;
        self
    }

    /// CRF training parameters.
    pub fn crf(mut self, crf: CrfConfig) -> Self {
        self.config.crf = crf;
        self
    }

    /// Candidates returned per prediction.
    pub fn top_k(mut self, top_k: usize) -> Self {
        self.config.top_k = top_k;
        self
    }

    /// Training-time path-context keep probability (§5.5).
    pub fn keep_prob(mut self, keep_prob: f64) -> Self {
        self.config.keep_prob = keep_prob;
        self
    }

    /// Worker threads (`0` = all cores).
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.config.jobs = jobs;
        self
    }

    /// Also extract edge-typed data-flow path-contexts (last-write /
    /// last-use edges, rendered as `lw:`/`lu:`-prefixed features).
    pub fn dataflow_contexts(mut self, on: bool) -> Self {
        self.config.dataflow_contexts = on;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`PigeonError`] with [`ErrorKind::Config`] when the
    /// configuration is unusable:
    /// * `max_length == 0` — no path fits, extraction is empty;
    /// * `keep_prob` outside `(0, 1]` or not finite;
    /// * `top_k == 0` — predictions could never carry a candidate;
    /// * `crf.epochs == 0` — the model would never train.
    pub fn build(self) -> Result<PigeonConfig, PigeonError> {
        let c = &self.config;
        if c.extraction.max_length == 0 {
            return Err(PigeonError::config(
                "extraction.max_length must be at least 1 (0 extracts nothing)",
            ));
        }
        if !(c.keep_prob > 0.0 && c.keep_prob <= 1.0) {
            return Err(PigeonError::config(format!(
                "keep_prob must be in (0, 1], got {}",
                c.keep_prob
            )));
        }
        if c.top_k == 0 {
            return Err(PigeonError::config("top_k must be at least 1"));
        }
        if c.crf.epochs == 0 {
            return Err(PigeonError::config(
                "crf.epochs must be at least 1 (0 never trains)",
            ));
        }
        Ok(self.config)
    }
}

/// Stable classification of a [`PigeonError`] — the machine-readable
/// part of the v1 API error contract. The [`PigeonError::code`] string
/// of each kind appears verbatim in HTTP error bodies and per-source
/// batch errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ErrorKind {
    /// A source program failed to parse.
    Parse,
    /// A configuration was rejected (builder validation, bad CLI flag).
    Config,
    /// A serialised model failed to load or validate.
    ModelFormat,
    /// An underlying I/O operation failed.
    Io,
    /// Anything else — a bug or an unclassified failure.
    Internal,
}

impl ErrorKind {
    /// The stable machine-readable code for this kind.
    pub fn code(self) -> &'static str {
        match self {
            ErrorKind::Parse => "parse",
            ErrorKind::Config => "config",
            ErrorKind::ModelFormat => "model-format",
            ErrorKind::Io => "io",
            ErrorKind::Internal => "internal",
        }
    }
}

/// An error from the [`Pigeon`] facade, classified by [`ErrorKind`].
#[derive(Debug, Clone)]
pub struct PigeonError {
    kind: ErrorKind,
    message: String,
}

impl PigeonError {
    fn new(kind: ErrorKind, message: impl Into<String>) -> Self {
        PigeonError {
            kind,
            message: message.into(),
        }
    }

    /// A parse failure.
    pub fn parse(message: impl Into<String>) -> Self {
        PigeonError::new(ErrorKind::Parse, message)
    }

    /// A rejected configuration.
    pub fn config(message: impl Into<String>) -> Self {
        PigeonError::new(ErrorKind::Config, message)
    }

    /// A malformed or invalid serialised model.
    pub fn model_format(message: impl Into<String>) -> Self {
        PigeonError::new(ErrorKind::ModelFormat, message)
    }

    /// An I/O failure.
    pub fn io(message: impl Into<String>) -> Self {
        PigeonError::new(ErrorKind::Io, message)
    }

    /// An unclassified failure.
    pub fn internal(message: impl Into<String>) -> Self {
        PigeonError::new(ErrorKind::Internal, message)
    }

    /// The error's stable classification.
    pub fn kind(&self) -> ErrorKind {
        self.kind
    }

    /// The stable machine-readable code (`"parse"`, `"config"`,
    /// `"model-format"`, `"io"`, `"internal"`) carried by API responses.
    pub fn code(&self) -> &'static str {
        self.kind.code()
    }

    /// The human-readable message.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for PigeonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for PigeonError {}

impl From<std::io::Error> for PigeonError {
    fn from(e: std::io::Error) -> Self {
        PigeonError::io(e.to_string())
    }
}

/// One predicted name for a program element.
#[derive(Debug, Clone)]
pub struct Prediction {
    /// The element's name as written in the query program (possibly
    /// stripped/minified).
    pub current_name: String,
    /// The model's best suggestion.
    pub predicted_name: String,
    /// Ranked `(name, score)` candidates, best first — the paper's top-k
    /// suggestion API (§5.1).
    pub candidates: Vec<(String, f32)>,
}

/// A trained name predictor: the paper's PIGEON tool for one language and
/// one task.
#[derive(Debug)]
pub struct Pigeon {
    language: Language,
    target: ElementClass,
    config: PigeonConfig,
    vocabs: Vocabs,
    model: CrfModel,
}

impl Pigeon {
    /// Trains a local-variable/parameter name predictor on `sources`.
    ///
    /// # Errors
    ///
    /// Returns [`PigeonError`] when any training source fails to parse.
    pub fn train_variable_namer(
        language: Language,
        sources: &[&str],
        config: &PigeonConfig,
    ) -> Result<Pigeon, PigeonError> {
        Pigeon::train(language, ElementClass::Variable, sources, config)
    }

    /// Trains a method-name predictor on `sources`.
    ///
    /// # Errors
    ///
    /// Returns [`PigeonError`] when any training source fails to parse.
    pub fn train_method_namer(
        language: Language,
        sources: &[&str],
        config: &PigeonConfig,
    ) -> Result<Pigeon, PigeonError> {
        Pigeon::train(language, ElementClass::Method, sources, config)
    }

    fn train(
        language: Language,
        target: ElementClass,
        sources: &[&str],
        config: &PigeonConfig,
    ) -> Result<Pigeon, PigeonError> {
        let _span = telemetry::span("train");
        let (vocabs, instances) = build_training_inputs(language, target, sources, 0, config)?;
        // The CRF's statistics pass shares the same worker budget; its
        // sequential-update training is byte-identical for any value.
        let crf_cfg = CrfConfig {
            jobs: config.jobs,
            ..config.crf
        };
        let model = pigeon_crf::train(&instances, vocabs.labels.len() as u32, &crf_cfg);
        Ok(Pigeon {
            language,
            target,
            config: config.clone(),
            vocabs,
            model,
        })
    }

    /// Trains a name predictor with checkpoint/resume control — the
    /// engine behind `pigeon train --checkpoint-every/--resume`. The
    /// corpus pipeline is identical to [`Pigeon::train_variable_namer`];
    /// only the SGD loop is driven through `control`, so a run that is
    /// never interrupted produces the byte-identical model.
    ///
    /// # Errors
    ///
    /// Parse failures ([`ErrorKind::Parse`]), or a resume snapshot whose
    /// fingerprint does not match this corpus and configuration
    /// ([`ErrorKind::Config`]).
    pub fn train_namer_resumable(
        language: Language,
        target: ElementClass,
        sources: &[&str],
        config: &PigeonConfig,
        control: TrainControl<'_>,
    ) -> Result<TrainRun, PigeonError> {
        let _span = telemetry::span("train");
        register_training_metrics();
        let (vocabs, instances) = build_training_inputs(language, target, sources, 0, config)?;
        let crf_cfg = CrfConfig {
            jobs: config.jobs,
            ..config.crf
        };
        let outcome =
            pigeon_crf::train_resumable(&instances, vocabs.labels.len() as u32, &crf_cfg, control)
                .map_err(PigeonError::config)?;
        Ok(match outcome {
            TrainOutcome::Completed(model) => TrainRun::Completed(Box::new(Pigeon {
                language,
                target,
                config: config.clone(),
                vocabs,
                model: *model,
            })),
            TrainOutcome::Interrupted(state) => TrainRun::Interrupted(state),
        })
    }

    /// Runs extraction and statistics collection over one deterministic
    /// 1/`shard_count` slice of `sources` (the **full** corpus list;
    /// slicing is internal so every shard agrees on global document
    /// indices), returning a partial statistics file — a `.pgnc`
    /// container of kind `partial` for `pigeon merge`.
    ///
    /// # Errors
    ///
    /// A shard index out of range ([`ErrorKind::Config`]) or a source in
    /// the shard that fails to parse ([`ErrorKind::Parse`]).
    pub fn build_training_partial(
        language: Language,
        target: ElementClass,
        sources: &[&str],
        shard_index: usize,
        shard_count: usize,
        config: &PigeonConfig,
    ) -> Result<Vec<u8>, PigeonError> {
        let _span = telemetry::span("train_shard");
        if shard_count == 0 || shard_index >= shard_count {
            return Err(PigeonError::config(format!(
                "shard index {shard_index} out of range {shard_count}"
            )));
        }
        let range = shard_range(sources.len(), shard_index, shard_count);
        let slice = &sources[range.clone()];
        let mut docs = Vec::with_capacity(slice.len());
        for (offset, built) in build_doc_partials(language, target, slice, range.start, config)?
            .into_iter()
            .enumerate()
        {
            let (labels, features, instance) = built;
            let stats =
                RawStatistics::collect(std::slice::from_ref(&instance), labels.len() as u32);
            docs.push(DocPartial {
                global_index: (range.start + offset) as u32,
                labels,
                features,
                instance,
                stats,
            });
        }
        let meta = training_partial_meta(
            language,
            target,
            config,
            shard_index as u32,
            shard_count as u32,
            sources.len() as u32,
        );
        Ok(pigeon_eval::partial::encode_partial(&TrainPartial {
            meta,
            docs,
        }))
    }

    /// Merges partial statistics files written by
    /// [`Pigeon::build_training_partial`] and finishes training — the
    /// engine behind `pigeon merge`. The result is byte-identical to
    /// single-process training on the full corpus, for any shard count.
    ///
    /// # Errors
    ///
    /// Malformed partials ([`ErrorKind::ModelFormat`]), partials built
    /// under different configurations or with missing/duplicate shards
    /// ([`ErrorKind::Config`] — the message names the differing knob).
    pub fn from_partials(parts: &[Vec<u8>]) -> Result<Pigeon, PigeonError> {
        let _span = telemetry::span("merge_train");
        register_training_metrics();
        let decoded: Vec<TrainPartial> = parts
            .iter()
            .enumerate()
            .map(|(i, bytes)| {
                pigeon_eval::partial::decode_partial(bytes)
                    .map_err(|e| PigeonError::model_format(format!("partial {i}: {e}")))
            })
            .collect::<Result<_, _>>()?;
        let merged = pigeon_eval::partial::merge_partials(&decoded).map_err(PigeonError::config)?;
        let meta = &merged.meta;
        let err = |m: String| PigeonError::model_format(m);
        let language = Language::from_name(&meta.language)
            .ok_or_else(|| err(format!("partial: unknown language `{}`", meta.language)))?;
        let target = target_from_name(&meta.target)
            .ok_or_else(|| err(format!("partial: unknown target `{}`", meta.target)))?;
        let abstraction = Abstraction::from_name(&meta.abstraction).ok_or_else(|| {
            err(format!(
                "partial: unknown abstraction `{}`",
                meta.abstraction
            ))
        })?;
        let mut extraction =
            ExtractionConfig::with_limits(meta.max_length as usize, meta.max_width as usize);
        extraction.semi_paths = meta.semi_paths;
        let crf_cfg = CrfConfig {
            jobs: 1,
            ..meta.crf
        };
        let config = PigeonConfig {
            extraction,
            abstraction,
            crf: crf_cfg,
            top_k: meta.top_k as usize,
            keep_prob: meta.keep_prob,
            jobs: 1,
            dataflow_contexts: meta.dataflow_contexts,
        };
        let model = pigeon_crf::train_from_statistics(
            &merged.instances,
            merged.vocabs.labels.len() as u32,
            &crf_cfg,
            merged.stats,
        )
        .map_err(PigeonError::internal)?;
        Ok(Pigeon {
            language,
            target,
            config,
            vocabs: merged.vocabs,
            model,
        })
    }

    /// Folds new documents into this trained predictor **without
    /// re-extracting the original corpus** — the engine behind
    /// `pigeon train --update MODEL --add DIR`. The update is
    /// approximate by design: the base model's (already truncated)
    /// count tables seed the statistics, new documents' counts are
    /// absorbed, and the SGD loop warm-starts from the base weights over
    /// the new instances only.
    ///
    /// # Errors
    ///
    /// Predictors loaded from a compiled artifact ([`ErrorKind::Config`]
    /// — the artifact ships no candidate counts to fold new ones into;
    /// update the JSON model and recompile) or a new source that fails
    /// to parse ([`ErrorKind::Parse`]).
    pub fn update(&self, new_sources: &[&str]) -> Result<Pigeon, PigeonError> {
        let _span = telemetry::span("train_update");
        let mut vocabs = self.vocabs.clone();
        let base_labels = vocabs.labels.len();
        let mut instances = Vec::with_capacity(new_sources.len());
        let extracted =
            build_doc_partials(self.language, self.target, new_sources, 0, &self.config)?;
        {
            let _phase = telemetry::span("graph_build");
            for (labels, features, instance) in extracted {
                // Re-intern the doc-local ids into the (growing) base
                // vocabularies — the same replay the shard merge runs.
                let label_map: Vec<u32> = labels
                    .into_iter()
                    .map(|s| vocabs.labels.intern(s))
                    .collect();
                let feature_map: Vec<u32> = features
                    .into_iter()
                    .map(|s| vocabs.features.intern(s))
                    .collect();
                instances.push(remap_instance(&instance, &label_map, &feature_map));
            }
        }
        let num_labels = vocabs.labels.len() as u32;
        let new_stats = RawStatistics::collect(&instances, num_labels);
        let crf_cfg = CrfConfig {
            jobs: self.config.jobs,
            ..self.config.crf
        };
        let model = pigeon_crf::train_incremental(
            &instances,
            num_labels,
            &crf_cfg,
            &self.model,
            &new_stats,
        )
        .map_err(PigeonError::config)?;
        debug_assert!(base_labels <= vocabs.labels.len());
        Ok(Pigeon {
            language: self.language,
            target: self.target,
            config: self.config.clone(),
            vocabs,
            model,
        })
    }

    /// The language this predictor was trained for.
    pub fn language(&self) -> Language {
        self.language
    }

    /// The trained CRF model, read-only — the `pigeon audit` model lint
    /// inspects weight tables and candidate sets through this.
    pub fn crf_model(&self) -> &CrfModel {
        &self.model
    }

    /// The label/feature vocabularies the model was trained with.
    pub fn vocabs(&self) -> &Vocabs {
        &self.vocabs
    }

    /// Serialises the trained predictor (model, vocabularies and
    /// configuration) to JSON, for `pigeon predict --model`.
    ///
    /// # Errors
    ///
    /// Returns the underlying `serde_json` error.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        let labels: Vec<String> = self.vocabs.labels.iter().map(|(_, s)| s.clone()).collect();
        let features: Vec<String> = self
            .vocabs
            .features
            .iter()
            .map(|(_, s)| s.clone())
            .collect();
        let mut file = serde_json::json!({
            "language": self.language.name(),
            "target": match self.target {
                ElementClass::Variable => "variables",
                ElementClass::Method => "methods",
                ElementClass::Other => "other",
            },
            "max_length": self.config.extraction.max_length,
            "max_width": self.config.extraction.max_width,
            "semi_paths": self.config.extraction.semi_paths,
            "abstraction": self.config.abstraction.name(),
            "top_k": self.config.top_k,
            "labels": labels,
            "features": features,
            "model": self.model.to_json()?,
        });
        // Inserted only when set: knob-off model files stay
        // byte-identical to files written before the knob existed.
        if self.config.dataflow_contexts {
            file.as_object_mut()
                .expect("json! object literal")
                .insert("dataflow_contexts".to_owned(), serde_json::json!(true));
        }
        serde_json::to_string(&file)
    }

    /// Restores a predictor serialised by [`Pigeon::to_json`].
    ///
    /// # Errors
    ///
    /// Returns [`PigeonError`] on malformed input.
    pub fn from_json(json: &str) -> Result<Pigeon, PigeonError> {
        let err = |m: &str| PigeonError::model_format(format!("model file: {m}"));
        let v: serde_json::Value = serde_json::from_str(json).map_err(|e| err(&e.to_string()))?;
        let str_field = |k: &str| -> Result<&str, PigeonError> {
            v.get(k)
                .and_then(|x| x.as_str())
                .ok_or_else(|| err(&format!("missing field `{k}`")))
        };
        let num_field = |k: &str| -> Result<u64, PigeonError> {
            v.get(k)
                .and_then(|x| x.as_u64())
                .ok_or_else(|| err(&format!("missing field `{k}`")))
        };
        let language =
            Language::from_name(str_field("language")?).ok_or_else(|| err("unknown language"))?;
        let target = match str_field("target")? {
            "variables" => ElementClass::Variable,
            "methods" => ElementClass::Method,
            _ => ElementClass::Other,
        };
        let abstraction = Abstraction::from_name(str_field("abstraction")?)
            .ok_or_else(|| err("unknown abstraction"))?;
        let mut vocabs = Vocabs::new();
        for (key, vocab) in [
            ("labels", &mut vocabs.labels),
            ("features", &mut vocabs.features),
        ] {
            let items = v
                .get(key)
                .and_then(|x| x.as_array())
                .ok_or_else(|| err(&format!("missing field `{key}`")))?;
            for item in items {
                let s = item.as_str().ok_or_else(|| err("non-string vocab item"))?;
                vocab.intern(s.to_owned());
            }
        }
        // A truncated or hand-edited file can carry weight-table ids
        // beyond the vocabularies it ships, non-finite weights, or
        // absurd inference caps; the loader validates against the
        // vocabularies so `predict` never indexes out of bounds or
        // scores against a poisoned table.
        let model = CrfModel::from_json(
            str_field("model")?,
            vocabs.features.len(),
            vocabs.labels.len(),
        )
        .map_err(|e| err(&e.to_string()))?;
        let mut extraction = ExtractionConfig::with_limits(
            num_field("max_length")? as usize,
            num_field("max_width")? as usize,
        );
        extraction.semi_paths = v
            .get("semi_paths")
            .and_then(|x| x.as_bool())
            .unwrap_or(false);
        // Absent in files written before the knob existed (and in every
        // knob-off file since): absent means off.
        let dataflow_contexts = v
            .get("dataflow_contexts")
            .and_then(|x| x.as_bool())
            .unwrap_or(false);
        Ok(Pigeon {
            language,
            target,
            config: PigeonConfig {
                extraction,
                abstraction,
                crf: CrfConfig::default(),
                dataflow_contexts,
                top_k: num_field("top_k")? as usize,
                // Training-only knobs; a deserialized model is for
                // prediction, so the defaults are fine.
                ..PigeonConfig::default()
            },
            vocabs,
            model,
        })
    }

    /// Serialises the trained predictor into the compiled binary
    /// artifact format (see `pigeon_crf::artifact`): the CSR-packed
    /// engine, vocabularies and configuration in one flat,
    /// checksummed file that [`Pigeon::from_artifact`] loads with bulk
    /// array reads instead of JSON parsing and recompilation.
    ///
    /// # Errors
    ///
    /// Returns [`PigeonError`] with [`ErrorKind::ModelFormat`] when the
    /// model carries non-finite weights, or a weight exceeds the `f16`
    /// range under [`crf::artifact::Quant::F16`].
    pub fn to_artifact(&self, quant: crf::artifact::Quant) -> Result<Vec<u8>, PigeonError> {
        let _span = telemetry::span("compile_artifact");
        let labels: Vec<String> = self.vocabs.labels.iter().map(|(_, s)| s.clone()).collect();
        let features: Vec<String> = self
            .vocabs
            .features
            .iter()
            .map(|(_, s)| s.clone())
            .collect();
        let meta = crf::artifact::ArtifactMeta {
            language: self.language.name().to_owned(),
            target: match self.target {
                ElementClass::Variable => "variables",
                ElementClass::Method => "methods",
                ElementClass::Other => "other",
            }
            .to_owned(),
            abstraction: self.config.abstraction.name().to_owned(),
            max_length: self.config.extraction.max_length as u32,
            max_width: self.config.extraction.max_width as u32,
            semi_paths: self.config.extraction.semi_paths,
            top_k: self.config.top_k as u32,
            dataflow_contexts: self.config.dataflow_contexts,
        };
        crf::artifact::write_artifact(&meta, &labels, &features, &self.model, quant)
            .map_err(|m| PigeonError::model_format(format!("compiled artifact: {m}")))
    }

    /// Restores a predictor from a compiled binary artifact written by
    /// [`Pigeon::to_artifact`] (or `pigeon compile`).
    ///
    /// # Errors
    ///
    /// Returns [`PigeonError`] with [`ErrorKind::ModelFormat`] on any
    /// truncated, bit-flipped or otherwise invalid artifact — the
    /// decoder checks checksums, section bounds, CSR structure, id
    /// ranges and weight finiteness, and never panics on bad input.
    pub fn from_artifact(bytes: &[u8]) -> Result<Pigeon, PigeonError> {
        let _span = telemetry::span("load_artifact");
        let err = |m: &str| PigeonError::model_format(format!("compiled artifact: {m}"));
        let art = crf::artifact::read_artifact(bytes).map_err(|m| err(&m))?;
        let language =
            Language::from_name(&art.meta.language).ok_or_else(|| err("unknown language"))?;
        let target = match art.meta.target.as_str() {
            "variables" => ElementClass::Variable,
            "methods" => ElementClass::Method,
            "other" => ElementClass::Other,
            other => return Err(err(&format!("unknown prediction target `{other}`"))),
        };
        let abstraction = Abstraction::from_name(&art.meta.abstraction)
            .ok_or_else(|| err("unknown abstraction"))?;
        if art.meta.max_length == 0 {
            return Err(err("max_length must be at least 1"));
        }
        if art.meta.top_k == 0 {
            return Err(err("top_k must be at least 1"));
        }
        let mut vocabs = Vocabs::new();
        for (what, items, vocab) in [
            ("label", &art.labels, &mut vocabs.labels),
            ("feature", &art.features, &mut vocabs.features),
        ] {
            for item in items {
                vocab.intern(item.clone());
            }
            // A repeated string would collapse two ids into one and
            // silently shift every id after it.
            if vocab.len() != items.len() {
                return Err(err(&format!("duplicate entry in the {what} vocabulary")));
            }
        }
        let mut extraction = ExtractionConfig::with_limits(
            art.meta.max_length as usize,
            art.meta.max_width as usize,
        );
        extraction.semi_paths = art.meta.semi_paths;
        Ok(Pigeon {
            language,
            target,
            config: PigeonConfig {
                extraction,
                abstraction,
                dataflow_contexts: art.meta.dataflow_contexts,
                top_k: art.meta.top_k as usize,
                // Training-only knobs; an artifact-backed model is for
                // prediction, so the defaults are fine.
                ..PigeonConfig::default()
            },
            vocabs,
            model: art.model,
        })
    }

    /// Loads a serialised predictor from raw bytes, sniffing the format:
    /// the compiled binary artifact when the magic matches, UTF-8 JSON
    /// otherwise. This is what every model-accepting surface (CLI
    /// `--model` flags, `POST /v1/models`) runs.
    ///
    /// # Errors
    ///
    /// Returns [`PigeonError`] with [`ErrorKind::ModelFormat`] on
    /// malformed input in either format.
    pub fn load(bytes: &[u8]) -> Result<Pigeon, PigeonError> {
        if crf::artifact::is_artifact(bytes) {
            return Pigeon::from_artifact(bytes);
        }
        let json = std::str::from_utf8(bytes).map_err(|_| {
            PigeonError::model_format(
                "model file: neither a compiled artifact (bad magic) nor UTF-8 JSON",
            )
        })?;
        Pigeon::from_json(json)
    }

    /// Predicts names for every target element of `source`, in
    /// first-occurrence order.
    ///
    /// # Errors
    ///
    /// Returns [`PigeonError`] when `source` fails to parse.
    pub fn predict(&self, source: &str) -> Result<Vec<Prediction>, PigeonError> {
        let _span = telemetry::span("predict");
        let ast = self.language.parse(source).map_err(PigeonError::parse)?;
        let rep = Representation::AstPaths(self.config.abstraction);
        let mut features = extract_edge_features(self.language, &ast, rep, &self.config.extraction);
        if self.config.dataflow_contexts {
            // A model trained with flow features must see them at
            // prediction time too, or its `lw:`/`lu:` weights go unused.
            features.extend(dataflow_edge_features(
                self.language,
                &ast,
                &self.config.extraction,
                self.config.abstraction,
            ));
        }
        // Lookup-only graph build: prediction never grows the
        // vocabularies, so the hot path borrows them directly — no
        // per-call clone, and `&self` stays shareable across threads.
        let graph =
            build_name_graph_lookup(self.language, &ast, self.target, &features, &self.vocabs);
        // One span per program around its single inference plus ranking;
        // the engine's `infer` carries none, since training runs it for
        // every instance in every epoch.
        let (labels, ranked) = {
            let _infer = telemetry::span("crf_infer");
            self.model
                .predict_top_k(&graph.instance, &graph.unknown_nodes, self.config.top_k)
        };
        let out = graph
            .unknown_nodes
            .iter()
            .zip(ranked)
            .map(|(&node, top)| Prediction {
                current_name: graph.node_names[node].clone(),
                predicted_name: self.vocabs.label_name(labels[node]).to_owned(),
                candidates: top
                    .into_iter()
                    .map(|(l, s)| (self.vocabs.label_name(l).to_owned(), s))
                    .collect(),
            })
            .collect();
        Ok(out)
    }

    /// Predicts names for many programs at once, fanning the per-program
    /// work (parse, extraction, graph build, inference) over `jobs`
    /// worker threads; `1` is fully serial, `0` uses all available
    /// cores.
    ///
    /// Accepts any slice of string-likes (`&[&str]`, `&[String]`, …) so
    /// callers that own their sources — like the serving layer's
    /// admission queue, which coalesces concurrent requests into
    /// micro-batches of owned bodies — need no intermediate re-borrow.
    ///
    /// Results come back in `sources` order and each entry is exactly
    /// what [`Pigeon::predict`] returns for that source — prediction is
    /// read-only, so the output is identical for any `jobs` value.
    pub fn predict_batch<S: AsRef<str> + Sync>(
        &self,
        sources: &[S],
        jobs: usize,
    ) -> Vec<Result<Vec<Prediction>, PigeonError>> {
        parallel_map_indexed(sources, jobs, |_, source| self.predict(source.as_ref()))
    }
}

/// The outcome of a checkpointed training run
/// ([`Pigeon::train_namer_resumable`]): either a finished predictor or
/// the SGD state to persist (`pigeon_crf::checkpoint::encode_checkpoint`)
/// and resume from later.
#[derive(Debug)]
pub enum TrainRun {
    /// Training ran to completion.
    Completed(Box<Pigeon>),
    /// The interrupt hook fired; resume by passing this state back
    /// through [`TrainControl::resume`].
    Interrupted(Box<TrainState>),
}

/// Registers every training-path metric family (checkpoint save/load
/// latency and totals, shard-merge latency, resume counts) on the
/// current telemetry sink. Training entry points call this themselves;
/// the serving layer also calls it at startup so the `/v1/metrics`
/// family set is byte-stable whether or not a training phase ran in
/// this process.
pub fn register_training_metrics() {
    pigeon_crf::checkpoint::register_metrics();
    pigeon_eval::partial::register_metrics();
    pigeon_analysis::dataflow::register_metrics();
    telemetry::describe(
        pigeon_core::DATAFLOW_CONTEXTS_TOTAL,
        "Edge-typed data-flow path-contexts extracted, by edge kind",
    );
    for kind in ["last_use", "last_write"] {
        telemetry::counter_with(pigeon_core::DATAFLOW_CONTEXTS_TOTAL, &[("kind", kind)]);
    }
    telemetry::describe(
        "pigeon_crf_resumes_total",
        "Training runs resumed from a checkpoint",
    );
    telemetry::counter("pigeon_crf_resumes_total");
}

/// Extracts edge-typed data-flow path-contexts from one tree and
/// renders them as CRF edge features: the analysis crate's last-write /
/// last-use edges, connected by AST paths (`pigeon_core::flow_contexts`)
/// and prefixed with the edge type (`lw:` / `lu:`) so the learner can
/// weight semantic relations separately from syntactic ones.
///
/// This is the composition the `dataflow_contexts` knob switches on in
/// training and prediction. It is public (and a plain `fn`) so the CLI
/// can pass it to [`pigeon_eval::NameExperiment::with_dataflow`] — the
/// eval crate cannot depend on the analysis crate, so the composed
/// extractor has to arrive from this layer.
pub fn dataflow_edge_features(
    language: Language,
    ast: &ast::Ast,
    extraction: &ExtractionConfig,
    abstraction: Abstraction,
) -> Vec<pigeon_eval::EdgeFeature> {
    let edges = pigeon_analysis::flow_edges(language, ast);
    pigeon_core::flow_contexts(ast, &edges, extraction)
        .into_iter()
        .map(|(kind, c)| pigeon_eval::EdgeFeature {
            a: c.start_node,
            b: c.end_node,
            feature: format!("{}:{}", kind.tag(), abstraction.apply(&c.path)),
        })
        .collect()
}

/// The [`PartialMeta`] a shard worker stamps on its partial for this
/// configuration — the single source of truth for what
/// [`Pigeon::build_training_partial`] emits. The distributed-training
/// coordinator builds the same meta from a job's knobs to fingerprint
/// cache keys and to validate uploaded partials knob-by-knob, so server
/// and worker can never drift on what "the same configuration" means.
pub fn training_partial_meta(
    language: Language,
    target: ElementClass,
    config: &PigeonConfig,
    shard_index: u32,
    shard_count: u32,
    total_docs: u32,
) -> PartialMeta {
    PartialMeta {
        language: language.name().to_owned(),
        target: target_name(target).to_owned(),
        abstraction: config.abstraction.name().to_owned(),
        max_length: config.extraction.max_length as u32,
        max_width: config.extraction.max_width as u32,
        semi_paths: config.extraction.semi_paths,
        dataflow_contexts: config.dataflow_contexts,
        top_k: config.top_k as u32,
        keep_prob: config.keep_prob,
        crf: CrfConfig {
            jobs: 0,
            ..config.crf
        },
        shard_index,
        shard_count,
        total_docs,
    }
}

/// The stable prediction-target string carried by model files and
/// partials.
fn target_name(target: ElementClass) -> &'static str {
    match target {
        ElementClass::Variable => "variables",
        ElementClass::Method => "methods",
        ElementClass::Other => "other",
    }
}

/// Inverse of [`target_name`].
fn target_from_name(name: &str) -> Option<ElementClass> {
    match name {
        "variables" => Some(ElementClass::Variable),
        "methods" => Some(ElementClass::Method),
        "other" => Some(ElementClass::Other),
        _ => None,
    }
}

/// The full single-process corpus pipeline: parallel parse + extract,
/// then source-order downsample + graph build into shared vocabularies.
/// Document `i` downsamples with a seed derived from its **global**
/// index `index_base + i`, so any contiguous slice of the corpus
/// samples exactly as the full run does — the property shard workers
/// rely on.
fn build_training_inputs(
    language: Language,
    target: ElementClass,
    sources: &[&str],
    index_base: usize,
    config: &PigeonConfig,
) -> Result<(Vocabs, Vec<pigeon_crf::Instance>), PigeonError> {
    let extracted = parse_and_extract(language, sources, index_base, config)?;
    let mut vocabs = Vocabs::new();
    let mut instances = Vec::with_capacity(sources.len());
    {
        let _phase = telemetry::span("graph_build");
        for (i, (ast, features)) in extracted.into_iter().enumerate() {
            let mut rng =
                SmallRng::seed_from_u64(derive_seed(DOWNSAMPLE_SEED, (index_base + i) as u64));
            let features = downsample(features, config.keep_prob, &mut rng);
            let graph = build_name_graph(language, &ast, target, &features, &mut vocabs, true);
            instances.push(graph.instance);
        }
    }
    Ok((vocabs, instances))
}

/// Parse + extract fan out over the worker pool; everything that
/// interns into vocabularies (downsampling included, because it
/// consumes the sampling rng) runs afterwards in source order, so the
/// result is identical for any `jobs`. Error messages carry the global
/// document index.
fn parse_and_extract(
    language: Language,
    sources: &[&str],
    index_base: usize,
    config: &PigeonConfig,
) -> Result<Vec<(ast::Ast, Vec<pigeon_eval::EdgeFeature>)>, PigeonError> {
    let rep = Representation::AstPaths(config.abstraction);
    let extracted = {
        let _phase = telemetry::span("parse_extract");
        parallel_map_indexed(sources, config.jobs, |_, source| {
            language.parse(source).map(|ast| {
                let mut features = extract_edge_features(language, &ast, rep, &config.extraction);
                if config.dataflow_contexts {
                    features.extend(dataflow_edge_features(
                        language,
                        &ast,
                        &config.extraction,
                        config.abstraction,
                    ));
                }
                (ast, features)
            })
        })
    };
    if let Some((i, Err(e))) = extracted.iter().enumerate().find(|(_, r)| r.is_err()) {
        return Err(PigeonError::parse(format!(
            "training source {}: {e}",
            index_base + i
        )));
    }
    Ok(extracted
        .into_iter()
        .map(|r| r.expect("errors returned above"))
        .collect())
}

/// Runs the per-document half of the pipeline with **doc-local**
/// vocabularies: each document is parsed, extracted, downsampled with
/// its global-index-derived seed, and graph-built into a fresh
/// [`Vocabs`]. Returns `(labels, features, instance)` per document —
/// local vocabulary strings in first-intern order plus the instance in
/// doc-local ids. In training mode the graph builder's intern sequence
/// depends only on the document, so replaying these local tables in
/// global document order reproduces the shared vocabularies exactly.
#[allow(clippy::type_complexity)]
fn build_doc_partials(
    language: Language,
    target: ElementClass,
    sources: &[&str],
    index_base: usize,
    config: &PigeonConfig,
) -> Result<Vec<(Vec<String>, Vec<String>, pigeon_crf::Instance)>, PigeonError> {
    let extracted = parse_and_extract(language, sources, index_base, config)?;
    let _phase = telemetry::span("graph_build");
    Ok(extracted
        .into_iter()
        .enumerate()
        .map(|(i, (ast, features))| {
            let mut rng =
                SmallRng::seed_from_u64(derive_seed(DOWNSAMPLE_SEED, (index_base + i) as u64));
            let features = downsample(features, config.keep_prob, &mut rng);
            let mut vocabs = Vocabs::new();
            let graph = build_name_graph(language, &ast, target, &features, &mut vocabs, true);
            let labels: Vec<String> = vocabs.labels.iter().map(|(_, s)| s.clone()).collect();
            let feats: Vec<String> = vocabs.features.iter().map(|(_, s)| s.clone()).collect();
            (labels, feats, graph.instance)
        })
        .collect())
}

/// Maps an instance's doc-local label/feature ids through intern maps
/// into a shared id space.
fn remap_instance(
    instance: &pigeon_crf::Instance,
    label_map: &[u32],
    feature_map: &[u32],
) -> pigeon_crf::Instance {
    pigeon_crf::Instance {
        nodes: instance
            .nodes
            .iter()
            .map(|n| pigeon_crf::Node {
                label: label_map[n.label as usize],
                known: n.known,
            })
            .collect(),
        pairwise: instance
            .pairwise
            .iter()
            .map(|pf| pigeon_crf::PairFactor {
                a: pf.a,
                b: pf.b,
                path: feature_map[pf.path as usize],
            })
            .collect(),
        unary: instance
            .unary
            .iter()
            .map(|uf| pigeon_crf::UnaryFactor {
                node: uf.node,
                path: feature_map[uf.path as usize],
            })
            .collect(),
    }
}
