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
mod feature_ids;
pub mod http;
pub mod serve;

use feature_ids::FeatureMemo;
use pigeon_core::{derive_seed, downsample, Abstraction, ExtractionConfig, DOWNSAMPLE_SEED};
use pigeon_corpus::Language;
use pigeon_crf::artifact::ArtifactMeta;
use pigeon_crf::{CrfConfig, CrfModel, RawStatistics, TrainControl, TrainOutcome, TrainState};
use pigeon_eval::partial::{replay, DocPartial, PartialMeta, TrainPartial};
use pigeon_eval::{
    build_name_graph, build_name_graph_ids, extract_edge_features, parallel_map_indexed,
    shard_range, DocGraph, ElementClass, Representation, Vocabs,
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
    /// The CRF settings under this configuration's worker budget: the
    /// statistics pass shares it, and the sequential SGD loop makes the
    /// model byte-identical for any value.
    fn crf_with_jobs(&self) -> CrfConfig {
        CrfConfig {
            jobs: self.jobs,
            ..self.crf
        }
    }

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
    /// The longest path [`PigeonConfigBuilder::build`] admits. Not a
    /// knob: it bounds what a model file, artifact, partial or request
    /// can make extraction cost, and admits every setting the paper uses
    /// (Table 2: length ≤ 12).
    pub const MAX_PATH_LENGTH: usize = 16;

    /// The widest path [`PigeonConfigBuilder::build`] admits (the paper
    /// uses width ≤ 6).
    pub const MAX_PATH_WIDTH: usize = 8;

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
    /// * `max_length` above [`Self::MAX_PATH_LENGTH`] or `max_width`
    ///   above [`Self::MAX_PATH_WIDTH`] — extraction cost grows with the
    ///   limits, quadratically in program size at extreme values;
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
        for (what, limit, bound) in [
            ("max_length", c.extraction.max_length, Self::MAX_PATH_LENGTH),
            ("max_width", c.extraction.max_width, Self::MAX_PATH_WIDTH),
        ] {
            if limit > bound {
                return Err(PigeonError::config(format!(
                    "extraction.{what} must be at most {bound}, got {limit}"
                )));
            }
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
    /// Feature ids of the path shapes inference has met; empty at load.
    feature_ids: FeatureMemo,
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
        Pigeon::train_namer_resumable(
            language,
            ElementClass::Variable,
            sources,
            config,
            TrainControl::default(),
        )
        .map(TrainRun::into_completed)
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
        Pigeon::train_namer_resumable(
            language,
            ElementClass::Method,
            sources,
            config,
            TrainControl::default(),
        )
        .map(TrainRun::into_completed)
    }

    /// The one facade trainer, with checkpoint/resume control — the
    /// engine behind `pigeon train` and both `train_*_namer`s. Documents
    /// go through the per-document stage and are replayed in corpus
    /// order, exactly as [`Pigeon::from_partials`] replays one shard
    /// holding the whole corpus; the SGD loop is driven through
    /// `control`, so a run that is never interrupted produces the
    /// byte-identical model.
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
        let mut vocabs = Vocabs::new();
        let instances = replay(
            &mut vocabs,
            &extract_documents(language, target, sources, 0, config)?,
        );
        let outcome = pigeon_crf::train_resumable(
            &instances,
            vocabs.labels.len() as u32,
            &config.crf_with_jobs(),
            control,
        )
        .map_err(PigeonError::config)?;
        Ok(match outcome {
            TrainOutcome::Completed(model) => TrainRun::Completed(Box::new(Pigeon {
                language,
                target,
                config: config.clone(),
                vocabs,
                model: *model,
                feature_ids: FeatureMemo::default(),
            })),
            TrainOutcome::Interrupted(state) => TrainRun::Interrupted(state),
        })
    }

    /// Runs the per-document stage over one deterministic
    /// 1/`shard_count` slice of `sources` (the **full** corpus list;
    /// slicing is internal so every shard agrees on global document
    /// indices), returning a training partial — a `.pgnc` container of
    /// kind `partial` holding the slice's documents, for `pigeon merge`.
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
        let docs = extract_documents(
            language,
            target,
            &sources[range.clone()],
            range.start,
            config,
        )?;
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

    /// Merges training partials written by
    /// [`Pigeon::build_training_partial`], given in any order, and
    /// finishes training — the engine behind `pigeon merge`. The
    /// documents are replayed as single-process training replays them,
    /// and statistics come from the replayed instances, so the result is
    /// byte-identical to single-process training on the full corpus for
    /// any shard count.
    ///
    /// # Errors
    ///
    /// Malformed partials, partials written by an older build, and
    /// partials holding documents other than their shard's own
    /// ([`ErrorKind::ModelFormat`]); partials built under different
    /// configurations or with missing/duplicate shards
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
        let crf = CrfConfig {
            jobs: 1,
            ..meta.crf
        };
        let (language, target, config) = resolve_header(&meta.header, crf, meta.keep_prob)
            .map_err(|e| PigeonError::model_format(format!("partial: {e}")))?;
        let model = pigeon_crf::train_from_statistics(
            &merged.instances,
            merged.vocabs.labels.len() as u32,
            &config.crf,
            merged.stats,
        )
        .map_err(PigeonError::internal)?;
        Ok(Pigeon {
            language,
            target,
            config,
            vocabs: merged.vocabs,
            model,
            feature_ids: FeatureMemo::default(),
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
        // The new documents replay into the (growing) base vocabularies.
        let mut vocabs = self.vocabs.clone();
        let instances = replay(
            &mut vocabs,
            &extract_documents(self.language, self.target, new_sources, 0, &self.config)?,
        );
        let num_labels = vocabs.labels.len() as u32;
        let model = pigeon_crf::train_incremental(
            &instances,
            num_labels,
            &self.config.crf_with_jobs(),
            &self.model,
            &RawStatistics::collect(&instances, num_labels),
        )
        .map_err(PigeonError::config)?;
        Ok(Pigeon {
            language: self.language,
            target: self.target,
            config: self.config.clone(),
            vocabs,
            model,
            feature_ids: FeatureMemo::default(),
        })
    }

    /// The language this predictor was trained for.
    pub fn language(&self) -> Language {
        self.language
    }

    /// The one header writer: the settings a `language`/`target`
    /// predictor under `config` persists. Its model file, compiled
    /// artifact and training partials all carry this header, and
    /// [`resolve_header`] turns it back into the predictor's settings.
    pub fn header(language: Language, target: ElementClass, config: &PigeonConfig) -> ArtifactMeta {
        ArtifactMeta {
            language: language.name().to_owned(),
            target: target.name().to_owned(),
            abstraction: config.abstraction.name().to_owned(),
            max_length: config.extraction.max_length as u32,
            max_width: config.extraction.max_width as u32,
            semi_paths: config.extraction.semi_paths,
            top_k: config.top_k as u32,
            dataflow_contexts: config.dataflow_contexts,
        }
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
        let (labels, features) = self.vocabs.tables();
        let mut file = Pigeon::header(self.language, self.target, &self.config).to_json();
        file.insert("labels".to_owned(), serde_json::json!(labels));
        file.insert("features".to_owned(), serde_json::json!(features));
        file.insert("model".to_owned(), serde_json::json!(self.model.to_json()?));
        serde_json::to_string(&serde_json::Value::Object(file))
    }

    /// Restores a predictor serialised by [`Pigeon::to_json`].
    ///
    /// # Errors
    ///
    /// Returns [`PigeonError`] on malformed input.
    pub fn from_json(json: &str) -> Result<Pigeon, PigeonError> {
        let err = |m: &str| PigeonError::model_format(format!("model file: {m}"));
        let v: serde_json::Value = serde_json::from_str(json).map_err(|e| err(&e.to_string()))?;
        let header = ArtifactMeta::from_json(&v).map_err(|m| err(&m))?;
        // Training-only settings take their defaults: a deserialized
        // model is for prediction.
        let (language, target, config) =
            resolve_header(&header, CrfConfig::default(), 1.0).map_err(|e| err(e.message()))?;
        let table = |key: &str| -> Result<Vec<String>, PigeonError> {
            v.get(key)
                .and_then(|x| x.as_array())
                .ok_or_else(|| err(&format!("missing field `{key}`")))?
                .iter()
                .map(|item| item.as_str().map(str::to_owned))
                .collect::<Option<_>>()
                .ok_or_else(|| err("non-string vocab item"))
        };
        let vocabs =
            Vocabs::from_tables(table("labels")?, table("features")?).map_err(|m| err(&m))?;
        // A truncated or hand-edited file can carry weight-table ids
        // beyond the vocabularies it ships, non-finite weights, or
        // absurd inference caps; the loader validates against the
        // vocabularies so `predict` never indexes out of bounds or
        // scores against a poisoned table.
        let model_json = v
            .get("model")
            .and_then(|x| x.as_str())
            .ok_or_else(|| err("missing field `model`"))?;
        let model = CrfModel::from_json(model_json, vocabs.features.len(), vocabs.labels.len())
            .map_err(|e| err(&e.to_string()))?;
        Ok(Pigeon {
            language,
            target,
            config,
            vocabs,
            model,
            feature_ids: FeatureMemo::default(),
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
        let (labels, features) = self.vocabs.tables();
        let header = Pigeon::header(self.language, self.target, &self.config);
        crf::artifact::write_artifact(&header, &labels, &features, &self.model, quant)
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
        // Training-only settings take their defaults: an artifact-backed
        // model is for prediction.
        let (language, target, config) =
            resolve_header(&art.meta, CrfConfig::default(), 1.0).map_err(|e| err(e.message()))?;
        let vocabs = Vocabs::from_tables(art.labels, art.features).map_err(|m| err(&m))?;
        Ok(Pigeon {
            language,
            target,
            config,
            vocabs,
            model: art.model,
            feature_ids: FeatureMemo::default(),
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
        let inference = self.infer(source)?;
        let out = inference
            .rows(&self.vocabs)
            .map(|(current, predicted, candidates)| Prediction {
                current_name: current.to_owned(),
                predicted_name: predicted.to_owned(),
                candidates: candidates
                    .map(|(name, score)| (name.to_owned(), score))
                    .collect(),
            })
            .collect();
        Ok(out)
    }

    /// Predicts names for `source` like [`Pigeon::predict`] and appends
    /// them to `out` as the JSON array the `/v1` predict routes answer
    /// (see [`render_predictions`]), straight from the inference result:
    /// no [`Prediction`] strings and no JSON tree. Returns how many
    /// predictions it wrote; on an error `out` is left as it was.
    ///
    /// # Errors
    ///
    /// Returns [`PigeonError`] when `source` fails to parse.
    pub(crate) fn predict_json(
        &self,
        source: &str,
        out: &mut String,
    ) -> Result<usize, PigeonError> {
        let inference = self.infer(source)?;
        render_predictions(out, inference.rows(&self.vocabs));
        Ok(inference.graph.unknown_nodes.len())
    }

    /// The one inference routine behind [`Pigeon::predict`] and
    /// [`Pigeon::predict_json`]: parse, resolve each leaf pair's and
    /// data-flow path's feature id through the model's memo (no feature
    /// strings for shapes it has met), build the graph from the ids, then
    /// one joint ICM inference plus ranking. The graph is the one the
    /// string pipeline (`extract_edge_features`, `dataflow_edge_features`,
    /// `build_name_graph_lookup`) builds.
    fn infer(&self, source: &str) -> Result<Inference, PigeonError> {
        let _span = telemetry::span("predict");
        let ast = self.language.parse(source).map_err(PigeonError::parse)?;
        // A model trained with flow features must see them at prediction
        // time too, or its `lw:`/`lu:` weights go unused.
        let flow = self
            .config
            .dataflow_contexts
            .then(|| pigeon_analysis::flow_edges(self.language, &ast));
        let features = self.feature_ids.feature_ids(
            &ast,
            flow.as_deref(),
            &self.config.extraction,
            self.config.abstraction,
            &self.vocabs,
        );
        // Lookup-only graph build: prediction never grows the
        // vocabularies, so the hot path borrows them directly — no
        // per-call clone, and `&self` stays shareable across threads.
        let graph = build_name_graph_ids(self.language, &ast, self.target, &features, &self.vocabs);
        // One span per program around its single inference plus ranking;
        // the engine's `infer` carries none, since training runs it for
        // every instance in every epoch.
        let (labels, ranked) = {
            let _infer = telemetry::span("crf_infer");
            self.model
                .predict_top_k(&graph.instance, &graph.unknown_nodes, self.config.top_k)
        };
        Ok(Inference {
            graph,
            labels,
            ranked,
        })
    }

    /// Predicts names for many programs at once, fanning the per-program
    /// work (parse, extraction, graph build, inference) over `jobs`
    /// worker threads; `1` is fully serial, `0` uses all available
    /// cores.
    ///
    /// Accepts any slice of string-likes (`&[&str]`, `&[String]`, …), so
    /// callers that own their sources need no intermediate re-borrow.
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

/// One program's inference result: its name graph, ICM's joint
/// labelling and each unknown's ranked `(label, score)` list.
struct Inference {
    graph: DocGraph,
    labels: Vec<u32>,
    ranked: Vec<Vec<(u32, f32)>>,
}

impl Inference {
    /// Each unknown in first-occurrence order as `(current name,
    /// predicted name, ranked candidates)`, every string borrowed from
    /// the graph or the model's label vocabulary.
    fn rows<'a>(
        &'a self,
        vocabs: &'a Vocabs,
    ) -> impl Iterator<Item = (&'a str, &'a str, impl Iterator<Item = (&'a str, f32)> + 'a)> + 'a
    {
        self.graph
            .unknown_nodes
            .iter()
            .zip(&self.ranked)
            .map(move |(&node, top)| {
                (
                    self.graph.node_names[node].as_str(),
                    vocabs.label_name(self.labels[node]),
                    top.iter()
                        .map(move |&(label, score)| (vocabs.label_name(label), score)),
                )
            })
    }
}

/// Appends one program's predictions to `out` as the JSON array both
/// `/v1` predict routes answer: one object per row, keys in the order
/// `candidates`, `current_name`, `predicted_name`, each candidate a
/// `[name, score]` pair. Strings go through the JSON printer's own
/// escaper and each score through its number writer as
/// `f64::from(score)` (`null` when not finite), so the bytes equal what
/// `serde_json::to_string` prints for the same predictions as a JSON
/// tree.
pub(crate) fn render_predictions<'a, C>(
    out: &mut String,
    rows: impl IntoIterator<Item = (&'a str, &'a str, C)>,
) where
    C: IntoIterator<Item = (&'a str, f32)>,
{
    out.push('[');
    for (i, (current, predicted, candidates)) in rows.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"candidates\":[");
        for (j, (name, score)) in candidates.into_iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push('[');
            serde_json::write_string(out, name);
            out.push(',');
            serde_json::write_number(out, serde_json::Number::Float(f64::from(score)));
            out.push(']');
        }
        out.push_str("],\"current_name\":");
        serde_json::write_string(out, current);
        out.push_str(",\"predicted_name\":");
        serde_json::write_string(out, predicted);
        out.push('}');
    }
    out.push(']');
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

impl TrainRun {
    /// The predictor of a run without an interrupt hook.
    fn into_completed(self) -> Pigeon {
        match self {
            TrainRun::Completed(model) => *model,
            TrainRun::Interrupted(_) => unreachable!("no interrupt installed"),
        }
    }
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
    feature_ids::flow_edge_features(ast, &edges, extraction, abstraction)
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
        header: Pigeon::header(language, target, config),
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

/// The one header resolver: turns a persisted header, plus the CRF
/// settings and `keep_prob` a training partial carries beside it (model
/// files and artifacts pass the defaults), into a predictor's language,
/// target and configuration through [`PigeonConfigBuilder::build`].
/// Every loader — [`Pigeon::from_json`], [`Pigeon::from_artifact`],
/// [`Pigeon::from_partials`] and the distributed worker's lease — runs
/// this, so what counts as a valid predictor is decided in one place.
///
/// # Errors
///
/// [`ErrorKind::ModelFormat`] naming an unknown language, target or
/// abstraction, or whatever [`PigeonConfigBuilder::build`] rejects
/// (`max_length`, `max_width`, `top_k`, …).
pub fn resolve_header(
    header: &ArtifactMeta,
    crf: CrfConfig,
    keep_prob: f64,
) -> Result<(Language, ElementClass, PigeonConfig), PigeonError> {
    let unknown =
        |what: &str, name: &str| PigeonError::model_format(format!("unknown {what} `{name}`"));
    let language = Language::from_name(&header.language)
        .ok_or_else(|| unknown("language", &header.language))?;
    let target =
        ElementClass::from_name(&header.target).ok_or_else(|| unknown("target", &header.target))?;
    let abstraction = Abstraction::from_name(&header.abstraction)
        .ok_or_else(|| unknown("abstraction", &header.abstraction))?;
    let config = PigeonConfig::builder()
        .limits(header.max_length as usize, header.max_width as usize)
        .semi_paths(header.semi_paths)
        .abstraction(abstraction)
        .top_k(header.top_k as usize)
        .dataflow_contexts(header.dataflow_contexts)
        .crf(crf)
        .keep_prob(keep_prob)
        .build()
        .map_err(|e| PigeonError::model_format(e.message))?;
    Ok((language, target, config))
}

/// The one per-document stage. Each document is parsed, extracted (plus
/// data-flow contexts when on), downsampled with a seed derived from its
/// **global** index `index_base + i`, and graph-built into its own
/// [`Vocabs`], all in one pass over the worker pool, giving one
/// [`DocPartial`] record per document. Nothing is shared
/// between documents, so the result is identical for any `jobs`, and a
/// contiguous slice of the corpus yields exactly the documents the full
/// run does — the property shard workers rely on. Errors name the first
/// failing source by its global index.
fn extract_documents(
    language: Language,
    target: ElementClass,
    sources: &[&str],
    index_base: usize,
    config: &PigeonConfig,
) -> Result<Vec<DocPartial>, PigeonError> {
    let rep = Representation::AstPaths(config.abstraction);
    let _phase = telemetry::span("parse_extract");
    parallel_map_indexed(sources, config.jobs, |i, source| {
        let ast = language.parse(source)?;
        let mut features = extract_edge_features(language, &ast, rep, &config.extraction);
        if config.dataflow_contexts {
            features.extend(dataflow_edge_features(
                language,
                &ast,
                &config.extraction,
                config.abstraction,
            ));
        }
        let mut rng =
            SmallRng::seed_from_u64(derive_seed(DOWNSAMPLE_SEED, (index_base + i) as u64));
        let features = downsample(features, config.keep_prob, &mut rng);
        let mut vocabs = Vocabs::new();
        let graph = build_name_graph(language, &ast, target, &features, &mut vocabs, true);
        let (labels, features) = vocabs.tables();
        Ok::<_, String>(DocPartial {
            global_index: (index_base + i) as u32,
            labels,
            features,
            instance: graph.instance,
        })
    })
    .into_iter()
    .enumerate()
    .map(|(i, doc)| {
        doc.map_err(|e| PigeonError::parse(format!("training source {}: {e}", index_base + i)))
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::{open_predict_body, push_batch_entry, with_api};
    use proptest::prelude::*;

    /// Characters the JSON escaper treats specially, plus non-ASCII.
    const TRICKY: [char; 16] = [
        '"', '\\', '/', '\n', '\t', '\r', '\u{08}', '\u{0C}', '\u{0}', '\u{1F}', '\u{7F}', 'é',
        '😀', '\u{2028}', '\u{FFFF}', 'a',
    ];

    /// Names mixing [`TRICKY`] with arbitrary scalar values.
    fn name() -> impl Strategy<Value = String> {
        prop::collection::vec((0..TRICKY.len() + 4, any::<u32>()), 0..8).prop_map(|chars| {
            chars
                .into_iter()
                .map(|(pick, bits)| {
                    TRICKY
                        .get(pick)
                        .copied()
                        .unwrap_or_else(|| char::from_u32(bits % 0x11_0000).unwrap_or('\u{FFFD}'))
                })
                .collect()
        })
    }

    /// Scores: the edge cases of `f32`, then arbitrary bit patterns.
    fn score() -> impl Strategy<Value = f32> {
        const EDGES: [f32; 10] = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
            0.0,
            f32::MAX,
            f32::MIN,
            f32::MIN_POSITIVE,
            1.0e-45,
            -3.0e-40,
        ];
        (0..EDGES.len() * 2, any::<u32>())
            .prop_map(|(pick, bits)| EDGES.get(pick).copied().unwrap_or(f32::from_bits(bits)))
    }

    type Row = (String, String, Vec<(String, f32)>);

    fn rows() -> impl Strategy<Value = Vec<Row>> {
        prop::collection::vec(
            (
                name(),
                name(),
                prop::collection::vec((name(), score()), 0..5),
            ),
            0..5,
        )
    }

    /// One program's predictions as the JSON tree the predict routes
    /// answered before they rendered straight from the inference result.
    fn rows_as_tree(rows: &[Row]) -> serde_json::Value {
        serde_json::Value::Array(
            rows.iter()
                .map(|(current, predicted, candidates)| {
                    serde_json::json!({
                        "current_name": current,
                        "predicted_name": predicted,
                        "candidates": serde_json::Value::Array(
                            candidates
                                .iter()
                                .map(|(name, score)| serde_json::json!([name, score]))
                                .collect(),
                        ),
                    })
                })
                .collect(),
        )
    }

    fn render(out: &mut String, rows: &[Row]) -> usize {
        render_predictions(
            out,
            rows.iter().map(|(current, predicted, candidates)| {
                (
                    current.as_str(),
                    predicted.as_str(),
                    candidates
                        .iter()
                        .map(|(name, score)| (name.as_str(), *score)),
                )
            }),
        );
        rows.len()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// Both predict routes' bodies equal what the JSON printer makes
        /// of the same response as a tree, for any names and scores.
        #[test]
        fn rendered_bodies_equal_the_printed_json_tree(
            version in any::<u64>(),
            programs in prop::collection::vec((rows(), any::<bool>(), name()), 0..4),
        ) {
            let (first, _, _) = programs.first().cloned().unwrap_or_default();
            let mut single = open_predict_body(version, "predictions");
            render(&mut single, &first);
            single.push('}');
            let tree = with_api(serde_json::json!({
                "model_version": version,
                "predictions": rows_as_tree(&first),
            }));
            prop_assert_eq!(&single, &serde_json::to_string(&tree).unwrap());

            let mut batch = open_predict_body(version, "results");
            batch.push('[');
            let mut results = Vec::new();
            for (i, (rows, fails, message)) in programs.iter().enumerate() {
                if i > 0 {
                    batch.push(',');
                }
                if *fails {
                    let e = PigeonError::parse(message.clone());
                    results.push(serde_json::json!({ "code": e.code(), "error": e.to_string() }));
                    prop_assert_eq!(push_batch_entry(&mut batch, |_| Err(e)), None);
                } else {
                    results.push(serde_json::json!({ "predictions": rows_as_tree(rows) }));
                    let n = push_batch_entry(&mut batch, |out| Ok(render(out, rows)));
                    prop_assert_eq!(n, Some(rows.len()));
                }
            }
            batch.push_str("]}");
            let tree = with_api(serde_json::json!({
                "model_version": version,
                "results": serde_json::Value::Array(results),
            }));
            prop_assert_eq!(&batch, &serde_json::to_string(&tree).unwrap());
        }
    }

    /// The string pipeline's graph of `source` under `model`: rendered
    /// features looked up one by one.
    fn string_graph(model: &Pigeon, source: &str) -> DocGraph {
        let ast = model.language.parse(source).unwrap();
        let rep = Representation::AstPaths(model.config.abstraction);
        let mut features =
            extract_edge_features(model.language, &ast, rep, &model.config.extraction);
        if model.config.dataflow_contexts {
            features.extend(dataflow_edge_features(
                model.language,
                &ast,
                &model.config.extraction,
                model.config.abstraction,
            ));
        }
        pigeon_eval::build_name_graph_lookup(
            model.language,
            &ast,
            model.target,
            &features,
            &model.vocabs,
        )
    }

    /// `(current, predicted, [(candidate, score bits)])` per unknown.
    type Named = Vec<(String, String, Vec<(String, u32)>)>;

    fn named(model: &Pigeon, graph: &DocGraph) -> Named {
        let (labels, ranked) =
            model
                .model
                .predict_top_k(&graph.instance, &graph.unknown_nodes, model.config.top_k);
        let inference = Inference {
            graph: DocGraph {
                instance: graph.instance.clone(),
                node_names: graph.node_names.clone(),
                unknown_nodes: graph.unknown_nodes.clone(),
            },
            labels,
            ranked,
        };
        inference
            .rows(&model.vocabs)
            .map(|(current, predicted, candidates)| {
                (
                    current.to_owned(),
                    predicted.to_owned(),
                    candidates
                        .map(|(name, score)| (name.to_owned(), score.to_bits()))
                        .collect(),
                )
            })
            .collect()
    }

    fn predicted(model: &Pigeon, source: &str) -> Named {
        model
            .predict(source)
            .unwrap()
            .into_iter()
            .map(|p| {
                (
                    p.current_name,
                    p.predicted_name,
                    p.candidates
                        .into_iter()
                        .map(|(name, score)| (name, score.to_bits()))
                        .collect(),
                )
            })
            .collect()
    }

    fn assert_same_graph(a: &DocGraph, b: &DocGraph, what: &str) {
        assert_eq!(a.instance.nodes, b.instance.nodes, "{what}: nodes");
        assert_eq!(a.instance.pairwise, b.instance.pairwise, "{what}: pairwise");
        assert_eq!(a.instance.unary, b.instance.unary, "{what}: unary");
        assert_eq!(a.node_names, b.node_names, "{what}: names");
        assert_eq!(a.unknown_nodes, b.unknown_nodes, "{what}: unknowns");
    }

    /// Fills `model`'s memo to its bound with shapes no tree has.
    fn fill_memo(model: &Pigeon) {
        let cap = model.vocabs.features.len() + feature_ids::MEMO_SLACK;
        let filler = ast::Kind::new("MemoFiller");
        let mut i = 0u32;
        while model.feature_ids.len() < cap {
            let kinds = [filler, ast::Kind::new(&format!("Filler{i}")), filler];
            model.feature_ids.insert_for_tests(&kinds, 1);
            i += 1;
        }
    }

    /// The id path builds the string pipeline's graph and predicts the
    /// same names and score bits, in all four languages, under every
    /// abstraction (the no-path baseline's two orientations included),
    /// with data flow off and on — with the memo cold, warm and full.
    #[test]
    fn feature_ids_build_the_string_pipelines_graph() {
        use pigeon_corpus::{generate, CorpusConfig};
        for language in Language::ALL {
            let corpus = generate(language, &CorpusConfig::default().with_files(8));
            let sources: Vec<&str> = corpus.docs.iter().map(|d| d.source.as_str()).collect();
            let (train, held_out) = sources.split_at(6);
            for abstraction in Abstraction::ALL {
                for dataflow in [false, true] {
                    let config = PigeonConfig::builder()
                        .abstraction(abstraction)
                        .dataflow_contexts(dataflow)
                        .crf(CrfConfig {
                            epochs: 2,
                            ..CrfConfig::default()
                        })
                        .build()
                        .unwrap();
                    let model = Pigeon::train_variable_namer(language, train, &config).unwrap();
                    for state in ["cold", "warm", "full"] {
                        if state == "full" {
                            fill_memo(&model);
                        }
                        for source in held_out.iter().chain(&train[..2]) {
                            let what = format!(
                                "{} {abstraction} flow={dataflow} {state}",
                                language.name()
                            );
                            let expected = string_graph(&model, source);
                            let graph = model.infer(source).unwrap().graph;
                            assert_same_graph(&graph, &expected, &what);
                            assert_eq!(
                                predicted(&model, source),
                                named(&model, &expected),
                                "{what}"
                            );
                        }
                    }
                    let cap = model.vocabs.features.len() + feature_ids::MEMO_SLACK;
                    assert_eq!(model.feature_ids.len(), cap);
                }
            }
        }
    }

    /// Shapes the model never saw, well past the memo's bound, never
    /// grow it beyond the model's feature count plus the slack, and
    /// every graph stays the string pipeline's.
    #[test]
    fn the_memo_stays_bounded_under_unseen_shapes() {
        use pigeon_corpus::{generate, CorpusConfig};
        let corpus = generate(Language::JavaScript, &CorpusConfig::default().with_files(6));
        let sources: Vec<&str> = corpus.docs.iter().map(|d| d.source.as_str()).collect();
        let model =
            Pigeon::train_variable_namer(Language::JavaScript, &sources, &PigeonConfig::default())
                .unwrap();
        let cap = model.vocabs.features.len() + feature_ids::MEMO_SLACK;
        let mut seen = 0;
        for doc in 0..40 {
            // Each statement's two leaves meet under a kind of their own,
            // so every pair is a shape the model has no feature for.
            let mut b = ast::AstBuilder::new("Toplevel");
            for stmt in 0..150 {
                b.start_node(format!("Unseen{doc}x{stmt}").as_str());
                b.token("SymbolVar", "x");
                b.token("SymbolRef", "y");
                b.finish_node();
            }
            let tree = b.finish();
            let extraction = model.config.extraction;
            let ids = model.feature_ids.feature_ids(
                &tree,
                None,
                &extraction,
                model.config.abstraction,
                &model.vocabs,
            );
            assert!(ids.is_empty(), "unseen shapes resolve to no feature");
            seen += 150;
            assert!(
                model.feature_ids.len() <= cap,
                "{} > {cap}",
                model.feature_ids.len()
            );
        }
        assert!(seen > cap, "the test must push past the bound");
        assert_eq!(model.feature_ids.len(), cap);
        for source in &sources {
            let expected = string_graph(&model, source);
            assert_same_graph(&model.infer(source).unwrap().graph, &expected, "full memo");
            assert_eq!(predicted(&model, source), named(&model, &expected));
        }
        assert_eq!(model.feature_ids.len(), cap);
    }
}
