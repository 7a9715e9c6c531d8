//! Prediction tasks, metrics, baselines and experiment drivers for the
//! PIGEON reproduction.
//!
//! This crate wires the substrates together into the paper's evaluation
//! (§5): it generates corpora (`pigeon-corpus`), parses them with the
//! language frontends, extracts a chosen **representation** of element
//! relations — AST paths or one of the paper's baselines — feeds either
//! learner (`pigeon-crf`, `pigeon-word2vec`), and scores predictions with
//! the paper's metrics. The benchmark harness (`pigeon-bench`) calls the
//! drivers here to regenerate every table and figure.
//!
//! # Example
//!
//! Run a miniature version of the Table 2 JavaScript row:
//!
//! ```no_run
//! use pigeon_corpus::{CorpusConfig, Language};
//! use pigeon_eval::{run_name_experiment, NameExperiment};
//!
//! let exp = NameExperiment {
//!     corpus: CorpusConfig::default().with_files(100),
//!     ..NameExperiment::var_names(Language::JavaScript)
//! };
//! let out = run_name_experiment(&exp);
//! println!("accuracy: {:.1}%", 100.0 * out.accuracy);
//! ```

mod breakdown;
pub mod coordinator;
mod elements;
mod features;
mod graph;
mod metrics;
pub mod partial;
mod split;
mod sweeps;
mod tasks;
mod tune;
mod w2v;

pub use breakdown::{role_breakdown, RoleScore};
pub use elements::{classify_elements, find_initializer, Element, ElementClass};
pub use features::{
    extract_edge_features, extract_node_features, EdgeFeature, NodeFeature, Representation,
    NO_PATH_FEATURE,
};
pub use graph::{
    add_semi_paths, add_semi_paths_lookup, build_name_graph, build_name_graph_ids,
    build_name_graph_lookup, build_type_graph, build_type_graph_lookup, DocGraph, Vocabs,
};
pub use metrics::{exact_match, normalize_name, subtoken_prf, subtokens, Scoreboard};
pub use partial::{
    decode_partial, encode_partial, merge_partials, replay, shard_range, DocPartial,
    MergedTraining, PartialMeta, TrainPartial,
};
// The worker pool lives in `pigeon-core` (so `pigeon-crf` can share it);
// re-exported here because every experiment driver fans out over it.
pub use pigeon_core::{effective_jobs, parallel_map_indexed};
pub use split::split_dedup;
pub use sweeps::{
    abstraction_sweep, downsample_sweep, length_width_sweep, AbstractionPoint, DownsamplePoint,
    LengthWidthCell,
};
pub use tasks::{
    naive_string_type_accuracy, rule_based_java_vars, run_name_experiment, run_type_experiment,
    DataflowExtractor, NameExperiment, TaskOutcome, TypeExperiment,
};
pub use tune::{tune_and_run, tune_parameters, TuneResult};
pub use w2v::{run_w2v_experiment, train_w2v, W2vBundle, W2vContext, W2vExperiment};
