//! Conditional random field learner with unary and pairwise path factors.
//!
//! This crate re-implements the learning stack the paper plugs its
//! representation into: a Nice2Predict-style CRF (Raychev et al.,
//! POPL'15) scoring joint label assignments over program elements, with
//! the paper's two extensions — **unary factors** derived from paths
//! between occurrences of the same element, and a **top-k candidates**
//! API (§5.1). Training is max-margin (structured-hinge subgradient with
//! loss-augmented MAP and weight averaging); inference is iterated
//! conditional modes over co-occurrence-derived candidate sets.
//!
//! The crate is deliberately representation-agnostic: labels and path
//! features are dense `u32` ids, interned by the caller. Swapping AST
//! paths for n-grams or hand-crafted relations — the paper's baselines —
//! changes only the ids fed in, never this crate, which is exactly the
//! experiment §5.3 runs.
//!
//! # Example
//!
//! ```
//! use pigeon_crf::{train, CrfConfig, Instance, Node};
//!
//! // Unknown node 0 relates to known node 1 via path 7; gold label 2.
//! let mut inst = Instance::new(vec![Node::unknown(2), Node::known(3)]);
//! inst.add_pair(0, 1, 7);
//!
//! let model = train(std::slice::from_ref(&inst), 4, &CrfConfig::default());
//! assert_eq!(model.predict(&inst)[0], 2);
//! ```

pub mod artifact;
pub mod checkpoint;
mod engine;
mod instance;
mod model;
mod serialize;
mod train;

pub use instance::{Instance, Node, PairFactor, UnaryFactor};
pub use model::{CrfModel, ModelIssue, MAX_CANDIDATES_BOUND, MAX_PASSES_BOUND};
pub use train::{
    train, train_from_statistics, train_incremental, train_resumable, CrfConfig, RawStatistics,
    TrainControl, TrainOutcome, TrainState,
};
