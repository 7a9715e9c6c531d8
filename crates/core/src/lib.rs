//! AST paths, path-contexts and abstractions: the path-based
//! representation of *A General Path-Based Representation for Predicting
//! Program Properties* (Alon et al., PLDI 2018).
//!
//! This crate is the paper's primary contribution. Given an AST built by
//! any `pigeon-*` frontend, it extracts the **path-contexts**
//! `⟨x_s, p, x_f⟩` that represent each program element, applies the
//! **abstraction functions** of §5.6, enforces the `max_length` /
//! `max_width` hyper-parameters of §4.2, and supports the occurrence
//! **downsampling** of §5.5. The output feeds either learner unchanged —
//! the CRF in `pigeon-crf` or the SGNS embeddings in `pigeon-word2vec`.
//!
//! # Quickstart
//!
//! Extract the headline path of the paper's Fig. 1:
//!
//! ```
//! use pigeon_ast::AstBuilder;
//! use pigeon_core::{extract, ExtractionConfig};
//!
//! // while (!d) { if (someCondition()) { d = true; } }
//! let mut b = AstBuilder::new("Toplevel");
//! b.start_node("While");
//! b.start_node("UnaryPrefix!");
//! b.token("SymbolRef", "d");
//! b.finish_node();
//! b.start_node("If");
//! b.start_node("Call");
//! b.token("SymbolRef", "someCondition");
//! b.finish_node();
//! b.start_node("Assign=");
//! b.token("SymbolRef", "d");
//! b.token("True", "true");
//! b.finish_node();
//! b.finish_node();
//! b.finish_node();
//! let ast = b.finish();
//!
//! let contexts = extract(&ast, &ExtractionConfig::default());
//! let d_to_d = contexts
//!     .iter()
//!     .find(|c| c.start.as_str() == "d" && c.end.as_str() == "d")
//!     .expect("the two occurrences of d are connected");
//! assert_eq!(
//!     d_to_d.path.to_string(),
//!     "SymbolRef ↑ UnaryPrefix! ↑ While ↓ If ↓ Assign= ↓ SymbolRef",
//! );
//! ```

mod abstraction;
mod context;
mod element;
mod extract;
mod fingerprint;
mod nwise;
mod parallel;
mod path;
mod sampling;
mod vocab;

pub use abstraction::{AbstractPath, Abstraction, PathElem};
pub use context::{FlowEdge, FlowKind, PathContext, PathEnd};
pub use element::element_occurrences;
pub use extract::{
    contexts_to_node, extract, flow_contexts, leaf_pair_contexts, path_between, semi_path_contexts,
    shape_path, visit_flow_paths, visit_leaf_pairs, ExtractionConfig, ShapeMap,
    DATAFLOW_CONTEXTS_TOTAL,
};
pub use fingerprint::{fnv64, normalized_fingerprint, Fnv64};
pub use nwise::{triple_contexts, NWiseContext};
pub use parallel::{effective_jobs, parallel_map_indexed};
pub use path::{AstPath, Direction};
pub use sampling::{derive_seed, downsample, DOWNSAMPLE_SEED};
pub use vocab::{Interner, PathId, PathVocab};
