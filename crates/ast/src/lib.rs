//! Generic abstract syntax tree substrate for the PIGEON path-based
//! representation.
//!
//! This crate realises Definition 4.1 of *A General Path-Based
//! Representation for Predicting Program Properties* (Alon et al., PLDI
//! 2018): an AST is a tuple `⟨N, T, X, s, δ, val⟩`. Every language
//! frontend in this workspace (`pigeon-js`, `pigeon-java`, `pigeon-python`,
//! `pigeon-csharp`) lowers source text into the same [`Ast`] arena so that
//! path extraction in `pigeon-core` is language-agnostic — the property the
//! paper calls out as making the representation "useful for any programming
//! language".
//!
//! # Example
//!
//! Building the AST of the paper's Fig. 1 fragment `d = true;` by hand:
//!
//! ```
//! use pigeon_ast::AstBuilder;
//!
//! let mut b = AstBuilder::new("Toplevel");
//! b.start_node("Assign=");
//! b.token("SymbolRef", "d");
//! b.token("True", "true");
//! b.finish_node();
//! let ast = b.finish();
//!
//! let d = ast.leaves_with_value("d");
//! assert_eq!(d.len(), 1);
//! assert_eq!(ast.kind(ast.parent(d[0]).unwrap()).as_str(), "Assign=");
//! ```

mod build;
mod print;
mod symbol;
pub mod syntax;
mod tree;

pub use build::TreeNode;
pub use print::{pretty, sexp};
pub use symbol::Kind;
pub use tree::{Ancestors, Ast, AstBuilder, NodeId};
