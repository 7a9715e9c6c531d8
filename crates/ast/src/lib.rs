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
//! use pigeon_ast::{AstBuilder, Symbol};
//!
//! let mut b = AstBuilder::new("Toplevel");
//! b.start_node("Assign=");
//! b.token("SymbolRef", "d");
//! b.token("True", "true");
//! b.finish_node();
//! let ast = b.finish();
//!
//! let d = ast.leaves_with_value(Symbol::new("d"));
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
pub use symbol::{Kind, Symbol};
pub use tree::{Ancestors, Ast, AstBuilder, NodeId};

/// A half-open byte range into the source text a node was parsed from.
///
/// Spans are informational: path extraction never inspects them, but
/// prediction reports use them to point at the renamed element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Span {
    /// Byte offset of the first character.
    pub start: u32,
    /// Byte offset one past the last character.
    pub end: u32,
}

impl Span {
    /// Creates a span covering `start..end`.
    pub fn new(start: u32, end: u32) -> Self {
        Span { start, end }
    }

    /// Number of bytes covered.
    pub fn len(self) -> usize {
        (self.end - self.start) as usize
    }

    /// Whether the span covers no bytes.
    pub fn is_empty(self) -> bool {
        self.start == self.end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_len() {
        assert_eq!(Span::new(2, 7).len(), 5);
        assert!(Span::default().is_empty());
    }
}
