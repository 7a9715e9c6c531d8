//! n-wise path contexts (§4.1: "in general we consider n-wise paths,
//! i.e., those that have more than two ends").
//!
//! A pairwise path connects two nodes through their lowest common
//! ancestor. An *n-wise* path connects `n` nodes through the LCA of the
//! whole set: a star of walks sharing one top node. The paper's
//! experiments use pairwise paths for tractability; this module
//! implements the generalisation the family is defined over, with
//! triple-wise extraction as the practical instance.

use crate::context::PathEnd;
use crate::extract::{path_between, ExtractionConfig};
use crate::path::AstPath;
use pigeon_ast::{Ast, NodeId};

/// An n-wise path context: `n` end values and the star of paths from the
/// first end to each other end (all sharing the top node).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NWiseContext<'a> {
    /// The end values, in source order.
    pub ends: Vec<PathEnd<'a>>,
    /// The end nodes, in source order.
    pub nodes: Vec<NodeId>,
    /// Paths from the first end to each subsequent end.
    pub paths: Vec<AstPath>,
}

impl NWiseContext<'_> {
    /// Number of ends (`n`).
    pub fn arity(&self) -> usize {
        self.ends.len()
    }

    /// Renders the context as `⟨x₁, …, x_n | p₂; …; p_n⟩`.
    pub fn display(&self) -> String {
        let ends: Vec<&str> = self.ends.iter().map(|e| e.as_str()).collect();
        let paths: Vec<String> = self.paths.iter().map(|p| p.to_string()).collect();
        format!("⟨{} | {}⟩", ends.join(", "), paths.join("; "))
    }
}

/// Extracts all triple-wise contexts among consecutive leaf triples
/// within the configured limits. Consecutive triples keep the count
/// linear in the number of leaves while still capturing the
/// "three elements in one construct" signal pairwise paths miss.
pub fn triple_contexts<'a>(ast: &'a Ast, cfg: &ExtractionConfig) -> Vec<NWiseContext<'a>> {
    let leaves = ast.leaves();
    let mut out = Vec::new();
    if leaves.len() < 3 {
        return out;
    }
    for w in leaves.windows(3) {
        let (a, b, c) = (w[0], w[1], w[2]);
        let (pab, wab) = path_between(ast, a, b);
        let (pac, wac) = path_between(ast, a, c);
        if pab.len() > cfg.max_length
            || pac.len() > cfg.max_length
            || wab > cfg.max_width
            || wac > cfg.max_width
        {
            continue;
        }
        let end = |n: NodeId| PathEnd::Value(ast.value(n).expect("leaves carry values"));
        out.push(NWiseContext {
            ends: vec![end(a), end(b), end(c)],
            nodes: vec![a, b, c],
            paths: vec![pab, pac],
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pigeon_ast::AstBuilder;

    fn fig5_ast() -> Ast {
        let mut b = AstBuilder::new("Toplevel");
        b.start_node("Var");
        for name in ["a", "b", "c", "d"] {
            b.start_node("VarDef");
            b.token("SymbolVar", name);
            b.finish_node();
        }
        b.finish_node();
        b.finish()
    }

    #[test]
    fn triples_cover_consecutive_leaves() {
        let ast = fig5_ast();
        let triples = triple_contexts(&ast, &ExtractionConfig::with_limits(8, 8));
        assert_eq!(triples.len(), 2, "a-b-c and b-c-d");
        assert_eq!(triples[0].arity(), 3);
        let ends: Vec<&str> = triples[0].ends.iter().map(|e| e.as_str()).collect();
        assert_eq!(ends, ["a", "b", "c"]);
    }

    #[test]
    fn limits_apply_to_every_arm() {
        let ast = fig5_ast();
        // a–c has width 2: width limit 1 rejects the a-b-c triple.
        let narrow = triple_contexts(&ast, &ExtractionConfig::with_limits(8, 1));
        assert!(narrow.is_empty());
        let wide = triple_contexts(&ast, &ExtractionConfig::with_limits(8, 2));
        assert_eq!(wide.len(), 2);
    }

    #[test]
    fn display_renders_all_ends() {
        let ast = fig5_ast();
        let triples = triple_contexts(&ast, &ExtractionConfig::with_limits(8, 8));
        let text = triples[0].display();
        assert!(text.starts_with("⟨a, b, c | "));
        assert!(text.contains("; "));
    }

    #[test]
    fn tiny_trees_yield_nothing() {
        let mut b = AstBuilder::new("Toplevel");
        b.token("SymbolRef", "x");
        let ast = b.finish();
        assert!(triple_contexts(&ast, &ExtractionConfig::default()).is_empty());
    }
}
