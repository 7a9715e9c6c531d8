//! Debug rendering of ASTs.
//!
//! Golden tests in the language frontends compare parser output against
//! the indented form produced by [`pretty`], so the format is stable:
//! one node per line, two-space indentation, terminals rendered as
//! `Kind "value"`.

use crate::tree::{Ast, NodeId};
use std::fmt::Write as _;

/// Renders `ast` as an indented multi-line string.
///
/// ```
/// use pigeon_ast::{AstBuilder, pretty};
/// let mut b = AstBuilder::new("Assign=");
/// b.token("SymbolRef", "d");
/// b.token("True", "true");
/// let text = pretty(&b.finish());
/// assert_eq!(text, "Assign=\n  SymbolRef \"d\"\n  True \"true\"\n");
/// ```
pub fn pretty(ast: &Ast) -> String {
    let mut out = String::new();
    render(ast, ast.root(), 0, &mut out);
    out
}

fn render(ast: &Ast, id: NodeId, indent: usize, out: &mut String) {
    for _ in 0..indent {
        out.push_str("  ");
    }
    match ast.value(id) {
        Some(v) => {
            let _ = writeln!(out, "{} {:?}", ast.kind(id), v);
        }
        None => {
            let _ = writeln!(out, "{}", ast.kind(id));
        }
    }
    for &c in ast.children(id) {
        render(ast, c, indent + 1, out);
    }
}

/// Renders a single-line S-expression form, useful in assertion messages.
///
/// ```
/// use pigeon_ast::{AstBuilder, sexp};
/// let mut b = AstBuilder::new("Assign=");
/// b.token("SymbolRef", "d");
/// b.token("True", "true");
/// assert_eq!(sexp(&b.finish()), "(Assign= (SymbolRef d) (True true))");
/// ```
pub fn sexp(ast: &Ast) -> String {
    let mut out = String::new();
    render_sexp(ast, ast.root(), &mut out);
    out
}

fn render_sexp(ast: &Ast, id: NodeId, out: &mut String) {
    match ast.value(id) {
        Some(v) => {
            let _ = write!(out, "({} {})", ast.kind(id), v);
        }
        None => {
            let _ = write!(out, "({}", ast.kind(id));
            for &c in ast.children(id) {
                out.push(' ');
                render_sexp(ast, c, out);
            }
            out.push(')');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::AstBuilder;

    #[test]
    fn pretty_nests_children() {
        let mut b = AstBuilder::new("While");
        b.start_node("UnaryPrefix!");
        b.token("SymbolRef", "d");
        b.finish_node();
        let text = pretty(&b.finish());
        assert_eq!(text, "While\n  UnaryPrefix!\n    SymbolRef \"d\"\n");
    }

    #[test]
    fn sexp_of_leaf_only_root() {
        let b = AstBuilder::new("Toplevel");
        assert_eq!(sexp(&b.finish()), "(Toplevel)");
    }
}
