//! Path-contexts (Definition 4.3).
//!
//! A path-context is a triple `⟨x_s, p, x_f⟩`: the values at the two ends
//! of an AST path. The paper mostly uses paths between terminals, whose
//! ends are terminal values; for the full-type prediction task it also
//! uses paths from terminals to the *nonterminal* whose type is predicted,
//! and semi-paths from a terminal to one of its ancestors. [`PathEnd`]
//! covers both cases.

use crate::path::AstPath;
use pigeon_ast::{Kind, NodeId};
use std::fmt;

/// One end of a path-context: either a terminal's value or a nonterminal's
/// kind (for semi-paths and leaf-to-nonterminal paths). A value is
/// borrowed from the tree it was extracted from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PathEnd<'a> {
    /// The end is a terminal; carries `val(n)`.
    Value(&'a str),
    /// The end is a nonterminal; carries its grammar symbol.
    Node(Kind),
}

impl<'a> PathEnd<'a> {
    /// The terminal value, if this end is a terminal.
    pub fn value(self) -> Option<&'a str> {
        match self {
            PathEnd::Value(v) => Some(v),
            PathEnd::Node(_) => None,
        }
    }

    /// A display string: the value for terminals, the kind for
    /// nonterminals.
    pub fn as_str(self) -> &'a str {
        match self {
            PathEnd::Value(v) => v,
            PathEnd::Node(k) => k.as_str(),
        }
    }
}

impl fmt::Display for PathEnd<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A concrete path-context `⟨x_s, p, x_f⟩` extracted from one tree,
/// which it borrows its values from.
///
/// Besides the triple itself, the context remembers *which* nodes it
/// connects (`start_node`, `end_node`) so that downstream consumers can
/// group contexts by program element and distinguish occurrences.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PathContext<'a> {
    /// The value or kind at the start of the path.
    pub start: PathEnd<'a>,
    /// The syntactic path connecting the two ends.
    pub path: AstPath,
    /// The value or kind at the end of the path.
    pub end: PathEnd<'a>,
    /// The tree node the path starts at.
    pub start_node: NodeId,
    /// The tree node the path ends at.
    pub end_node: NodeId,
}

impl<'a> PathContext<'a> {
    /// Renders the triple in the paper's notation:
    /// `⟨item, SymbolVar ↑ VarDef ↓ Sub ↓ SymbolRef, array⟩`.
    pub fn display_triple(&self) -> String {
        format!("⟨{}, {}, {}⟩", self.start, self.path, self.end)
    }

    /// The same context viewed from the other end (path reversed, ends
    /// swapped). Extraction emits each unordered pair once; consumers that
    /// need both orientations call this.
    pub fn flipped(&self) -> PathContext<'a> {
        PathContext {
            start: self.end,
            path: self.path.reversed(),
            end: self.start,
            start_node: self.end_node,
            end_node: self.start_node,
        }
    }
}

/// The type of a data-flow edge between two variable occurrences.
///
/// These mirror the `LastUse` / `LastWrite` edge families of Allamanis
/// et al. (*Learning to Represent Programs with Graphs*): semantic
/// links the pure AST path family cannot express. The edges themselves
/// are produced by the data-flow engine in `pigeon-analysis`; this
/// crate only turns them into typed path-contexts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FlowKind {
    /// `from` reads or writes a variable whose value may last have been
    /// *read* at `to`.
    LastUse,
    /// `from` reads or writes a variable whose value may last have been
    /// *written* at `to`.
    LastWrite,
}

impl FlowKind {
    /// Stable short tag used as the feature-string prefix and metric
    /// label (`lu` / `lw`). Never reused for a different edge family.
    pub fn tag(self) -> &'static str {
        match self {
            FlowKind::LastUse => "lu",
            FlowKind::LastWrite => "lw",
        }
    }
}

/// One typed data-flow edge between two terminal occurrences of a
/// variable in the same function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowEdge {
    pub kind: FlowKind,
    /// The occurrence the flow fact is *about*.
    pub from: NodeId,
    /// The reaching definition or use it may see.
    pub to: NodeId,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::Direction;

    #[test]
    fn display_matches_example_4_5() {
        let path = AstPath::new(
            vec![
                Kind::new("SymbolVar"),
                Kind::new("VarDef"),
                Kind::new("Sub"),
                Kind::new("SymbolRef"),
            ],
            vec![Direction::Up, Direction::Down, Direction::Down],
        );
        let ctx = PathContext {
            start: PathEnd::Value("item"),
            path,
            end: PathEnd::Value("array"),
            start_node: NodeId::from_raw(0),
            end_node: NodeId::from_raw(1),
        };
        assert_eq!(
            ctx.display_triple(),
            "⟨item, SymbolVar ↑ VarDef ↓ Sub ↓ SymbolRef, array⟩"
        );
    }

    #[test]
    fn flip_is_involutive() {
        let path = AstPath::new(vec![Kind::new("A"), Kind::new("B")], vec![Direction::Up]);
        let ctx = PathContext {
            start: PathEnd::Value("x"),
            path,
            end: PathEnd::Node(Kind::new("B")),
            start_node: NodeId::from_raw(0),
            end_node: NodeId::from_raw(1),
        };
        assert_eq!(ctx.flipped().flipped(), ctx);
    }

    #[test]
    fn path_end_value_accessor() {
        assert_eq!(PathEnd::Value("x").value(), Some("x"));
        assert_eq!(PathEnd::Node(Kind::new("If")).value(), None);
    }
}
