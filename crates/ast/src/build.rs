//! By-value tree construction.
//!
//! Recursive-descent parsers with operator-precedence climbing produce
//! subtrees bottom-up (the left operand exists before its parent binary
//! node), which does not fit the event-ordered [`AstBuilder`]. [`TreeNode`]
//! is a plain owned tree that such parsers assemble freely and then lower
//! into an [`Ast`] arena in one pass.

use crate::symbol::Kind;
use crate::tree::{Ast, AstBuilder};

/// An owned, freely composable AST node, lowered to an [`Ast`] with
/// [`TreeNode::into_ast`].
///
/// ```
/// use pigeon_ast::TreeNode;
/// let tree = TreeNode::inner("Assign=", vec![
///     TreeNode::leaf("SymbolRef", "d"),
///     TreeNode::leaf("True", "true"),
/// ]);
/// let ast = tree.into_ast();
/// assert_eq!(ast.leaves().len(), 2);
/// assert_eq!(ast.kind(ast.root()).as_str(), "Assign=");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeNode {
    /// The node's grammar symbol.
    pub kind: Kind,
    /// The terminal value; `Some` makes this node a leaf.
    pub value: Option<Box<str>>,
    /// Child subtrees (must be empty when `value` is `Some`).
    pub children: Vec<TreeNode>,
}

impl TreeNode {
    /// A nonterminal with the given children.
    pub fn inner(kind: impl Into<Kind>, children: Vec<TreeNode>) -> Self {
        TreeNode {
            kind: kind.into(),
            value: None,
            children,
        }
    }

    /// A childless terminal carrying `value`.
    pub fn leaf(kind: impl Into<Kind>, value: impl Into<Box<str>>) -> Self {
        TreeNode {
            kind: kind.into(),
            value: Some(value.into()),
            children: Vec::new(),
        }
    }

    /// A childless nonterminal (e.g. `Break`).
    pub fn nullary(kind: impl Into<Kind>) -> Self {
        TreeNode {
            kind: kind.into(),
            value: None,
            children: Vec::new(),
        }
    }

    /// Lowers this tree into an arena [`Ast`] rooted at this node,
    /// copying the leaf values into the tree's own text buffer.
    ///
    /// # Panics
    ///
    /// Panics if a node carries both a value and children.
    pub fn into_ast(self) -> Ast {
        let mut b = AstBuilder::new(self.kind);
        assert!(
            self.value.is_none() || self.children.is_empty(),
            "terminals cannot have children"
        );
        for c in self.children {
            lower(&mut b, c);
        }
        b.finish()
    }
}

fn lower(b: &mut AstBuilder, node: TreeNode) {
    match node.value {
        Some(v) => {
            assert!(node.children.is_empty(), "terminals cannot have children");
            b.token(node.kind, &v);
        }
        None => {
            b.start_node(node.kind);
            for c in node.children {
                lower(b, c);
            }
            b.finish_node();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::print::sexp;

    #[test]
    fn lowering_preserves_shape() {
        let t = TreeNode::inner(
            "While",
            vec![
                TreeNode::inner("UnaryPrefix!", vec![TreeNode::leaf("SymbolRef", "d")]),
                TreeNode::nullary("Block"),
            ],
        );
        let ast = t.into_ast();
        ast.check_invariants().unwrap();
        assert_eq!(sexp(&ast), "(While (UnaryPrefix! (SymbolRef d)) (Block))");
    }

    #[test]
    #[should_panic(expected = "terminals cannot have children")]
    fn terminal_with_children_panics_on_lowering() {
        let bad = TreeNode {
            kind: Kind::new("X"),
            value: Some("v".into()),
            children: vec![TreeNode::nullary("Y")],
        };
        let _ = TreeNode::inner("Root", vec![bad]).into_ast();
    }
}
