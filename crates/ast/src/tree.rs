//! The arena-backed abstract syntax tree.
//!
//! This is a direct realisation of Definition 4.1 of the paper: an AST is a
//! tuple `⟨N, T, X, s, δ, val⟩` of nonterminals, terminals, terminal values,
//! a root, a children function and a value function. [`Ast`] stores both
//! node sets in one arena; [`Ast::children`] is `δ`, [`Ast::parent`] is the
//! inverse `π`, and [`Ast::value`] is `val`.

use crate::symbol::Kind;
use std::fmt;

/// Index of a node inside an [`Ast`] arena.
///
/// Node ids are only meaningful for the tree that produced them; they are
/// assigned in creation order, so the root built by [`AstBuilder`] is the
/// id `NodeId(0)`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The arena slot of this node.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a node id from a raw arena slot.
    ///
    /// The id is only meaningful when passed back to the [`Ast`] whose
    /// [`NodeId::index`] produced `raw`; methods on another tree may panic
    /// or return unrelated nodes.
    pub fn from_raw(raw: u32) -> Self {
        NodeId(raw)
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NodeId({})", self.0)
    }
}

#[derive(Debug, Clone)]
struct Node {
    kind: Kind,
    parent: Option<NodeId>,
    /// Position of this node in its parent's child list; 0 for the root.
    child_index: u32,
    children: Vec<NodeId>,
    /// For a terminal, its position in [`Ast::leaves`], which also
    /// locates its value.
    leaf: Option<u32>,
}

/// An abstract syntax tree for one compilation unit.
///
/// Construct with [`AstBuilder`]; a built tree is immutable, which lets the
/// extraction layer cache leaf lists and depths. The tree owns its
/// terminal values: they live in one text buffer, so a tree's names are
/// freed with the tree.
///
/// ```
/// use pigeon_ast::{Ast, AstBuilder};
/// let mut b = AstBuilder::new("While");
/// b.start_node("UnaryPrefix!");
/// b.token("SymbolRef", "d");
/// b.finish_node();
/// let ast: Ast = b.finish();
/// assert_eq!(ast.len(), 3);
/// assert_eq!(ast.kind(ast.root()).as_str(), "While");
/// ```
#[derive(Debug, Clone)]
pub struct Ast {
    nodes: Vec<Node>,
    /// Depth of each node (root has depth 0), computed at build time.
    depths: Vec<u32>,
    /// Terminal nodes in left-to-right source order.
    leaves: Vec<NodeId>,
    /// Every terminal's value, back to back in leaf order.
    text: String,
    /// Leaf `i`'s value is `text[bounds[i]..bounds[i + 1]]`.
    bounds: Vec<usize>,
}

impl Ast {
    /// The root node `s`.
    ///
    /// # Panics
    ///
    /// Never panics: a built tree always has at least its root.
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    /// Total number of nodes (terminals and nonterminals).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree consists of the root alone.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    /// The grammar symbol of `id`.
    pub fn kind(&self, id: NodeId) -> Kind {
        self.nodes[id.index()].kind
    }

    /// The parent `π(id)`, or `None` for the root.
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.nodes[id.index()].parent
    }

    /// The children `δ(id)` in source order; empty for terminals.
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        &self.nodes[id.index()].children
    }

    /// The value `val(id)` if `id` is a terminal carrying one.
    pub fn value(&self, id: NodeId) -> Option<&str> {
        let leaf = self.nodes[id.index()].leaf? as usize;
        Some(&self.text[self.bounds[leaf]..self.bounds[leaf + 1]])
    }

    /// Whether `id` is a terminal (carries a value, has no children).
    pub fn is_terminal(&self, id: NodeId) -> bool {
        self.nodes[id.index()].leaf.is_some()
    }

    /// The position of `id` among its siblings (0 for the root).
    ///
    /// Sibling positions define the *width* of a path (paper §4.2, Fig. 5):
    /// the width of a leaf-to-leaf path is the absolute difference of the
    /// child indices of the two children of the top node through which the
    /// path passes.
    pub fn child_index(&self, id: NodeId) -> usize {
        self.nodes[id.index()].child_index as usize
    }

    /// Distance from the root (the root has depth 0).
    pub fn depth(&self, id: NodeId) -> usize {
        self.depths[id.index()] as usize
    }

    /// All terminal nodes in left-to-right source order.
    pub fn leaves(&self) -> &[NodeId] {
        &self.leaves
    }

    /// Iterates over every node id in preorder (parents before children).
    pub fn preorder(&self) -> impl Iterator<Item = NodeId> + '_ {
        // Arena order *is* preorder for trees built by `AstBuilder`.
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Iterates from `id` upward through its ancestors, ending at the root.
    /// Does not yield `id` itself.
    pub fn ancestors(&self, id: NodeId) -> Ancestors<'_> {
        Ancestors {
            ast: self,
            cur: self.parent(id),
        }
    }

    /// The lowest common ancestor of `a` and `b`.
    ///
    /// Returns `a` itself when `a == b`, and either node when one is an
    /// ancestor of the other.
    pub fn lowest_common_ancestor(&self, a: NodeId, b: NodeId) -> NodeId {
        let (mut a, mut b) = (a, b);
        while self.depth(a) > self.depth(b) {
            a = self.parent(a).expect("deeper node must have a parent");
        }
        while self.depth(b) > self.depth(a) {
            b = self.parent(b).expect("deeper node must have a parent");
        }
        while a != b {
            a = self.parent(a).expect("nodes in one tree share a root");
            b = self.parent(b).expect("nodes in one tree share a root");
        }
        a
    }

    /// All terminal node ids whose value equals `value`.
    pub fn leaves_with_value(&self, value: &str) -> Vec<NodeId> {
        self.leaves
            .iter()
            .copied()
            .filter(|&l| self.value(l) == Some(value))
            .collect()
    }

    /// Test-support hook: overwrites the recorded parent of `id`,
    /// deliberately breaking the `π` = `δ⁻¹` invariant.
    ///
    /// A tree built through [`AstBuilder`] is correct by construction, so
    /// checkers of the structural invariants (this crate's
    /// [`Ast::check_invariants`], the audit layer's well-formedness pass)
    /// have no failing inputs to exercise without this hook. It exists
    /// only to seed violations in tests; nothing in the pipeline calls it.
    #[doc(hidden)]
    pub fn corrupt_parent_for_tests(&mut self, id: NodeId, parent: Option<NodeId>) {
        self.nodes[id.index()].parent = parent;
    }

    /// Test-support hook: overwrites the recorded sibling position of
    /// `id`. See [`Ast::corrupt_parent_for_tests`].
    #[doc(hidden)]
    pub fn corrupt_child_index_for_tests(&mut self, id: NodeId, child_index: u32) {
        self.nodes[id.index()].child_index = child_index;
    }

    /// Verifies the structural invariants of Definition 4.1; used by tests
    /// and by frontends in debug builds.
    ///
    /// Checks that every node except the root appears exactly once in
    /// exactly one child list, that `π` inverts `δ`, that terminals are
    /// childless, and that recorded depths and child indices are
    /// consistent.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut seen_as_child = vec![false; self.nodes.len()];
        for id in self.preorder() {
            for (pos, &c) in self.children(id).iter().enumerate() {
                if seen_as_child[c.index()] {
                    return Err(format!("{c:?} appears in two child lists"));
                }
                seen_as_child[c.index()] = true;
                if self.parent(c) != Some(id) {
                    return Err(format!("parent of {c:?} does not invert children"));
                }
                if self.child_index(c) != pos {
                    return Err(format!("child_index of {c:?} is stale"));
                }
                if self.depth(c) != self.depth(id) + 1 {
                    return Err(format!("depth of {c:?} is stale"));
                }
            }
            if self.is_terminal(id) && !self.children(id).is_empty() {
                return Err(format!("terminal {id:?} has children"));
            }
        }
        if seen_as_child[0] {
            return Err("root appears in a child list".to_owned());
        }
        for (i, seen) in seen_as_child.iter().enumerate().skip(1) {
            if !seen {
                return Err(format!("node {i} is unreachable from the root"));
            }
        }
        Ok(())
    }
}

/// Iterator over the proper ancestors of a node. See [`Ast::ancestors`].
#[derive(Debug)]
pub struct Ancestors<'a> {
    ast: &'a Ast,
    cur: Option<NodeId>,
}

impl Iterator for Ancestors<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let cur = self.cur?;
        self.cur = self.ast.parent(cur);
        Some(cur)
    }
}

/// Event-style builder for [`Ast`].
///
/// Frontends call [`start_node`](AstBuilder::start_node) /
/// [`finish_node`](AstBuilder::finish_node) around the children of each
/// nonterminal and [`token`](AstBuilder::token) for terminals, mirroring
/// the shape of a recursive-descent parse.
///
/// ```
/// use pigeon_ast::AstBuilder;
/// let mut b = AstBuilder::new("Assign=");
/// b.token("SymbolRef", "d");
/// b.token("True", "true");
/// let ast = b.finish();
/// assert_eq!(ast.leaves().len(), 2);
/// ```
#[derive(Debug)]
pub struct AstBuilder {
    /// The tree so far; every node but the root hangs off `stack`.
    ast: Ast,
    stack: Vec<NodeId>,
}

impl AstBuilder {
    /// Starts a tree whose root has kind `root_kind`.
    pub fn new(root_kind: impl Into<Kind>) -> Self {
        let root = Node {
            kind: root_kind.into(),
            parent: None,
            child_index: 0,
            children: Vec::new(),
            leaf: None,
        };
        AstBuilder {
            ast: Ast {
                nodes: vec![root],
                depths: vec![0],
                leaves: Vec::new(),
                text: String::new(),
                bounds: vec![0],
            },
            stack: vec![NodeId(0)],
        }
    }

    fn attach(&mut self, kind: Kind, leaf: Option<u32>) -> NodeId {
        let ast = &mut self.ast;
        let id = NodeId(ast.nodes.len() as u32);
        let parent = *self.stack.last().expect("builder stack never empty");
        let siblings = &mut ast.nodes[parent.index()].children;
        let child_index = siblings.len() as u32;
        siblings.push(id);
        ast.nodes.push(Node {
            kind,
            parent: Some(parent),
            child_index,
            children: Vec::new(),
            leaf,
        });
        ast.depths.push(ast.depths[parent.index()] + 1);
        id
    }

    /// Opens a nonterminal child of the current node; subsequent nodes are
    /// attached under it until [`finish_node`](AstBuilder::finish_node).
    pub fn start_node(&mut self, kind: impl Into<Kind>) -> NodeId {
        let id = self.attach(kind.into(), None);
        self.stack.push(id);
        id
    }

    /// Closes the most recently opened nonterminal.
    ///
    /// # Panics
    ///
    /// Panics if called without a matching
    /// [`start_node`](AstBuilder::start_node).
    pub fn finish_node(&mut self) {
        assert!(self.stack.len() > 1, "finish_node without start_node");
        self.stack.pop();
    }

    /// Adds a terminal child carrying `value` to the current node. The
    /// tree keeps its own copy of `value`.
    pub fn token(&mut self, kind: impl Into<Kind>, value: &str) -> NodeId {
        let id = self.attach(kind.into(), Some(self.ast.leaves.len() as u32));
        let ast = &mut self.ast;
        ast.leaves.push(id);
        ast.text.push_str(value);
        ast.bounds.push(ast.text.len());
        id
    }

    /// Number of nodes attached so far (including the root).
    pub fn len(&self) -> usize {
        self.ast.len()
    }

    /// Whether only the root exists so far.
    pub fn is_empty(&self) -> bool {
        self.ast.is_empty()
    }

    /// Completes the tree.
    ///
    /// # Panics
    ///
    /// Panics if some nonterminal opened with
    /// [`start_node`](AstBuilder::start_node) was never closed.
    pub fn finish(self) -> Ast {
        assert!(
            self.stack.len() == 1,
            "finish called with {} unclosed node(s)",
            self.stack.len() - 1
        );
        self.ast
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the AST of Fig. 1 of the paper:
    /// `while (!d) { if (someCondition()) { d = true; } }`
    pub(crate) fn fig1_ast() -> Ast {
        let mut b = AstBuilder::new("Toplevel");
        b.start_node("While");
        {
            b.start_node("UnaryPrefix!");
            b.token("SymbolRef", "d");
            b.finish_node();
            b.start_node("If");
            {
                b.start_node("Call");
                b.token("SymbolRef", "someCondition");
                b.finish_node();
                b.start_node("Assign=");
                b.token("SymbolRef", "d");
                b.token("True", "true");
                b.finish_node();
            }
            b.finish_node();
        }
        b.finish_node();
        b.finish()
    }

    #[test]
    fn fig1_shape() {
        let ast = fig1_ast();
        ast.check_invariants().unwrap();
        assert_eq!(ast.leaves().len(), 4);
        let values: Vec<_> = ast
            .leaves()
            .iter()
            .map(|&l| ast.value(l).unwrap())
            .collect();
        assert_eq!(values, ["d", "someCondition", "d", "true"]);
    }

    #[test]
    fn parent_inverts_children() {
        let ast = fig1_ast();
        for id in ast.preorder() {
            for &c in ast.children(id) {
                assert_eq!(ast.parent(c), Some(id));
            }
        }
    }

    #[test]
    fn lca_of_d_occurrences_is_while() {
        let ast = fig1_ast();
        let occ = ast.leaves_with_value("d");
        assert_eq!(occ.len(), 2);
        let lca = ast.lowest_common_ancestor(occ[0], occ[1]);
        assert_eq!(ast.kind(lca).as_str(), "While");
    }

    #[test]
    fn lca_degenerate_cases() {
        let ast = fig1_ast();
        let leaf = ast.leaves()[0];
        assert_eq!(ast.lowest_common_ancestor(leaf, leaf), leaf);
        assert_eq!(ast.lowest_common_ancestor(ast.root(), leaf), ast.root());
        assert_eq!(ast.lowest_common_ancestor(leaf, ast.root()), ast.root());
    }

    #[test]
    fn ancestors_walk_to_root() {
        let ast = fig1_ast();
        let d = ast.leaves()[0];
        let kinds: Vec<_> = ast.ancestors(d).map(|a| ast.kind(a).as_str()).collect();
        assert_eq!(kinds, ["UnaryPrefix!", "While", "Toplevel"]);
    }

    #[test]
    fn depths_and_child_indices() {
        let ast = fig1_ast();
        assert_eq!(ast.depth(ast.root()), 0);
        let assign_rhs = ast.leaves()[3];
        assert_eq!(ast.kind(assign_rhs).as_str(), "True");
        assert_eq!(ast.child_index(assign_rhs), 1);
        assert_eq!(ast.depth(assign_rhs), 4);
    }

    #[test]
    #[should_panic(expected = "unclosed")]
    fn unbalanced_builder_panics() {
        let mut b = AstBuilder::new("Toplevel");
        b.start_node("While");
        let _ = b.finish();
    }

    #[test]
    #[should_panic(expected = "finish_node without start_node")]
    fn overpopped_builder_panics() {
        let mut b = AstBuilder::new("Toplevel");
        b.finish_node();
    }

    #[test]
    fn empty_tree_is_empty() {
        let ast = AstBuilder::new("Toplevel").finish();
        assert!(ast.is_empty());
        assert_eq!(ast.len(), 1);
        assert!(ast.leaves().is_empty());
        ast.check_invariants().unwrap();
    }
}
