//! Path-context extraction (§4 of the paper).
//!
//! Given a parsed [`Ast`], the extractor produces the path-contexts that
//! represent its program elements:
//!
//! * **leafwise paths** between pairs of terminals — the workhorse
//!   representation;
//! * **semi-paths** between a terminal and one of its ancestors, which
//!   "provide more generalization" (§5);
//! * **leaf-to-nonterminal paths** towards an arbitrary target node, used
//!   by the full-type prediction task where the element in question is an
//!   expression nonterminal.
//!
//! Extraction enforces the two hyper-parameters of §4.2: `max_length`
//! (number of edges) and `max_width` (maximal sibling-index difference at
//! the path's top node, cf. Fig. 5).

use crate::context::{FlowEdge, FlowKind, PathContext, PathEnd};
use crate::path::{AstPath, Direction};
use pigeon_ast::{Ast, Kind, NodeId};
use pigeon_telemetry as telemetry;
use std::collections::HashMap;

/// Counter family for extracted path-contexts, split by `kind` label
/// (`leaf_pair`, `semi_path`, `to_node`).
const PATHS_TOTAL: &str = "pigeon_paths_extracted_total";

/// Counter family for data-flow path-contexts, split by `kind` label
/// (`last_use`, `last_write`). Public so the facade can register the
/// family eagerly and keep `/v1/metrics` byte-stable.
pub const DATAFLOW_CONTEXTS_TOTAL: &str = "pigeon_dataflow_contexts_total";

/// Hyper-parameters controlling which paths are extracted.
///
/// The defaults are the paper's best variable-name parameters for
/// JavaScript (`max_length = 7`, `max_width = 3`, Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExtractionConfig {
    /// Maximal number of edges in a path (`max_length`, §4.2).
    pub max_length: usize,
    /// Maximal sibling distance at the top node (`max_width`, §4.2).
    /// Ancestor–descendant paths have width 0 and are never width-limited.
    pub max_width: usize,
    /// Also emit semi-paths (terminal → ancestor) for every leaf.
    pub semi_paths: bool,
}

impl ExtractionConfig {
    /// Config with the given length and width limits and no semi-paths.
    pub fn with_limits(max_length: usize, max_width: usize) -> Self {
        ExtractionConfig {
            max_length,
            max_width,
            semi_paths: false,
        }
    }

    /// Enables or disables semi-path extraction.
    pub fn semi_paths(mut self, on: bool) -> Self {
        self.semi_paths = on;
        self
    }
}

impl Default for ExtractionConfig {
    fn default() -> Self {
        ExtractionConfig {
            max_length: 7,
            max_width: 3,
            semi_paths: false,
        }
    }
}

fn path_end(ast: &Ast, id: NodeId) -> PathEnd<'_> {
    match ast.value(id) {
        Some(v) => PathEnd::Value(v),
        None => PathEnd::Node(ast.kind(id)),
    }
}

/// The chain of nodes from `node` up to (and including) `stop`.
fn chain_to(ast: &Ast, node: NodeId, stop: NodeId) -> Vec<NodeId> {
    let mut chain = vec![node];
    let mut cur = node;
    while cur != stop {
        cur = ast.parent(cur).expect("stop must be an ancestor of node");
        chain.push(cur);
    }
    chain
}

/// The concrete path between two nodes of one tree, via their lowest
/// common ancestor. Returns the path and its width.
///
/// The width is the absolute difference of the sibling indices of the two
/// children of the LCA through which the path passes (Fig. 5); paths where
/// one node is an ancestor of the other have width 0.
///
/// # Panics
///
/// Panics if `a == b` (a path needs two distinct ends) or if the ids do
/// not belong to `ast`.
pub fn path_between(ast: &Ast, a: NodeId, b: NodeId) -> (AstPath, usize) {
    assert_ne!(a, b, "a path connects two distinct nodes");
    let lca = ast.lowest_common_ancestor(a, b);
    let up = chain_to(ast, a, lca);
    let down = chain_to(ast, b, lca);

    let width = if up.len() >= 2 && down.len() >= 2 {
        let ca = ast.child_index(up[up.len() - 2]);
        let cb = ast.child_index(down[down.len() - 2]);
        ca.abs_diff(cb)
    } else {
        0
    };

    let mut kinds = Vec::with_capacity(up.len() + down.len() - 1);
    let mut dirs = Vec::with_capacity(up.len() + down.len() - 2);
    for &n in &up {
        kinds.push(ast.kind(n));
    }
    dirs.extend(std::iter::repeat_n(Direction::Up, up.len() - 1));
    for &n in down.iter().rev().skip(1) {
        kinds.push(ast.kind(n));
        dirs.push(Direction::Down);
    }
    (AstPath::new(kinds, dirs), width)
}

/// A surviving leaf pair discovered by the upward merge, before its
/// path is materialized: leaf ordinals plus distances to the LCA.
struct PendingPair {
    a: u32,
    b: u32,
    /// Edges from leaf `a` up to the LCA.
    up: u32,
    /// Edges from the LCA down to leaf `b`.
    down: u32,
    lca: NodeId,
}

/// A map keyed by path *shape* — a kind sequence plus the number of
/// upward steps that start it, which together fix a path walked through
/// a lowest common ancestor (see [`shape_path`]). Probes borrow the kind
/// slice a visitor hands out, so finding a repeat allocates nothing;
/// only a new entry copies its key. Keys hash with std's keyed hasher,
/// so shapes crafted from request bytes cannot force collisions.
#[derive(Debug, Clone)]
pub struct ShapeMap<V> {
    /// One map per up-count, keyed by the kind sequence.
    by_up: Vec<HashMap<Box<[Kind]>, V>>,
    len: usize,
}

impl<V> Default for ShapeMap<V> {
    fn default() -> Self {
        ShapeMap {
            by_up: Vec::new(),
            len: 0,
        }
    }
}

impl<V> ShapeMap<V> {
    /// The value stored for the shape `(kinds, up)`, if any.
    pub fn get(&self, kinds: &[Kind], up: u32) -> Option<&V> {
        self.by_up.get(up as usize)?.get(kinds)
    }

    /// Stores `value` for the shape `(kinds, up)`, replacing any
    /// earlier value.
    pub fn insert(&mut self, kinds: &[Kind], up: u32, value: V) {
        let up = up as usize;
        if self.by_up.len() <= up {
            self.by_up.resize_with(up + 1, HashMap::new);
        }
        if self.by_up[up].insert(kinds.into(), value).is_none() {
            self.len += 1;
        }
    }

    /// The value stored for `(kinds, up)`, inserting `make()` first when
    /// there is none.
    pub fn get_or_insert_with(&mut self, kinds: &[Kind], up: u32, make: impl FnOnce() -> V) -> &V {
        if self.get(kinds, up).is_none() {
            self.insert(kinds, up, make());
        }
        self.get(kinds, up).expect("inserted above")
    }

    /// Number of shapes stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no shape is stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Interns the paths of one extraction: every repeat of a shape gets a
/// clone of one shared [`AstPath`].
#[derive(Default)]
struct PathCache(ShapeMap<AstPath>);

impl PathCache {
    fn path(&mut self, kinds: &[Kind], up: u32) -> AstPath {
        self.0
            .get_or_insert_with(kinds, up, || shape_path(kinds, up))
            .clone()
    }
}

/// The concrete path of a shape: `kinds` walked with `up` upward steps
/// followed by downward ones — the only direction pattern a walk
/// through the lowest common ancestor produces.
pub fn shape_path(kinds: &[Kind], up: u32) -> AstPath {
    let mut dirs = Vec::with_capacity(kinds.len() - 1);
    dirs.extend(std::iter::repeat_n(Direction::Up, up as usize));
    dirs.extend(std::iter::repeat_n(
        Direction::Down,
        kinds.len() - 1 - up as usize,
    ));
    AstPath::new(kinds.to_vec(), dirs)
}

/// Walks every leafwise pair of `ast` within the config's limits and
/// hands each to `visit(left, right, up, kinds)`: the two leaves in
/// source order, the number of edges from `left` up to their lowest
/// common ancestor, and the path's kind sequence (from a buffer reused
/// between calls, so a visitor that keeps it must copy it). Pairs come
/// sorted by (left, right) leaf position — the order
/// [`leaf_pair_contexts`] returns them in. This is the one leaf-pair
/// walk: the context extractor, the feature renderers and prediction's
/// feature-id resolution all consume it.
///
/// Implementation: a single bottom-up merge pass. Every node carries the
/// leaves of its subtree (with their distance to the node) capped at
/// `max_length - 1` edges; at each nonterminal, leaves from distinct
/// children pair up exactly when their combined distance fits
/// `max_length` and the children's sibling gap fits `max_width` — the
/// node is their lowest common ancestor by construction. A child only
/// scans the earlier siblings within `max_width` of it, so a node with
/// many children costs linear time. Pairs are pruned *before* any path
/// is built, unlike the former [`path_between`]-per-pair loop which
/// re-walked the tree for all `O(leaves²)` candidates.
pub fn visit_leaf_pairs(
    ast: &Ast,
    cfg: &ExtractionConfig,
    mut visit: impl FnMut(NodeId, NodeId, u32, &[Kind]),
) {
    let _span = telemetry::span("extract_doc");
    telemetry::count("pigeon_documents_extracted_total", 1);
    if cfg.max_length < 2 {
        // A leafwise path climbs at least one edge and descends at least
        // one, so nothing can survive.
        return;
    }
    let leaves = ast.leaves();
    if leaves.len() < 2 {
        return;
    }
    let mut leaf_ordinal = vec![u32::MAX; ast.len()];
    for (i, &l) in leaves.iter().enumerate() {
        leaf_ordinal[l.index()] = i as u32;
    }

    // Per-leaf ancestor kind chains, shared by every pair the leaf joins,
    // flattened with a stride of `max_length`: the chain of leaf `i`
    // starts at `i * stride`, and its entry `r` is the kind `r` edges
    // above the leaf (entry 0 = the leaf). A leaf `max_length - 1` edges
    // below its LCA is the farthest that can still pair, so deeper
    // ancestors are never needed; entries past the root are padding that
    // no pair reads.
    let stride = cfg.max_length;
    let mut chains: Vec<Kind> = Vec::with_capacity(leaves.len() * stride);
    for &l in leaves {
        let start = chains.len();
        chains.push(ast.kind(l));
        chains.extend(ast.ancestors(l).take(stride - 1).map(|anc| ast.kind(anc)));
        chains.resize(start + stride, ast.kind(l));
    }

    // Bottom-up merge. The arena is in preorder, so walking indices in
    // reverse visits every child before its parent. `subtree[v]` holds
    // `(leaf ordinal, edges from leaf to v)` for the live leaves of v's
    // subtree, in source order.
    let mut subtree: Vec<Vec<(u32, u32)>> = vec![Vec::new(); ast.len()];
    let mut pending: Vec<PendingPair> = Vec::new();
    for raw in (0..ast.len() as u32).rev() {
        let v = NodeId::from_raw(raw);
        let ord = leaf_ordinal[v.index()];
        if ord != u32::MAX {
            subtree[v.index()] = vec![(ord, 0)];
            continue;
        }
        let children = ast.children(v);
        // Segments of already-merged children, tagged with their child
        // index: the width of a pair meeting at `v` is the sibling gap
        // between the two children the leaves came through.
        let mut segs: Vec<(usize, Vec<(u32, u32)>)> = Vec::new();
        for (cj, &c) in children.iter().enumerate() {
            let mut child_leaves = std::mem::take(&mut subtree[c.index()]);
            // Lift distances to `v`; a leaf farther than `max_length - 1`
            // edges away can never complete a path (the other side costs
            // at least one more edge), so it drops out here — before any
            // pairing work.
            child_leaves.retain_mut(|entry| {
                entry.1 += 1;
                (entry.1 as usize) < cfg.max_length
            });
            if child_leaves.is_empty() {
                continue;
            }
            // Nearest sibling first: the first segment past `max_width`
            // ends the scan, as every earlier one is farther still.
            for &(ci, ref a_leaves) in segs.iter().rev() {
                if cj - ci > cfg.max_width {
                    break;
                }
                for &(a_ord, a_rel) in a_leaves {
                    for &(b_ord, b_rel) in &child_leaves {
                        if (a_rel + b_rel) as usize <= cfg.max_length {
                            pending.push(PendingPair {
                                a: a_ord,
                                b: b_ord,
                                up: a_rel,
                                down: b_rel,
                                lca: v,
                            });
                        }
                    }
                }
            }
            segs.push((cj, child_leaves));
        }
        let mut merged = Vec::with_capacity(segs.iter().map(|(_, l)| l.len()).sum());
        for (_, leaves) in segs {
            merged.extend(leaves);
        }
        subtree[v.index()] = merged;
    }

    // Hand out in the order the former pairwise loop produced: sorted by
    // (left ordinal, right ordinal). Each unordered pair meets at exactly
    // one LCA, so the keys are distinct and the order is total.
    pending.sort_unstable_by_key(|p| (p.a, p.b));
    let mut kinds = Vec::with_capacity(2 * cfg.max_length);
    for p in &pending {
        let (a, b) = (p.a as usize * stride, p.b as usize * stride);
        kinds.clear();
        kinds.extend_from_slice(&chains[a..a + p.up as usize]);
        kinds.push(ast.kind(p.lca));
        kinds.extend(chains[b..b + p.down as usize].iter().rev());
        visit(leaves[p.a as usize], leaves[p.b as usize], p.up, &kinds);
    }
    telemetry::count_with(PATHS_TOTAL, &[("kind", "leaf_pair")], pending.len() as u64);
}

/// Extracts all leafwise path-contexts of `ast` within the config's
/// limits. Each unordered pair of terminals is emitted once, oriented
/// left-to-right in source order; use
/// [`PathContext::flipped`] for the other orientation.
///
/// A thin consumer of [`visit_leaf_pairs`]: identical kind-sequences
/// share one interned [`AstPath`].
pub fn leaf_pair_contexts<'a>(ast: &'a Ast, cfg: &ExtractionConfig) -> Vec<PathContext<'a>> {
    let mut paths = PathCache::default();
    let mut out = Vec::new();
    visit_leaf_pairs(ast, cfg, |a, b, up, kinds| {
        out.push(PathContext {
            start: PathEnd::Value(ast.value(a).expect("leaves carry values")),
            path: paths.path(kinds, up),
            end: PathEnd::Value(ast.value(b).expect("leaves carry values")),
            start_node: a,
            end_node: b,
        });
    });
    out
}

/// Extracts semi-paths: for every terminal, the pure-up path to each of
/// its proper ancestors, up to `max_length` edges. The far end of a
/// semi-path is the ancestor's kind.
pub fn semi_path_contexts<'a>(ast: &'a Ast, cfg: &ExtractionConfig) -> Vec<PathContext<'a>> {
    let mut out = Vec::new();
    for &leaf in ast.leaves() {
        let value = ast.value(leaf).expect("leaves carry values");
        let mut kinds = vec![ast.kind(leaf)];
        let mut dirs = Vec::new();
        for anc in ast.ancestors(leaf) {
            kinds.push(ast.kind(anc));
            dirs.push(Direction::Up);
            if dirs.len() > cfg.max_length {
                break;
            }
            out.push(PathContext {
                start: PathEnd::Value(value),
                path: AstPath::new(kinds.clone(), dirs.clone()),
                end: PathEnd::Node(ast.kind(anc)),
                start_node: leaf,
                end_node: anc,
            });
        }
    }
    telemetry::count_with(PATHS_TOTAL, &[("kind", "semi_path")], out.len() as u64);
    out
}

/// Extracts paths from every terminal to one designated `target` node
/// (typically an expression nonterminal whose type is being predicted,
/// §5.3.3). The target end is reported as the target's kind when it is a
/// nonterminal.
///
/// Implementation: the target's ancestor chain is indexed once; each
/// leaf then climbs at most `max_length` edges until it meets that chain
/// — the meeting point is the lowest common ancestor, no quadratic
/// [`path_between`] walk needed — and pairs that exceed the length or
/// width limits are pruned before any path is allocated. Identical
/// kind-sequences are interned through the same per-call cache the
/// leafwise merge pass uses, so repeated shapes share one `AstPath`.
pub fn contexts_to_node<'a>(
    ast: &'a Ast,
    target: NodeId,
    cfg: &ExtractionConfig,
) -> Vec<PathContext<'a>> {
    // `chain[d]` is the node `d` edges above the target (chain[0] = the
    // target); `chain_depth` inverts it for O(1) LCA detection.
    let mut chain: Vec<NodeId> = vec![target];
    chain.extend(ast.ancestors(target));
    let mut chain_depth: HashMap<NodeId, u32> = HashMap::new();
    for (d, &n) in chain.iter().enumerate() {
        chain_depth.insert(n, d as u32);
    }
    let end = path_end(ast, target);

    let mut cache = PathCache::default();
    let mut out = Vec::new();
    for &leaf in ast.leaves() {
        if leaf == target {
            continue;
        }
        // Climb from the leaf, collecting kinds strictly below the LCA;
        // stop as soon as the path can no longer fit `max_length`.
        let mut kinds = vec![ast.kind(leaf)];
        let mut below_lca = leaf;
        let mut lca = None;
        let mut up = 0u32;
        for anc in ast.ancestors(leaf) {
            up += 1;
            if up as usize > cfg.max_length {
                break;
            }
            if let Some(&down) = chain_depth.get(&anc) {
                lca = Some((anc, down));
                break;
            }
            kinds.push(ast.kind(anc));
            below_lca = anc;
        }
        let Some((lca, down)) = lca else {
            continue;
        };
        if (up + down) as usize > cfg.max_length {
            continue;
        }
        // Width per Fig. 5: the sibling gap between the two children of
        // the LCA the path passes through; ancestor–descendant paths
        // (the target hangs below the LCA == target case) have width 0.
        if down > 0 {
            let target_side = chain[down as usize - 1];
            let width = ast
                .child_index(below_lca)
                .abs_diff(ast.child_index(target_side));
            if width > cfg.max_width {
                continue;
            }
        }
        kinds.push(ast.kind(lca));
        kinds.extend(chain[..down as usize].iter().rev().map(|&n| ast.kind(n)));
        let path = cache.path(&kinds, up);
        out.push(PathContext {
            start: PathEnd::Value(ast.value(leaf).expect("leaves carry values")),
            path,
            end,
            start_node: leaf,
            end_node: target,
        });
    }
    // Counter only: this runs per predicted node on the serve hot path,
    // where a span per call would dominate the cost being measured.
    telemetry::count_with(PATHS_TOTAL, &[("kind", "to_node")], out.len() as u64);
    out
}

/// Walks the AST paths of typed data-flow edges (from the analysis
/// engine) and hands each kept edge to `visit(edge, up, kinds)`: the
/// number of edges from `edge.from` up to the lowest common ancestor,
/// and the path's kind sequence from `from` to `to` (from a buffer
/// reused between calls). This is the one flow-path walk behind
/// [`flow_contexts`] and prediction's feature-id resolution.
///
/// Because the edges are already semantically filtered (an edge only
/// exists between occurrences of *one* variable linked by the flow
/// analysis), the syntactic pruning of §4.2 is relaxed: the width limit
/// does not apply, and the length budget is doubled — a last-write half
/// a function away is exactly the signal the AST path family cannot
/// afford to keep. Self-edges (a loop makes an occurrence reach itself)
/// are skipped. Edges come in input order; callers sort the edge list,
/// so the walk is deterministic and jobs-invariant.
///
/// Both ends climb to their lowest common ancestor together, by depth,
/// into two reused buffers, and a climb that passes the length budget
/// stops there.
pub fn visit_flow_paths(
    ast: &Ast,
    edges: &[FlowEdge],
    cfg: &ExtractionConfig,
    mut visit: impl FnMut(&FlowEdge, u32, &[Kind]),
) {
    let budget = cfg.max_length * 2;
    // Kinds strictly below the LCA on each side, each in climbing order.
    let mut up_side: Vec<Kind> = Vec::new();
    let mut down_side: Vec<Kind> = Vec::new();
    let mut kinds: Vec<Kind> = Vec::new();
    let (mut last_use, mut last_write) = (0u64, 0u64);
    'edges: for e in edges {
        if e.from == e.to {
            continue;
        }
        up_side.clear();
        down_side.clear();
        let (mut a, mut b) = (e.from, e.to);
        let (mut da, mut db) = (ast.depth(a), ast.depth(b));
        while a != b {
            if da >= db {
                up_side.push(ast.kind(a));
                a = ast.parent(a).expect("nodes in one tree share a root");
                da -= 1;
            } else {
                down_side.push(ast.kind(b));
                b = ast.parent(b).expect("nodes in one tree share a root");
                db -= 1;
            }
            if up_side.len() + down_side.len() > budget {
                continue 'edges;
            }
        }
        kinds.clear();
        kinds.extend_from_slice(&up_side);
        kinds.push(ast.kind(a));
        kinds.extend(down_side.iter().rev());
        match e.kind {
            FlowKind::LastUse => last_use += 1,
            FlowKind::LastWrite => last_write += 1,
        }
        visit(e, up_side.len() as u32, &kinds);
    }
    for (label, n) in [("last_use", last_use), ("last_write", last_write)] {
        telemetry::count_with(DATAFLOW_CONTEXTS_TOTAL, &[("kind", label)], n);
    }
}

/// Turns typed data-flow edges into edge-typed path-contexts: each edge
/// [`visit_flow_paths`] keeps becomes the concrete AST path between its
/// two occurrence leaves, tagged with the edge's [`FlowKind`], in edge
/// order. Identical kind-sequences share one interned [`AstPath`].
pub fn flow_contexts<'a>(
    ast: &'a Ast,
    edges: &[FlowEdge],
    cfg: &ExtractionConfig,
) -> Vec<(FlowKind, PathContext<'a>)> {
    let mut paths = PathCache::default();
    let mut out = Vec::new();
    visit_flow_paths(ast, edges, cfg, |e, up, kinds| {
        out.push((
            e.kind,
            PathContext {
                start: path_end(ast, e.from),
                path: paths.path(kinds, up),
                end: path_end(ast, e.to),
                start_node: e.from,
                end_node: e.to,
            },
        ));
    });
    out
}

/// Full extraction: leafwise pairs plus (if configured) semi-paths.
///
/// ```
/// use pigeon_ast::AstBuilder;
/// use pigeon_core::{extract, ExtractionConfig};
///
/// let mut b = AstBuilder::new("Toplevel");
/// b.start_node("Assign=");
/// b.token("SymbolRef", "d");
/// b.token("True", "true");
/// b.finish_node();
/// let ast = b.finish();
///
/// let ctxs = extract(&ast, &ExtractionConfig::default());
/// assert_eq!(ctxs.len(), 1);
/// assert_eq!(ctxs[0].display_triple(), "⟨d, SymbolRef ↑ Assign= ↓ True, true⟩");
/// ```
pub fn extract<'a>(ast: &'a Ast, cfg: &ExtractionConfig) -> Vec<PathContext<'a>> {
    let mut out = leaf_pair_contexts(ast, cfg);
    if cfg.semi_paths {
        out.extend(semi_path_contexts(ast, cfg));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pigeon_ast::AstBuilder;

    /// The AST of Fig. 1: `while (!d) { if (someCondition()) { d = true; } }`
    fn fig1_ast() -> Ast {
        let mut b = AstBuilder::new("Toplevel");
        b.start_node("While");
        b.start_node("UnaryPrefix!");
        b.token("SymbolRef", "d");
        b.finish_node();
        b.start_node("If");
        b.start_node("Call");
        b.token("SymbolRef", "someCondition");
        b.finish_node();
        b.start_node("Assign=");
        b.token("SymbolRef", "d");
        b.token("True", "true");
        b.finish_node();
        b.finish_node();
        b.finish_node();
        b.finish()
    }

    /// Fig. 5: `var a, b, c, d;`.
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

    fn context_between<'a>(ast: &'a Ast, a: &str, b: &str) -> Vec<PathContext<'a>> {
        let cfg = ExtractionConfig::with_limits(16, 16);
        leaf_pair_contexts(ast, &cfg)
            .into_iter()
            .filter(|c| c.start.as_str() == a && c.end.as_str() == b)
            .collect()
    }

    #[test]
    fn fig1_d_to_d_path_matches_paper() {
        let ast = fig1_ast();
        let ctxs = context_between(&ast, "d", "d");
        assert_eq!(ctxs.len(), 1);
        assert_eq!(
            ctxs[0].path.to_string(),
            "SymbolRef ↑ UnaryPrefix! ↑ While ↓ If ↓ Assign= ↓ SymbolRef"
        );
    }

    #[test]
    fn fig1_d_to_true_path_matches_paper() {
        let ast = fig1_ast();
        let ctxs = context_between(&ast, "d", "true");
        // Two `d` occurrences reach `true`; the short one is path II of §2.
        let short = ctxs.iter().map(|c| c.path.len()).min().unwrap();
        let p = ctxs.iter().find(|c| c.path.len() == short).unwrap();
        assert_eq!(p.path.to_string(), "SymbolRef ↑ Assign= ↓ True");
    }

    #[test]
    fn fig5_length_and_width_match_paper() {
        let ast = fig5_ast();
        let a = ast.leaves()[0];
        let d = ast.leaves()[3];
        let (path, width) = path_between(&ast, a, d);
        assert_eq!(path.len(), 4, "Fig. 5: the a–d path has length 4");
        assert_eq!(width, 3, "Fig. 5: the a–d path has width 3");
        assert_eq!(
            path.to_string(),
            "SymbolVar ↑ VarDef ↑ Var ↓ VarDef ↓ SymbolVar"
        );
    }

    #[test]
    fn width_limit_prunes_distant_siblings() {
        let ast = fig5_ast();
        let narrow = leaf_pair_contexts(&ast, &ExtractionConfig::with_limits(16, 1));
        // width-1 keeps only adjacent declarations: a-b, b-c, c-d.
        assert_eq!(narrow.len(), 3);
        let wide = leaf_pair_contexts(&ast, &ExtractionConfig::with_limits(16, 3));
        assert_eq!(wide.len(), 6);
    }

    #[test]
    fn length_limit_prunes_long_paths() {
        let ast = fig1_ast();
        let all = leaf_pair_contexts(&ast, &ExtractionConfig::with_limits(16, 16));
        let short = leaf_pair_contexts(&ast, &ExtractionConfig::with_limits(3, 16));
        assert!(short.len() < all.len());
        assert!(short.iter().all(|c| c.path.len() <= 3));
    }

    #[test]
    fn ancestor_descendant_paths_have_width_zero() {
        let ast = fig1_ast();
        let d = ast.leaves()[0];
        let root = ast.root();
        let (path, width) = path_between(&ast, d, root);
        assert_eq!(width, 0);
        assert_eq!(
            path.to_string(),
            "SymbolRef ↑ UnaryPrefix! ↑ While ↑ Toplevel"
        );
    }

    #[test]
    fn semi_paths_walk_to_ancestors() {
        let ast = fig1_ast();
        let cfg = ExtractionConfig::with_limits(2, 3).semi_paths(true);
        let semis = semi_path_contexts(&ast, &cfg);
        // Every semi-path is pure-up and at most 2 edges.
        assert!(!semis.is_empty());
        for s in &semis {
            assert!(s.path.len() <= 2);
            assert!(s.path.directions().iter().all(|&d| d == Direction::Up));
            assert!(matches!(s.end, PathEnd::Node(_)));
        }
        // The d-leaf yields `SymbolRef ↑ UnaryPrefix!` among them.
        assert!(semis
            .iter()
            .any(|s| s.display_triple() == "⟨d, SymbolRef ↑ UnaryPrefix!, UnaryPrefix!⟩"));
    }

    #[test]
    fn contexts_to_node_targets_a_nonterminal() {
        let ast = fig1_ast();
        // Find the Assign= node.
        let assign = ast
            .preorder()
            .find(|&n| ast.kind(n).as_str() == "Assign=")
            .unwrap();
        let ctxs = contexts_to_node(&ast, assign, &ExtractionConfig::with_limits(8, 8));
        assert!(ctxs
            .iter()
            .any(|c| c.display_triple() == "⟨d, SymbolRef ↑ Assign=, Assign=⟩"));
        assert!(ctxs
            .iter()
            .any(|c| c.display_triple() == "⟨true, True ↑ Assign=, Assign=⟩"));
        // `d` under UnaryPrefix! reaches the Assign= too, going up then
        // down: SymbolRef ↑ UnaryPrefix! ↑ While ↓ If ↓ Assign= (4 edges).
        assert!(ctxs
            .iter()
            .any(|c| { c.start.as_str() == "d" && c.path.len() == 4 }));
    }

    /// The pre-rewrite `contexts_to_node`: one [`path_between`] walk per
    /// leaf, filtered after materialization. Kept as the behavioural
    /// reference for the chain-walk implementation.
    fn contexts_to_node_reference<'a>(
        ast: &'a Ast,
        target: NodeId,
        cfg: &ExtractionConfig,
    ) -> Vec<PathContext<'a>> {
        let mut out = Vec::new();
        for &leaf in ast.leaves() {
            if leaf == target {
                continue;
            }
            let (path, width) = path_between(ast, leaf, target);
            if path.len() > cfg.max_length || width > cfg.max_width {
                continue;
            }
            out.push(PathContext {
                start: PathEnd::Value(ast.value(leaf).expect("leaves carry values")),
                path,
                end: path_end(ast, target),
                start_node: leaf,
                end_node: target,
            });
        }
        out
    }

    #[test]
    fn contexts_to_node_matches_pairwise_reference() {
        for ast in [fig1_ast(), fig5_ast()] {
            for target in ast.preorder() {
                for (len, width) in [(2, 1), (3, 2), (4, 1), (8, 3), (16, 16)] {
                    let cfg = ExtractionConfig::with_limits(len, width);
                    assert_eq!(
                        contexts_to_node(&ast, target, &cfg),
                        contexts_to_node_reference(&ast, target, &cfg),
                        "target {target:?}, max_length {len}, max_width {width}"
                    );
                }
            }
        }
    }

    #[test]
    fn extract_merges_semi_paths_when_enabled() {
        let ast = fig1_ast();
        let plain = extract(&ast, &ExtractionConfig::with_limits(8, 3));
        let with_semis = extract(&ast, &ExtractionConfig::with_limits(8, 3).semi_paths(true));
        assert!(with_semis.len() > plain.len());
    }

    #[test]
    fn occurrences_pair_once_per_unordered_pair() {
        let ast = fig5_ast();
        let ctxs = leaf_pair_contexts(&ast, &ExtractionConfig::with_limits(16, 16));
        // C(4, 2) = 6 pairs.
        assert_eq!(ctxs.len(), 6);
        let names: Vec<(String, String)> = ctxs
            .iter()
            .map(|c| (c.start.as_str().to_owned(), c.end.as_str().to_owned()))
            .collect();
        assert!(names.contains(&("a".into(), "d".into())));
        assert!(!names.contains(&("d".into(), "a".into())));
    }

    #[test]
    fn element_occurrence_values_survive_extraction() {
        let ast = fig1_ast();
        assert_eq!(ast.leaves_with_value("d").len(), 2);
    }
}
