//! Prediction's feature ids, resolved once per path shape and model.
//!
//! A trained model scores factors by feature id, and the string each id
//! stands for is a rendering of a path *shape* — a leaf pair's or a
//! data-flow edge's kind sequence with its up-count — under the model's
//! abstraction, prefixed `lu:`/`lw:` for data-flow paths. [`FeatureMemo`]
//! keeps, for every shape a prediction has met, the id its rendering has
//! in the model's vocabulary (or that it has none), so prediction builds
//! no feature string for a shape the model has already resolved: the
//! extractors' visitors hand over each pair's shape and the memo answers
//! with an id.
//!
//! The memo belongs to one loaded [`crate::Pigeon`], so each served model
//! version has its own and a hot swap drops it with the model. It starts
//! empty and is filled by inference, never at load. It holds at most the
//! model's feature count plus [`MEMO_SLACK`] shapes; once full, a new
//! shape is rendered and looked up exactly as before, and not kept.

use pigeon_ast::{Ast, Kind, NodeId};
use pigeon_core::{
    shape_path, visit_flow_paths, visit_leaf_pairs, Abstraction, ExtractionConfig, FlowEdge,
    FlowKind, ShapeMap,
};
use pigeon_eval::{Vocabs, NO_PATH_FEATURE};
use std::fmt;
use std::sync::RwLock;

/// Shapes the memo may hold beyond the model's feature count: room for
/// shapes the model has no feature for, and for coarse abstractions that
/// render many shapes to one feature.
pub(crate) const MEMO_SLACK: usize = 4096;

/// Which family a shape belongs to; each family renders and is memoized
/// apart, since one kind sequence means a different feature in each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Family {
    LeafPair,
    Flow(FlowKind),
}

impl Family {
    fn index(self) -> usize {
        match self {
            Family::LeafPair => 0,
            Family::Flow(FlowKind::LastUse) => 1,
            Family::Flow(FlowKind::LastWrite) => 2,
        }
    }
}

/// The feature string the string pipeline renders for a shape: the
/// abstracted path for a leaf pair (the no-path baseline's one relation
/// under [`Abstraction::NoPath`]), and the abstracted path behind the
/// edge's tag for a data-flow path.
fn render(family: Family, abstraction: Abstraction, kinds: &[Kind], up: u32) -> String {
    match family {
        Family::LeafPair if abstraction == Abstraction::NoPath => NO_PATH_FEATURE.to_owned(),
        Family::LeafPair => abstraction.apply(&shape_path(kinds, up)).to_string(),
        Family::Flow(kind) => format!(
            "{}:{}",
            kind.tag(),
            abstraction.apply(&shape_path(kinds, up))
        ),
    }
}

/// Renders data-flow edges as the string pipeline's `lu:`/`lw:` edge
/// features, each distinct shape once per call, in edge order.
pub(crate) fn flow_edge_features(
    ast: &Ast,
    edges: &[FlowEdge],
    extraction: &ExtractionConfig,
    abstraction: Abstraction,
) -> Vec<pigeon_eval::EdgeFeature> {
    let mut rendered: [ShapeMap<String>; 3] = Default::default();
    let mut out = Vec::new();
    visit_flow_paths(ast, edges, extraction, |e, up, kinds| {
        let family = Family::Flow(e.kind);
        let feature = rendered[family.index()]
            .get_or_insert_with(kinds, up, || render(family, abstraction, kinds, up))
            .clone();
        out.push(pigeon_eval::EdgeFeature {
            a: e.from,
            b: e.to,
            feature,
        });
    });
    out
}

/// Shape → feature id (`None`: the model has no such feature), one map
/// per [`Family`].
type Shapes = [ShapeMap<Option<u32>>; 3];

/// One model's memo of resolved shapes. See the module docs.
#[derive(Default)]
pub(crate) struct FeatureMemo {
    shapes: RwLock<Shapes>,
}

impl fmt::Debug for FeatureMemo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FeatureMemo")
            .field("shapes", &self.len())
            .finish()
    }
}

/// A pair's feature while its document is walked: an id the memo knew,
/// or the index of a shape to resolve after the walk.
#[derive(Clone, Copy)]
enum Slot {
    Known(u32),
    Pending(u32),
}

fn total(shapes: &Shapes) -> usize {
    shapes.iter().map(ShapeMap::len).sum()
}

impl FeatureMemo {
    /// Number of shapes held.
    pub(crate) fn len(&self) -> usize {
        total(&self.shapes.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// Stores a leaf-pair shape with no feature, bound or not.
    #[cfg(test)]
    pub(crate) fn insert_for_tests(&self, kinds: &[Kind], up: u32) {
        let mut shapes = self.shapes.write().unwrap_or_else(|e| e.into_inner());
        shapes[Family::LeafPair.index()].insert(kinds, up, None);
    }

    /// The `(leaf, leaf, feature id)` triples of one tree, in the order
    /// the string pipeline's features come in — the leaf pairs (both
    /// orientations under [`Abstraction::NoPath`]), then the data-flow
    /// paths of `flow` when given — with features the model lacks left
    /// out: the input [`pigeon_eval::build_name_graph_ids`] takes.
    ///
    /// The walk holds the memo's read lock once. Shapes the memo lacks
    /// are each rendered once, after the walk and outside the lock, and
    /// looked up in `vocabs`; they are then inserted under one write
    /// lock while the memo has room.
    pub(crate) fn feature_ids(
        &self,
        ast: &Ast,
        flow: Option<&[FlowEdge]>,
        extraction: &ExtractionConfig,
        abstraction: Abstraction,
        vocabs: &Vocabs,
    ) -> Vec<(NodeId, NodeId, u32)> {
        // Under the no-path abstraction a feature ignores its shape, so
        // every shape of a family shares one key.
        let shape_free = abstraction == Abstraction::NoPath;
        let mut triples: Vec<(NodeId, NodeId, Slot)> = Vec::new();
        let mut pending_at: [ShapeMap<u32>; 3] = Default::default();
        let mut pending: Vec<(Family, u32, Box<[Kind]>)> = Vec::new();
        {
            let shapes = self.shapes.read().unwrap_or_else(|e| e.into_inner());
            let mut slot = |family: Family, up: u32, kinds: &[Kind]| -> Option<Slot> {
                let (key, key_up) = if shape_free {
                    (&[][..], 0)
                } else {
                    (kinds, up)
                };
                match shapes[family.index()].get(key, key_up) {
                    Some(&id) => id.map(Slot::Known),
                    None => {
                        let at =
                            *pending_at[family.index()].get_or_insert_with(key, key_up, || {
                                pending.push((family, up, kinds.into()));
                                pending.len() as u32 - 1
                            });
                        Some(Slot::Pending(at))
                    }
                }
            };
            visit_leaf_pairs(ast, extraction, |a, b, up, kinds| {
                if let Some(s) = slot(Family::LeafPair, up, kinds) {
                    triples.push((a, b, s));
                    if shape_free {
                        // The no-path baseline relates both orientations.
                        triples.push((b, a, s));
                    }
                }
            });
            if let Some(edges) = flow {
                visit_flow_paths(ast, edges, extraction, |e, up, kinds| {
                    if let Some(s) = slot(Family::Flow(e.kind), up, kinds) {
                        triples.push((e.from, e.to, s));
                    }
                });
            }
        }

        let resolved: Vec<Option<u32>> = pending
            .iter()
            .map(|(family, up, kinds)| {
                vocabs
                    .features
                    .get_by(render(*family, abstraction, kinds, *up).as_str())
            })
            .collect();
        if !pending.is_empty() {
            let cap = vocabs.features.len() + MEMO_SLACK;
            let mut shapes = self.shapes.write().unwrap_or_else(|e| e.into_inner());
            let mut held = total(&shapes);
            for ((family, up, kinds), &id) in pending.iter().zip(&resolved) {
                if held >= cap {
                    break;
                }
                let map = &mut shapes[family.index()];
                let before = map.len();
                if shape_free {
                    map.insert(&[], 0, id);
                } else {
                    map.insert(kinds, *up, id);
                }
                held += map.len() - before;
            }
        }

        triples
            .into_iter()
            .filter_map(|(a, b, slot)| match slot {
                Slot::Known(id) => Some((a, b, id)),
                Slot::Pending(at) => resolved[at as usize].map(|id| (a, b, id)),
            })
            .collect()
    }
}
