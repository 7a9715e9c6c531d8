//! CRF factor-graph construction from parsed documents.
//!
//! The builder is shared across every representation and every task: it
//! takes the `(leaf, leaf, feature)` triples produced by
//! [`extract_edge_features`](crate::extract_edge_features), groups leaves
//! into elements, and emits a [`pigeon_crf::Instance`] whose pairwise
//! factors relate distinct elements and whose unary factors come from
//! relations between occurrences of one element (§5.1).
//!
//! Vocabularies only grow during training; at test time unseen features
//! are dropped and unseen evidence labels disable their factors — the
//! fate of out-of-vocabulary items in the real pipeline.

use crate::elements::{classify_elements, find_initializer, Element, ElementClass};
use crate::features::EdgeFeature;
use pigeon_ast::{Ast, NodeId};
use pigeon_core::{contexts_to_node, Abstraction, ExtractionConfig, Interner};
use pigeon_corpus::{Language, TypeTruth};
use pigeon_crf::{Instance, Node};
use std::collections::HashMap;

/// Shared label and feature vocabularies for one experiment.
#[derive(Debug, Clone, Default)]
pub struct Vocabs {
    /// Names/types, shared by evidence and predictions.
    pub labels: Interner<String>,
    /// Rendered relation features.
    pub features: Interner<String>,
}

impl Vocabs {
    /// An empty vocabulary set.
    pub fn new() -> Self {
        Vocabs::default()
    }

    /// Resolves a label id back to its string.
    pub fn label_name(&self, id: u32) -> &str {
        self.labels.resolve(id)
    }

    /// Both vocabularies' strings in id order, as model files,
    /// artifacts and partials store them: `(labels, features)`.
    pub fn tables(&self) -> (Vec<String>, Vec<String>) {
        let strings = |v: &Interner<String>| v.iter().map(|(_, s)| s.clone()).collect();
        (strings(&self.labels), strings(&self.features))
    }

    /// Interns a document's local tables (first-intern order) into
    /// these vocabularies, returning the shared id of each local label
    /// and feature id — the maps [`pigeon_crf::Instance::remap`] takes.
    /// Only [`crate::partial::replay`] calls this.
    pub(crate) fn intern_tables(
        &mut self,
        labels: &[String],
        features: &[String],
    ) -> (Vec<u32>, Vec<u32>) {
        // Most strings are already known: probe by reference and copy
        // only the new ones.
        let intern = |v: &mut Interner<String>, items: &[String]| {
            items
                .iter()
                .map(|s| match v.get_by(s.as_str()) {
                    Some(id) => id,
                    None => v.intern(s.clone()),
                })
                .collect()
        };
        (
            intern(&mut self.labels, labels),
            intern(&mut self.features, features),
        )
    }

    /// Rebuilds vocabularies from stored [`tables`](Vocabs::tables).
    ///
    /// # Errors
    ///
    /// A table that repeats an entry: the repeat would collapse two ids
    /// into one and silently shift every id after it.
    pub fn from_tables(labels: Vec<String>, features: Vec<String>) -> Result<Vocabs, String> {
        let mut vocabs = Vocabs::new();
        for (what, items, vocab) in [
            ("label", labels, &mut vocabs.labels),
            ("feature", features, &mut vocabs.features),
        ] {
            let len = items.len();
            for item in items {
                vocab.intern(item);
            }
            if vocab.len() != len {
                return Err(format!("duplicate entry in the {what} vocabulary"));
            }
        }
        Ok(vocabs)
    }
}

/// How a graph build resolves vocabulary entries.
///
/// Training interns new items and therefore needs `&mut Vocabs`; lookup
/// never inserts, needs only shared access, and resolves strings without
/// allocating — the serving hot path builds graphs straight against a
/// trained model's `&Vocabs`, with no per-call clone.
enum VocabMode<'a> {
    Train(&'a mut Vocabs),
    Lookup(&'a Vocabs),
}

impl VocabMode<'_> {
    fn label_id(&mut self, s: &str) -> Option<u32> {
        match self {
            VocabMode::Train(v) => Some(v.labels.intern(s.to_owned())),
            VocabMode::Lookup(v) => v.labels.get_by(s),
        }
    }

    fn feature_id(&mut self, s: &str) -> Option<u32> {
        match self {
            VocabMode::Train(v) => Some(v.features.intern(s.to_owned())),
            VocabMode::Lookup(v) => v.features.get_by(s),
        }
    }
}

/// A built factor graph plus the bookkeeping needed to score it.
#[derive(Debug)]
pub struct DocGraph {
    /// The CRF instance.
    pub instance: Instance,
    /// Element name (or gold type) per node.
    pub node_names: Vec<String>,
    /// Indices of the nodes to predict.
    pub unknown_nodes: Vec<usize>,
}

/// Builds the name-prediction graph: elements of class `target` are
/// unknown, everything else is evidence.
///
/// Semi-path features, when the experiment enables them, become
/// additional unary factors via [`add_semi_paths`].
pub fn build_name_graph(
    language: Language,
    ast: &Ast,
    target: ElementClass,
    features: &[EdgeFeature],
    vocabs: &mut Vocabs,
    train: bool,
) -> DocGraph {
    let mode = if train {
        VocabMode::Train(vocabs)
    } else {
        VocabMode::Lookup(vocabs)
    };
    build_name_graph_with(language, ast, target, features, mode)
}

/// Lookup-only [`build_name_graph`]: builds the prediction graph against
/// a trained model's vocabularies without mutating (or cloning) them.
/// Unseen features are dropped and unseen labels disable their factors,
/// exactly as `build_name_graph` with `train = false`.
pub fn build_name_graph_lookup(
    language: Language,
    ast: &Ast,
    target: ElementClass,
    features: &[EdgeFeature],
    vocabs: &Vocabs,
) -> DocGraph {
    build_name_graph_with(language, ast, target, features, VocabMode::Lookup(vocabs))
}

fn build_name_graph_with(
    language: Language,
    ast: &Ast,
    target: ElementClass,
    features: &[EdgeFeature],
    mut vocabs: VocabMode<'_>,
) -> DocGraph {
    let elements = classify_elements(language, ast);
    let leaf_to_element = leaf_index(&elements);

    let mut nodes = Vec::with_capacity(elements.len());
    let mut node_names = Vec::with_capacity(elements.len());
    // Known elements whose label is out of vocabulary carry no usable
    // evidence; factors touching them are dropped below.
    let mut usable = vec![true; elements.len()];
    let mut unknown_nodes = Vec::new();

    for (i, e) in elements.iter().enumerate() {
        let unknown = e.class == target;
        let label = vocabs.label_id(&e.name);
        match (unknown, label) {
            (true, Some(id)) => {
                unknown_nodes.push(i);
                nodes.push(Node::unknown(id));
            }
            (true, None) => {
                // OOV gold: still predicted, scored as wrong unless the
                // prediction happens to normalise-match.
                unknown_nodes.push(i);
                nodes.push(Node::unknown(0));
            }
            (false, Some(id)) => nodes.push(Node::known(id)),
            (false, None) => {
                usable[i] = false;
                nodes.push(Node::known(0));
            }
        }
        node_names.push(e.name.clone());
    }

    let mut instance = Instance::new(nodes);
    for ef in features {
        let (Some(&a), Some(&b)) = (leaf_to_element.get(&ef.a), leaf_to_element.get(&ef.b)) else {
            continue;
        };
        let Some(feature) = vocabs.feature_id(&ef.feature) else {
            continue;
        };
        let a_unknown = elements[a].class == target;
        let b_unknown = elements[b].class == target;
        if a == b {
            if a_unknown {
                instance.add_unary(a, feature);
            }
            continue;
        }
        if !a_unknown && !b_unknown {
            continue; // evidence-evidence factors are constants
        }
        if (!a_unknown && !usable[a]) || (!b_unknown && !usable[b]) {
            continue; // OOV evidence
        }
        instance.add_pair(a, b, feature);
    }

    DocGraph {
        instance,
        node_names,
        unknown_nodes,
    }
}

/// Adds semi-path features to an already-built name graph as unary
/// factors on the unknown elements they touch (§5: semi-paths
/// "provide more generalization" on top of leafwise paths).
pub fn add_semi_paths(
    language: Language,
    ast: &Ast,
    target: ElementClass,
    graph: &mut DocGraph,
    semis: &[crate::features::NodeFeature],
    vocabs: &mut Vocabs,
    train: bool,
) {
    let mode = if train {
        VocabMode::Train(vocabs)
    } else {
        VocabMode::Lookup(vocabs)
    };
    add_semi_paths_with(language, ast, target, graph, semis, mode);
}

/// Lookup-only [`add_semi_paths`]: shared vocabulary access, so parallel
/// evaluation workers can decorate graphs against one trained model.
pub fn add_semi_paths_lookup(
    language: Language,
    ast: &Ast,
    target: ElementClass,
    graph: &mut DocGraph,
    semis: &[crate::features::NodeFeature],
    vocabs: &Vocabs,
) {
    add_semi_paths_with(
        language,
        ast,
        target,
        graph,
        semis,
        VocabMode::Lookup(vocabs),
    );
}

fn add_semi_paths_with(
    language: Language,
    ast: &Ast,
    target: ElementClass,
    graph: &mut DocGraph,
    semis: &[crate::features::NodeFeature],
    mut mode: VocabMode<'_>,
) {
    let elements = classify_elements(language, ast);
    let leaf_to_element = leaf_index(&elements);
    for nf in semis {
        let Some(&e) = leaf_to_element.get(&nf.leaf) else {
            continue;
        };
        if elements[e].class != target {
            continue;
        }
        let Some(feature) = mode.feature_id(&nf.feature) else {
            continue;
        };
        graph.instance.add_unary(e, feature);
    }
}

/// Builds the full-type graph for one typed-Java document: one unknown
/// node per ground-truth declaration, linked to the leaf elements around
/// its initializer expression by leaf→nonterminal paths (§5.3.3).
pub fn build_type_graph(
    ast: &Ast,
    truths: &[TypeTruth],
    extraction: &ExtractionConfig,
    abstraction: Abstraction,
    vocabs: &mut Vocabs,
    train: bool,
) -> DocGraph {
    let mode = if train {
        VocabMode::Train(vocabs)
    } else {
        VocabMode::Lookup(vocabs)
    };
    build_type_graph_with(ast, truths, extraction, abstraction, mode)
}

/// Lookup-only [`build_type_graph`], for parallel held-out evaluation
/// against a trained model's vocabularies.
pub fn build_type_graph_lookup(
    ast: &Ast,
    truths: &[TypeTruth],
    extraction: &ExtractionConfig,
    abstraction: Abstraction,
    vocabs: &Vocabs,
) -> DocGraph {
    build_type_graph_with(
        ast,
        truths,
        extraction,
        abstraction,
        VocabMode::Lookup(vocabs),
    )
}

fn build_type_graph_with(
    ast: &Ast,
    truths: &[TypeTruth],
    extraction: &ExtractionConfig,
    abstraction: Abstraction,
    mut mode: VocabMode<'_>,
) -> DocGraph {
    let elements = classify_elements(Language::Java, ast);
    let leaf_to_element = leaf_index(&elements);

    let mut nodes = Vec::with_capacity(elements.len() + truths.len());
    let mut node_names = Vec::with_capacity(elements.len() + truths.len());
    let mut usable = vec![true; elements.len()];
    for (i, e) in elements.iter().enumerate() {
        match mode.label_id(&e.name) {
            Some(id) => nodes.push(Node::known(id)),
            None => {
                usable[i] = false;
                nodes.push(Node::known(0));
            }
        }
        node_names.push(e.name.clone());
    }

    let mut unknown_nodes = Vec::new();
    let mut type_targets: Vec<(usize, NodeId)> = Vec::new();
    for truth in truths {
        let Some(init) = find_initializer(ast, &truth.var) else {
            continue;
        };
        let idx = nodes.len();
        let label = mode.label_id(&truth.fqn).unwrap_or(0);
        nodes.push(Node::unknown(label));
        node_names.push(truth.fqn.clone());
        unknown_nodes.push(idx);
        type_targets.push((idx, init));
    }

    let mut instance = Instance::new(nodes);
    for (idx, init) in type_targets {
        for ctx in contexts_to_node(ast, init, extraction) {
            let Some(&leaf_elem) = leaf_to_element.get(&ctx.start_node) else {
                continue;
            };
            if !usable[leaf_elem] {
                continue;
            }
            let rendered = abstraction.apply(&ctx.path).to_string();
            let Some(feature) = mode.feature_id(&rendered) else {
                continue;
            };
            instance.add_pair(leaf_elem, idx, feature);
        }
    }

    DocGraph {
        instance,
        node_names,
        unknown_nodes,
    }
}

fn leaf_index(elements: &[Element]) -> HashMap<NodeId, usize> {
    let mut map = HashMap::new();
    for (i, e) in elements.iter().enumerate() {
        for &leaf in &e.occurrences {
            map.insert(leaf, i);
        }
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::{extract_edge_features, Representation};

    fn build_js(src: &str, train: bool, vocabs: &mut Vocabs) -> DocGraph {
        let ast = Language::JavaScript.parse(src).unwrap();
        let feats = extract_edge_features(
            Language::JavaScript,
            &ast,
            Representation::AstPaths(Abstraction::Full),
            &ExtractionConfig::with_limits(8, 3),
        );
        build_name_graph(
            Language::JavaScript,
            &ast,
            ElementClass::Variable,
            &feats,
            vocabs,
            train,
        )
    }

    #[test]
    fn unary_factors_come_from_self_paths() {
        let mut vocabs = Vocabs::new();
        let g = build_js(
            "function f() { var done = false; while (!done) { done = true; } }",
            true,
            &mut vocabs,
        );
        assert!(
            !g.instance.unary.is_empty(),
            "repeated occurrences of `done` must yield unary factors"
        );
        assert!(!g.instance.pairwise.is_empty());
        assert_eq!(g.unknown_nodes.len(), 1, "only `done` is a variable");
    }

    #[test]
    fn known_known_factors_are_dropped() {
        let mut vocabs = Vocabs::new();
        let g = build_js("log('a', 'b');", true, &mut vocabs);
        assert!(g.unknown_nodes.is_empty());
        assert!(g.instance.pairwise.is_empty());
        assert!(g.instance.unary.is_empty());
    }

    #[test]
    fn test_time_vocabularies_do_not_grow() {
        let mut vocabs = Vocabs::new();
        let _ = build_js("var total = 0; total += price;", true, &mut vocabs);
        let labels_before = vocabs.labels.len();
        let features_before = vocabs.features.len();
        let _ = build_js(
            "var unseenName = 0; unseenName += anotherUnseen;",
            false,
            &mut vocabs,
        );
        assert_eq!(vocabs.labels.len(), labels_before);
        assert_eq!(vocabs.features.len(), features_before);
    }

    #[test]
    fn oov_unknowns_are_still_predicted() {
        let mut vocabs = Vocabs::new();
        let _ = build_js("var total = 0;", true, &mut vocabs);
        let g = build_js("var exotic = 0;", false, &mut vocabs);
        assert_eq!(g.unknown_nodes.len(), 1);
        assert_eq!(g.node_names[g.unknown_nodes[0]], "exotic");
    }

    #[test]
    fn type_graph_links_initializer_to_surroundings() {
        let mut vocabs = Vocabs::new();
        let ast = Language::Java
            .parse(
                "class A { void f(String raw) { String message = raw.trim(); \
                 int n = message.length(); } }",
            )
            .unwrap();
        let truths = vec![TypeTruth {
            var: "message".into(),
            fqn: "java.lang.String".into(),
        }];
        let g = build_type_graph(
            &ast,
            &truths,
            &ExtractionConfig::with_limits(6, 2),
            Abstraction::Full,
            &mut vocabs,
            true,
        );
        assert_eq!(g.unknown_nodes.len(), 1);
        let type_node = g.unknown_nodes[0];
        assert_eq!(g.node_names[type_node], "java.lang.String");
        assert!(
            g.instance.pairwise.iter().any(|p| p.b == type_node),
            "type node must receive factors"
        );
    }

    #[test]
    fn type_graph_skips_missing_declarations() {
        let mut vocabs = Vocabs::new();
        let ast = Language::Java.parse("class A { }").unwrap();
        let truths = vec![TypeTruth {
            var: "ghost".into(),
            fqn: "java.lang.String".into(),
        }];
        let g = build_type_graph(
            &ast,
            &truths,
            &ExtractionConfig::with_limits(6, 2),
            Abstraction::Full,
            &mut vocabs,
            true,
        );
        assert!(g.unknown_nodes.is_empty());
    }
}
