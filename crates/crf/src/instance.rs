//! CRF instances: the factor graph built from one program.
//!
//! The graph follows Nice2Predict (Raychev et al., POPL'15) as the paper
//! uses it: one node per program element, **pairwise factors** between
//! elements connected by a path-context, and the paper's added **unary
//! factors** from paths between different occurrences of the *same*
//! element (§5.1). Known elements (literals, API names, …) have fixed
//! labels and only serve as evidence; unknown elements are predicted
//! jointly by MAP inference.
//!
//! The crate is purely numeric: labels and paths arrive as dense `u32`
//! ids interned by the caller. This keeps the learner reusable across
//! tasks (names, method names, types) without threading vocabularies
//! through it.

/// One program element in the factor graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Node {
    /// For known nodes, the observed label. For unknown nodes, the gold
    /// label: consumed by the trainer, ignored (except for convenience
    /// comparisons by the caller) at prediction time.
    pub label: u32,
    /// Whether the label is given (evidence) rather than predicted.
    pub known: bool,
}

impl Node {
    /// An evidence node with a fixed label.
    pub fn known(label: u32) -> Self {
        Node { label, known: true }
    }

    /// A node to be predicted, carrying its gold label.
    pub fn unknown(gold: u32) -> Self {
        Node {
            label: gold,
            known: false,
        }
    }
}

/// A pairwise factor: elements `a` and `b` are related by an (abstracted)
/// path. Orientation is source order and is preserved end-to-end, so the
/// feature `(path, label_a, label_b)` is consistent between training and
/// inference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairFactor {
    /// Index of the start element.
    pub a: usize,
    /// Index of the end element.
    pub b: usize,
    /// Dense id of the abstracted path connecting them.
    pub path: u32,
}

/// A unary factor: a path between two occurrences of one element, which
/// collapses to a single-node factor in the CRF because occurrences of an
/// identifier share a node (§5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnaryFactor {
    /// Index of the element.
    pub node: usize,
    /// Dense id of the abstracted self-path.
    pub path: u32,
}

/// A complete factor graph for one program.
#[derive(Debug, Clone, Default)]
pub struct Instance {
    /// The elements.
    pub nodes: Vec<Node>,
    /// Pairwise factors between elements.
    pub pairwise: Vec<PairFactor>,
    /// Unary factors on single elements.
    pub unary: Vec<UnaryFactor>,
}

impl Instance {
    /// A graph with the given nodes and no factors yet.
    pub fn new(nodes: Vec<Node>) -> Self {
        Instance {
            nodes,
            pairwise: Vec::new(),
            unary: Vec::new(),
        }
    }

    /// Adds a pairwise factor.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range or `a == b` (use a unary
    /// factor for self-relations).
    pub fn add_pair(&mut self, a: usize, b: usize, path: u32) {
        assert!(
            a < self.nodes.len() && b < self.nodes.len(),
            "node out of range"
        );
        assert_ne!(a, b, "self-relations are unary factors");
        self.pairwise.push(PairFactor { a, b, path });
    }

    /// Adds a unary factor.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range.
    pub fn add_unary(&mut self, node: usize, path: u32) {
        assert!(node < self.nodes.len(), "node out of range");
        self.unary.push(UnaryFactor { node, path });
    }

    /// Indices of the unknown (to-be-predicted) nodes.
    pub fn unknown_nodes(&self) -> Vec<usize> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| !n.known)
            .map(|(i, _)| i)
            .collect()
    }

    /// This graph with its label and path ids mapped through `labels`
    /// and `paths` (local id → shared id): how a document extracted
    /// against its own vocabularies joins a shared id space.
    ///
    /// # Panics
    ///
    /// Panics if an id is out of range of its map.
    pub fn remap(&self, labels: &[u32], paths: &[u32]) -> Instance {
        let mut shared = self.clone();
        for node in &mut shared.nodes {
            node.label = labels[node.label as usize];
        }
        for pf in &mut shared.pairwise {
            pf.path = paths[pf.path as usize];
        }
        for uf in &mut shared.unary {
            uf.path = paths[uf.path as usize];
        }
        shared
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_nodes_are_listed() {
        let inst = Instance::new(vec![Node::known(1), Node::unknown(2), Node::unknown(0)]);
        assert_eq!(inst.unknown_nodes(), vec![1, 2]);
    }

    #[test]
    fn remap_maps_labels_and_paths_and_keeps_structure() {
        let mut inst = Instance::new(vec![Node::known(1), Node::unknown(0)]);
        inst.add_pair(0, 1, 0);
        inst.add_unary(1, 1);
        let shared = inst.remap(&[7, 9], &[4, 5]);
        assert_eq!(shared.nodes, vec![Node::known(9), Node::unknown(7)]);
        assert_eq!(
            shared.pairwise,
            vec![PairFactor {
                a: 0,
                b: 1,
                path: 4
            }]
        );
        assert_eq!(shared.unary, vec![UnaryFactor { node: 1, path: 5 }]);
    }

    #[test]
    #[should_panic(expected = "self-relations")]
    fn self_pair_panics() {
        let mut inst = Instance::new(vec![Node::unknown(0)]);
        inst.add_pair(0, 0, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let mut inst = Instance::new(vec![Node::unknown(0)]);
        inst.add_unary(3, 1);
    }
}
