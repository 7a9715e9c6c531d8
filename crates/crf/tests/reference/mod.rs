//! The hash-map ICM reference: a direct, unoptimised transcription of
//! MAP inference over tuple-keyed weight maps, rebuilt from a model's
//! public read accessors. It rebuilds adjacency and candidate vectors on
//! every call and re-scans every unknown on every sweep, so it shares no
//! code with the packed engine — which must agree with it
//! label-for-label (`prop_crf.rs`).

use pigeon_crf::{CrfModel, Instance};
use std::collections::HashMap;

/// A model's tables, re-keyed into hash maps.
pub struct Reference {
    pair: HashMap<(u32, u32, u32), f32>,
    unary: HashMap<(u32, u32), f32>,
    candidates: HashMap<(u32, u32, u8), Vec<u32>>,
    label_counts: Vec<u32>,
    global_candidates: Vec<u32>,
    max_candidates: usize,
    max_passes: usize,
}

/// For every node, the indices into `pairwise` and `unary` that touch it.
#[derive(Clone, Default)]
struct NodeAdjacency {
    pairwise: Vec<usize>,
    unary: Vec<usize>,
}

fn adjacency(inst: &Instance) -> Vec<NodeAdjacency> {
    let mut adj = vec![NodeAdjacency::default(); inst.nodes.len()];
    for (f, pf) in inst.pairwise.iter().enumerate() {
        adj[pf.a].pairwise.push(f);
        adj[pf.b].pairwise.push(f);
    }
    for (f, uf) in inst.unary.iter().enumerate() {
        adj[uf.node].unary.push(f);
    }
    adj
}

impl Reference {
    pub fn new(model: &CrfModel) -> Self {
        Reference {
            pair: model
                .pair_weight_entries()
                .map(|(p, a, b, w)| ((p, a, b), w))
                .collect(),
            unary: model
                .unary_weight_entries()
                .map(|(p, l, w)| ((p, l), w))
                .collect(),
            candidates: model
                .candidate_entries()
                .map(|(key, labels, _)| (key, labels.to_vec()))
                .collect(),
            label_counts: model.label_count_table().to_vec(),
            global_candidates: model.global_candidate_labels().to_vec(),
            max_candidates: model.max_candidates(),
            max_passes: model.max_passes(),
        }
    }

    fn pair_w(&self, path: u32, la: u32, lb: u32) -> f32 {
        self.pair.get(&(path, la, lb)).copied().unwrap_or(0.0)
    }

    fn unary_w(&self, path: u32, l: u32) -> f32 {
        self.unary.get(&(path, l)).copied().unwrap_or(0.0)
    }

    /// A small tie-break prior favouring frequent labels.
    fn prior(&self, label: u32) -> f32 {
        let c = self.label_counts.get(label as usize).copied().unwrap_or(0);
        1e-3 * (1.0 + f32::ln(1.0 + c as f32))
    }

    /// The candidate label set for one unknown node: per-factor
    /// suggestions from training co-occurrence, then global frequent
    /// labels, capped at `max_candidates`.
    fn node_candidates(
        &self,
        inst: &Instance,
        adj: &[NodeAdjacency],
        labels: &[u32],
        node: usize,
    ) -> Vec<u32> {
        let mut out: Vec<u32> = Vec::new();
        let push = |l: u32, out: &mut Vec<u32>| {
            if !out.contains(&l) && out.len() < self.max_candidates {
                out.push(l);
            }
        };
        for &f in &adj[node].pairwise {
            let pf = inst.pairwise[f];
            let (other, side) = if pf.a == node {
                (pf.b, 0u8)
            } else {
                (pf.a, 1u8)
            };
            if let Some(suggested) = self.candidates.get(&(pf.path, labels[other], side)) {
                for &l in suggested {
                    push(l, &mut out);
                }
            }
        }
        for &l in &self.global_candidates {
            push(l, &mut out);
        }
        out
    }

    /// The score of assigning `label` to `node` with every other node
    /// held at `labels`; `loss_augment` adds a unit margin against the
    /// gold label. Terms are added in the engine's order: prior,
    /// pairwise factors in adjacency order, unary factors, margin.
    fn node_score(
        &self,
        inst: &Instance,
        adj: &[NodeAdjacency],
        labels: &[u32],
        node: usize,
        label: u32,
        loss_augment: bool,
    ) -> f32 {
        let mut s = self.prior(label);
        for &f in &adj[node].pairwise {
            let pf = inst.pairwise[f];
            s += if pf.a == node {
                self.pair_w(pf.path, label, labels[pf.b])
            } else {
                self.pair_w(pf.path, labels[pf.a], label)
            };
        }
        for &f in &adj[node].unary {
            s += self.unary_w(inst.unary[f].path, label);
        }
        if loss_augment && label != inst.nodes[node].label {
            s += 1.0;
        }
        s
    }

    fn argmax(
        &self,
        inst: &Instance,
        adj: &[NodeAdjacency],
        labels: &[u32],
        node: usize,
        candidates: &[u32],
        loss_augment: bool,
    ) -> u32 {
        let mut best = labels[node];
        let mut best_score = f32::NEG_INFINITY;
        for &c in candidates {
            let s = self.node_score(inst, adj, labels, node, c, loss_augment);
            if s > best_score {
                best_score = s;
                best = c;
            }
        }
        if candidates.is_empty() {
            // No evidence at all: the most frequent training label.
            best = self.global_candidates.first().copied().unwrap_or(0);
        }
        best
    }

    /// Every candidate of `node` with its score, every other node held
    /// at `labels`, in candidate order.
    pub fn candidate_scores(
        &self,
        inst: &Instance,
        labels: &[u32],
        node: usize,
    ) -> Vec<(u32, f32)> {
        let adj = adjacency(inst);
        self.node_candidates(inst, &adj, labels, node)
            .into_iter()
            .map(|c| (c, self.node_score(inst, &adj, labels, node, c, false)))
            .collect()
    }

    /// The best `k` of [`Reference::candidate_scores`], best first; ties
    /// go to the smaller label id.
    pub fn top_k(&self, inst: &Instance, labels: &[u32], node: usize, k: usize) -> Vec<(u32, f32)> {
        let mut scored = self.candidate_scores(inst, labels, node);
        scored.sort_by(|x, y| y.1.total_cmp(&x.1).then(x.0.cmp(&y.0)));
        scored.truncate(k);
        scored
    }

    /// MAP inference by plain iterated conditional modes: blank the
    /// unknowns, initialise each from the evidence, then sweep every
    /// unknown until a fixpoint (or the sweep limit).
    pub fn infer(&self, inst: &Instance, loss_augment: bool) -> Vec<u32> {
        let adj = adjacency(inst);
        let mut labels: Vec<u32> = inst.nodes.iter().map(|n| n.label).collect();
        let unknowns = inst.unknown_nodes();

        // Their stored labels are gold and must never influence inference.
        let blank = self.global_candidates.first().copied().unwrap_or(0);
        for &u in &unknowns {
            labels[u] = blank;
        }
        // Initialise unknowns ignoring each other: evidence-only pass.
        for &u in &unknowns {
            let cands = self.node_candidates(inst, &adj, &labels, u);
            labels[u] = self.argmax(inst, &adj, &labels, u, &cands, loss_augment);
        }
        for _ in 0..self.max_passes {
            let mut changed = false;
            for &u in &unknowns {
                let cands = self.node_candidates(inst, &adj, &labels, u);
                let best = self.argmax(inst, &adj, &labels, u, &cands, loss_augment);
                if best != labels[u] {
                    labels[u] = best;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        labels
    }
}
