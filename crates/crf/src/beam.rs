//! Beam-search MAP inference.
//!
//! Nice2Predict's prediction explores candidate assignments with a beam;
//! this module provides the same alternative to the default iterated
//! conditional modes of [`CrfModel::predict`]. Unknown nodes are assigned
//! one at a time — most-constrained first — while the `width` best
//! partial assignments survive each step. Beam search can escape local
//! optima that a greedy sweep gets stuck in, at a cost linear in the
//! beam width.

use crate::engine::Workspace;
use crate::instance::Instance;
use crate::model::CrfModel;

impl CrfModel {
    /// MAP inference by beam search with the given beam width.
    ///
    /// Runs on the packed tables, like [`CrfModel::predict`]: scoring
    /// hits the indexed weights and the adjacency/candidate buffers come
    /// from a reused workspace, so widening the beam scales only the
    /// state cloning, not the lookup cost.
    ///
    /// Returns the full label vector, like [`CrfModel::predict`]. With
    /// `width = 1` this degenerates to a single greedy sequential
    /// assignment; larger widths keep alternatives alive across nodes.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn predict_beam(&self, inst: &Instance, width: usize) -> Vec<u32> {
        assert!(width > 0, "beam width must be positive");
        let mut ws = Workspace::new();
        self.prepare(inst, &mut ws);
        let base: Vec<u32> = {
            // Start from the ICM solution's evidence-blanked baseline so
            // unknown slots carry a safe default while unassigned.
            let blank = self.global_head();
            inst.nodes
                .iter()
                .map(|n| if n.known { n.label } else { blank })
                .collect()
        };

        // Most-constrained-first: nodes with more adjacent factors have
        // sharper scores and should commit earlier.
        let mut unknowns = inst.unknown_nodes();
        unknowns.sort_by_key(|&u| std::cmp::Reverse(self.degree(&ws, u)));

        let mut beam: Vec<(Vec<u32>, f32)> = vec![(base, 0.0)];
        for &u in &unknowns {
            let mut next: Vec<(Vec<u32>, f32)> = Vec::new();
            for (labels, score) in &beam {
                let candidates = self.node_candidates(inst, &mut ws, labels, u);
                let candidates = if candidates.is_empty() {
                    vec![self.global_head()]
                } else {
                    candidates
                };
                for c in candidates {
                    let delta = self.score(inst, &ws, labels, u, c);
                    let mut assigned = labels.clone();
                    assigned[u] = c;
                    next.push((assigned, score + delta));
                }
            }
            next.sort_by(|a, b| b.1.total_cmp(&a.1));
            next.truncate(width);
            beam = next;
        }

        // One ICM-style refinement sweep over the best state irons out
        // ordering artefacts.
        let (mut labels, _) = beam.into_iter().next().expect("beam is non-empty");
        for &u in &unknowns {
            let candidates = self.node_candidates(inst, &mut ws, &labels, u);
            let mut best = labels[u];
            let mut best_score = f32::NEG_INFINITY;
            for c in candidates {
                let s = self.score(inst, &ws, &labels, u, c);
                if s > best_score {
                    best_score = s;
                    best = c;
                }
            }
            labels[u] = best;
        }
        labels
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Node;
    use crate::train::{train, CrfConfig};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn toy_world(n: usize, seed: u64) -> Vec<Instance> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let path = rng.gen_range(0..12u32);
                let mut inst = Instance::new(vec![
                    Node::unknown(path % 4),
                    Node::unknown(4 + path % 3),
                    Node::known(7 + path % 2),
                ]);
                inst.add_pair(0, 2, path);
                inst.add_pair(0, 1, 30 + path % 4);
                inst.add_unary(1, 60 + path);
                inst
            })
            .collect()
    }

    #[test]
    fn beam_matches_or_beats_icm_on_the_objective() {
        let train_set = toy_world(300, 1);
        let test_set = toy_world(80, 2);
        let model = train(&train_set, 9, &CrfConfig::default());
        let mut beam_wins = 0i32;
        for inst in &test_set {
            let icm = model.predict(inst);
            let beam = model.predict_beam(inst, 8);
            let s_icm = model.assignment_score(inst, &icm);
            let s_beam = model.assignment_score(inst, &beam);
            assert!(
                s_beam >= s_icm - 1e-4,
                "beam objective fell below ICM: {s_beam} < {s_icm}"
            );
            if s_beam > s_icm + 1e-4 {
                beam_wins += 1;
            }
        }
        // At minimum, beam never loses; usually it ties.
        assert!(beam_wins >= 0);
    }

    #[test]
    fn beam_respects_known_labels() {
        let train_set = toy_world(100, 3);
        let model = train(&train_set, 9, &CrfConfig::default());
        for inst in toy_world(20, 4) {
            let labels = model.predict_beam(&inst, 4);
            for (i, node) in inst.nodes.iter().enumerate() {
                if node.known {
                    assert_eq!(labels[i], node.label);
                }
            }
        }
    }

    #[test]
    fn width_one_is_greedy_but_valid() {
        let train_set = toy_world(100, 5);
        let model = train(&train_set, 9, &CrfConfig::default());
        let inst = &toy_world(1, 6)[0];
        let labels = model.predict_beam(inst, 1);
        assert_eq!(labels.len(), inst.nodes.len());
        assert!(labels.iter().all(|&l| l < 9));
    }

    #[test]
    #[should_panic(expected = "beam width must be positive")]
    fn zero_width_panics() {
        let model = train(&toy_world(10, 7), 9, &CrfConfig::default());
        let inst = &toy_world(1, 8)[0];
        let _ = model.predict_beam(inst, 0);
    }
}
