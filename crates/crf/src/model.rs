//! The model: packed weights, candidate tables, validation and read
//! accessors.

use crate::engine::{pair_key, EngineShared, PackedCandidates, PackedWeights, PairWeights};
use crate::instance::Instance;

/// One borrowed candidate-table entry:
/// `((path, other_label, side), labels, counts)` — see
/// [`CrfModel::candidate_entries`].
pub type CandidateEntryRef<'a> = ((u32, u32, u8), &'a [u32], &'a [u32]);

/// Upper bound on `max_candidates` accepted from any serialised model
/// (JSON or binary artifact). Trained models sit around a few dozen;
/// anything near this bound is a corrupted or hostile file, and
/// rejecting it at load time keeps a flipped length field from driving
/// pathological candidate buffers downstream.
pub const MAX_CANDIDATES_BOUND: usize = 1 << 20;

/// Upper bound on `max_passes` accepted from any serialised model —
/// same rationale as [`MAX_CANDIDATES_BOUND`], but for sweep count
/// (CPU) rather than buffer size.
pub const MAX_PASSES_BOUND: usize = 1 << 20;

/// One failed [`CrfModel::validate`] check: a stable machine-readable
/// code (reused verbatim as the `pigeon audit` diagnostic code) plus a
/// human-readable message naming the first offending entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelIssue {
    /// Stable code: `model-id-range`, `model-nonfinite-weight`,
    /// `model-empty-candidates` or `model-caps`.
    pub code: &'static str,
    /// Human-readable description naming the first offender found.
    pub message: String,
}

impl ModelIssue {
    fn new(code: &'static str, message: impl Into<String>) -> Self {
        ModelIssue {
            code,
            message: message.into(),
        }
    }

    /// `what` references a path id outside the feature vocabulary.
    pub(crate) fn feature_range(what: &str, id: u32, num_features: usize) -> Self {
        ModelIssue::new(
            "model-id-range",
            format!(
                "{what} references feature id {id}, but the feature vocabulary \
                 has {num_features} entries"
            ),
        )
    }
}

impl std::fmt::Display for ModelIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} ({})", self.message, self.code)
    }
}

/// Feature weights and label statistics of a trained CRF.
///
/// Scores are linear: the score of a joint assignment `y` is
/// `Σ w[(path, y_a, y_b)]` over pairwise factors plus
/// `Σ w[(path, y_a)]` over unary factors — Eq. 1 of the paper in log
/// space, restricted to MAP queries (the partition function is never
/// needed for prediction, matching Nice2Predict).
///
/// Every table lives in one packed form (see [`crate::engine`]),
/// whether the model was trained, parsed from JSON or loaded from a
/// binary artifact; inference runs on it directly.
#[derive(Debug, Clone, Default)]
pub struct CrfModel {
    /// Pairwise weights, keyed `label_a << 32 | label_b` per path, with
    /// the transposed mirror inference builds on first use.
    pub(crate) pair: PairWeights,
    /// Unary weights, keyed by label per path.
    pub(crate) unary: PackedWeights,
    /// Candidate index, label statistics and inference caps.
    pub(crate) shared: EngineShared,
}

impl CrfModel {
    /// Assembles a model from its packed tables.
    pub(crate) fn from_parts(
        pair: PackedWeights,
        unary: PackedWeights,
        cands: PackedCandidates,
        label_counts: Vec<u32>,
        global_candidates: Vec<u32>,
        max_candidates: usize,
        max_passes: usize,
    ) -> CrfModel {
        CrfModel {
            pair: pair.into(),
            unary,
            shared: EngineShared::new(
                cands,
                label_counts,
                global_candidates,
                max_candidates,
                max_passes,
            ),
        }
    }

    /// Whether the candidate tables carry their training co-occurrence
    /// counts. Binary artifacts ship none, so a model loaded from one
    /// can neither be re-serialised to JSON nor updated incrementally.
    pub fn has_candidate_counts(&self) -> bool {
        self.shared.cands.has_counts()
    }

    /// Number of distinct pairwise features with non-zero weight.
    pub fn num_pair_features(&self) -> usize {
        self.pair.keys.len()
    }

    /// Checks that a model is safe to run inference on: every feature
    /// and label id fits the given vocabulary sizes (so `predict` can
    /// never index past the vocabularies the model shipped with), every
    /// weight is finite (a single `inf` poisons every score it touches),
    /// no candidate entry carries an empty suggestion list, and the
    /// inference caps are sane. Tables are walked in key order, so the
    /// same model always reports the same issue.
    ///
    /// # Errors
    ///
    /// Returns the first [`ModelIssue`] found; its `code` names the
    /// failure shape and its message the smallest offending entry.
    pub fn validate(&self, num_features: usize, num_labels: usize) -> Result<(), ModelIssue> {
        let feature = |what: &str, id: u32| {
            ((id as usize) < num_features)
                .then_some(())
                .ok_or_else(|| ModelIssue::feature_range(what, id, num_features))
        };
        let label = |what: &str, id: u64| {
            (id < num_labels as u64).then_some(()).ok_or_else(|| {
                ModelIssue::new(
                    "model-id-range",
                    format!(
                        "{what} references label id {id}, but the label vocabulary \
                         has {num_labels} entries"
                    ),
                )
            })
        };
        let nonfinite = |entry: String, w: f32| {
            ModelIssue::new(
                "model-nonfinite-weight",
                format!("{entry} carries non-finite weight {w}"),
            )
        };
        let shared = &self.shared;
        if shared.label_counts.len() != num_labels {
            return Err(ModelIssue::new(
                "model-id-range",
                format!(
                    "label-count table has {} entries, but the label vocabulary \
                     has {num_labels}",
                    shared.label_counts.len()
                ),
            ));
        }
        for (name, value, bound) in [
            (
                "max_candidates",
                shared.max_candidates,
                MAX_CANDIDATES_BOUND,
            ),
            ("max_passes", shared.max_passes, MAX_PASSES_BOUND),
        ] {
            if value > bound {
                return Err(ModelIssue::new(
                    "model-caps",
                    format!("{name} is {value}, above the bound of {bound}"),
                ));
            }
        }
        for (path, key, w) in self.pair.iter_entries() {
            let (la, lb) = (key >> 32, key & u64::from(u32::MAX));
            feature("pairwise weight", path)?;
            label("pairwise weight", la)?;
            label("pairwise weight", lb)?;
            if !w.is_finite() {
                let entry = format!("pairwise weight (path {path}, labels {la}/{lb})");
                return Err(nonfinite(entry, w));
            }
        }
        for (path, l, w) in self.unary.iter_entries() {
            feature("unary weight", path)?;
            label("unary weight", l)?;
            if !w.is_finite() {
                return Err(nonfinite(
                    format!("unary weight (path {path}, label {l})"),
                    w,
                ));
            }
        }
        for (path, key, suggested, _) in shared.cands.rows() {
            let (other, side) = (key >> 1, key & 1);
            feature("candidate table", path)?;
            label("candidate table", other)?;
            if suggested.is_empty() {
                return Err(ModelIssue::new(
                    "model-empty-candidates",
                    format!(
                        "candidate entry (path {path}, label {other}, side {side}) \
                         carries no suggestions"
                    ),
                ));
            }
            for &l in suggested {
                label("candidate suggestion", u64::from(l))?;
            }
        }
        for &l in &shared.global_candidates {
            label("global candidate list", u64::from(l))?;
        }
        // Entries are in range, so only empty trailing path slots can
        // stretch an offsets index past the vocabulary (the one-slot
        // floor is the empty model's).
        for (what, num_paths) in [
            ("pairwise weight", self.pair.offsets.len().saturating_sub(1)),
            ("unary weight", self.unary.offsets.len().saturating_sub(1)),
            ("candidate table", shared.cands.num_paths()),
        ] {
            if num_paths > num_features.max(1) {
                return Err(ModelIssue::new(
                    "model-id-range",
                    format!(
                        "{what} index spans {num_paths} paths, but the feature \
                         vocabulary has {num_features} entries"
                    ),
                ));
            }
        }
        Ok(())
    }

    /// Read-only view of every pairwise weight as
    /// `(path, label_a, label_b, weight)`, in key order.
    pub fn pair_weight_entries(&self) -> impl Iterator<Item = (u32, u32, u32, f32)> + '_ {
        self.pair
            .iter_entries()
            .map(|(p, key, w)| (p, (key >> 32) as u32, key as u32, w))
    }

    /// Read-only view of every unary weight as `(path, label, weight)`,
    /// in key order.
    pub fn unary_weight_entries(&self) -> impl Iterator<Item = (u32, u32, f32)> + '_ {
        self.unary
            .iter_entries()
            .map(|(p, key, w)| (p, key as u32, w))
    }

    /// The per-label training-frequency table (indexed by label id).
    pub fn label_count_table(&self) -> &[u32] {
        &self.shared.label_counts
    }

    /// Read-only view of the candidate tables in key order: each entry is
    /// `((path, other_label, side), labels, counts)`, the suggested
    /// labels most frequent first with their co-occurrence counts —
    /// `counts` is empty when the model carries none (see
    /// [`CrfModel::has_candidate_counts`]).
    pub fn candidate_entries(&self) -> impl Iterator<Item = CandidateEntryRef<'_>> {
        self.shared.cands.rows().map(|(p, key, labels, counts)| {
            ((p, (key >> 1) as u32, (key & 1) as u8), labels, counts)
        })
    }

    /// The global fallback candidate labels, most frequent first.
    pub fn global_candidate_labels(&self) -> &[u32] {
        &self.shared.global_candidates
    }

    /// Maximum candidates considered per node during inference.
    pub fn max_candidates(&self) -> usize {
        self.shared.max_candidates
    }

    /// ICM sweeps per inference call.
    pub fn max_passes(&self) -> usize {
        self.shared.max_passes
    }

    /// The total (unnormalised log-)score of a full assignment; exposed
    /// for tests and diagnostics.
    pub fn assignment_score(&self, inst: &Instance, labels: &[u32]) -> f32 {
        let mut s = 0.0;
        for pf in &inst.pairwise {
            s += self.pair.get(pf.path, pair_key(labels[pf.a], labels[pf.b]));
        }
        for uf in &inst.unary {
            s += self.unary.get(uf.path, u64::from(labels[uf.node]));
        }
        for (i, n) in inst.nodes.iter().enumerate() {
            if !n.known {
                // A label outside the count table has frequency zero.
                s += self
                    .shared
                    .prior
                    .get(labels[i] as usize)
                    .copied()
                    .unwrap_or(1e-3 * 1.0);
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::path_span;
    use crate::instance::Node;

    /// A hand-weighted model: path 0 strongly links label pairs (1,2) and
    /// (3,4); unary path 5 favours label 1. `extra_pair` / `extra_unary`
    /// add further `(path, labels…, weight)` entries.
    fn toy_model(extra_pair: &[(u32, u32, u32, f32)], extra_unary: &[(u32, u32, f32)]) -> CrfModel {
        let mut pair = vec![(0, pair_key(1, 2), 5.0), (0, pair_key(3, 4), 4.0)];
        pair.extend(
            extra_pair
                .iter()
                .map(|&(p, a, b, w)| (p, pair_key(a, b), w)),
        );
        pair.sort_by_key(|&(p, k, _)| (p, k));
        let mut unary = vec![(5, 1, 2.0)];
        unary.extend(extra_unary.iter().map(|&(p, l, w)| (p, u64::from(l), w)));
        unary.sort_by_key(|&(p, k, _)| (p, k));
        let num_paths = path_span(pair.iter().chain(&unary).map(|e| e.0));
        CrfModel::from_parts(
            PackedWeights::from_sorted(&pair, num_paths),
            PackedWeights::from_sorted(&unary, num_paths),
            PackedCandidates::from_sorted(&[]),
            vec![1, 10, 10, 5, 5],
            vec![1, 2, 3, 4, 0],
            8,
            4,
        )
    }

    #[test]
    fn prediction_uses_pairwise_evidence() {
        let m = toy_model(&[], &[]);
        let mut inst = Instance::new(vec![Node::unknown(1), Node::known(2)]);
        inst.add_pair(0, 1, 0);
        assert_eq!(
            m.predict(&inst)[0],
            1,
            "label 1 links to known 2 via path 0"
        );
    }

    #[test]
    fn prediction_uses_unary_evidence() {
        let m = toy_model(&[], &[]);
        let mut inst = Instance::new(vec![Node::unknown(1)]);
        inst.add_unary(0, 5);
        assert_eq!(m.predict(&inst)[0], 1);
    }

    #[test]
    fn isolated_node_gets_most_frequent_label() {
        let m = toy_model(&[], &[]);
        let inst = Instance::new(vec![Node::unknown(3)]);
        assert_eq!(m.predict(&inst)[0], 1, "global head candidate wins");
    }

    #[test]
    fn icm_never_decreases_the_objective() {
        let m = toy_model(&[], &[]);
        let mut inst = Instance::new(vec![Node::unknown(1), Node::unknown(2), Node::known(2)]);
        inst.add_pair(0, 2, 0);
        inst.add_pair(0, 1, 0);
        inst.add_unary(1, 5);
        let init: Vec<u32> = inst.nodes.iter().map(|n| n.label).collect();
        let map = m.predict(&inst);
        assert!(m.assignment_score(&inst, &map) >= m.assignment_score(&inst, &init) - 1e-6);
    }

    #[test]
    fn top_k_ranks_by_score_and_contains_map() {
        let m = toy_model(&[], &[]);
        let mut inst = Instance::new(vec![Node::unknown(1), Node::known(2)]);
        inst.add_pair(0, 1, 0);
        let top = m.top_k(&inst, 0, 3);
        assert_eq!(top[0].0, m.predict(&inst)[0]);
        assert!(top.windows(2).all(|w| w[0].1 >= w[1].1));
    }

    #[test]
    fn a_huge_top_k_ranks_every_candidate_and_allocates_nothing_for_it() {
        // A model header may carry any `u32` top-k; ranking must keep no
        // more than the candidates it scored, whatever `k` asks for.
        let m = toy_model(&[], &[(5, 3, 1.5)]);
        let mut inst = Instance::new(vec![Node::unknown(1), Node::unknown(2), Node::known(2)]);
        inst.add_pair(0, 2, 0);
        inst.add_pair(1, 0, 0);
        inst.add_unary(1, 5);
        let (labels, huge) = m.predict_top_k(&inst, &[0, 1, 2], usize::MAX);
        let (same, all) = m.predict_top_k(&inst, &[0, 1, 2], 5);
        assert_eq!(labels, same);
        let bits = |lists: &[Vec<(u32, f32)>]| -> Vec<Vec<(u32, u32)>> {
            let bits = |l: &Vec<(u32, f32)>| l.iter().map(|&(c, s)| (c, s.to_bits())).collect();
            lists.iter().map(bits).collect()
        };
        assert_eq!(bits(&huge), bits(&all));
        assert!(all.iter().all(|l| l.len() == 5), "{all:?}");
    }

    #[test]
    fn long_weight_runs_score_like_short_ones() {
        // Path 3 and unary path 6 hold a weight for every candidate
        // label 0..5; the long model adds entries for labels no node can
        // take, so its runs outgrow the candidate list and are probed per
        // candidate instead of walked. The scores must not move a bit.
        let w = |c: u32| 0.1 + 0.25 * c as f32;
        let short_pair: Vec<_> = (0..5).map(|c| (3, 2, c, w(c))).collect();
        let short_unary: Vec<_> = (0..5).map(|c| (6, c, w(5 - c))).collect();
        let mut long_pair = short_pair.clone();
        long_pair.extend((5..400).map(|c| (3, 2, c, 9.0)));
        let mut long_unary = short_unary.clone();
        long_unary.extend((5..400).map(|c| (6, c, 9.0)));
        let short = toy_model(&short_pair, &short_unary);
        let long = toy_model(&long_pair, &long_unary);
        let mut inst = Instance::new(vec![Node::known(2), Node::unknown(0)]);
        inst.add_pair(0, 1, 3);
        inst.add_unary(1, 6);
        let bits = |m: &CrfModel| -> Vec<(u32, u32)> {
            m.top_k(&inst, 1, 5)
                .into_iter()
                .map(|(c, s)| (c, s.to_bits()))
                .collect()
        };
        assert_eq!(bits(&short).len(), 5);
        assert_eq!(bits(&short), bits(&long));
    }

    /// The packed mirror holds exactly the pairwise entries with their
    /// label halves swapped and the same weight bits, in the same path
    /// slots, however the model was made: finished by training, loaded
    /// from JSON, or loaded from a `.pgnc` at each quantisation.
    #[test]
    fn the_packed_mirror_is_the_transposed_pairwise_table() {
        use crate::artifact::{read_artifact, write_artifact, ArtifactMeta, Quant};
        let instances: Vec<Instance> = (0..120u32)
            .map(|i| {
                let mut inst = Instance::new(vec![
                    Node::unknown(i % 5),
                    Node::unknown((i / 5) % 5),
                    Node::known(5 + i % 2),
                ]);
                inst.add_pair(0, 1, i % 7);
                inst.add_pair(2, 0, 7 + i % 3);
                inst.add_pair(1, 2, 10 + i % 4);
                inst.add_unary(1, i % 6);
                inst
            })
            .collect();
        let trained = crate::train(&instances, 7, &crate::CrfConfig::default());
        let labels: Vec<String> = (0..7).map(|i| format!("l{i}")).collect();
        let features: Vec<String> = (0..14).map(|i| format!("f{i}")).collect();
        let meta = ArtifactMeta {
            language: "JavaScript".into(),
            target: "variable".into(),
            abstraction: "full".into(),
            max_length: 4,
            max_width: 3,
            semi_paths: false,
            top_k: 8,
            dataflow_contexts: false,
        };
        let mut models = vec![CrfModel::from_json(&trained.to_json().unwrap(), 14, 7).unwrap()];
        for quant in [Quant::F32, Quant::F16, Quant::I8] {
            let bytes = write_artifact(&meta, &labels, &features, &trained, quant).unwrap();
            models.push(read_artifact(&bytes).unwrap().model);
        }
        models.push(trained);
        for model in &models {
            let mut expected: Vec<(u32, u64, u32)> = model
                .pair
                .iter_entries()
                .map(|(p, k, w)| (p, k.rotate_left(32), w.to_bits()))
                .collect();
            expected.sort_unstable();
            let mirror = model.pair.mirror();
            let entries: Vec<(u32, u64, u32)> = mirror
                .iter_entries()
                .map(|(p, k, w)| (p, k, w.to_bits()))
                .collect();
            assert!(entries.len() > 20, "{} entries", entries.len());
            assert_eq!(entries, expected);
            assert_eq!(mirror.offsets, model.pair.offsets);
        }
    }

    #[test]
    fn inference_never_reads_gold_labels_of_unknowns() {
        // Two unknown nodes linked by a factor with a weight that would
        // reward agreeing with the *gold* label of the neighbour. If
        // inference leaked gold initialisations, node 0 would pick label 1
        // when B's gold is 2; with the leak fixed, predictions must be
        // identical whatever gold B carries.
        let m = toy_model(&[(9, 1, 2, 10.0)], &[]);
        let mut with_gold_2 = Instance::new(vec![Node::unknown(0), Node::unknown(2)]);
        with_gold_2.add_pair(0, 1, 9);
        let mut with_gold_4 = Instance::new(vec![Node::unknown(0), Node::unknown(4)]);
        with_gold_4.add_pair(0, 1, 9);
        assert_eq!(m.predict(&with_gold_2), m.predict(&with_gold_4));
    }

    #[test]
    fn loss_augmentation_can_flip_a_weak_prediction() {
        // Weak preference (0.5) for gold label 1 on unary path 6.
        let m = toy_model(&[], &[(6, 1, 0.5)]);
        let mut inst = Instance::new(vec![Node::unknown(1)]);
        inst.add_unary(0, 6);
        assert_eq!(m.infer(&inst, false)[0], 1);
        // Under loss augmentation every non-gold label gains +1 > 0.5.
        assert_ne!(m.infer(&inst, true)[0], 1);
    }

    #[test]
    fn validation_names_the_smallest_offending_key() {
        let m = toy_model(&[(7, 0, 1, 1.0), (6, 2, 0, 1.0), (9, 0, 0, 1.0)], &[]);
        let issue = m.validate(6, 5).unwrap_err();
        assert_eq!(issue.code, "model-id-range");
        assert!(issue.message.contains("feature id 6"), "{issue}");
    }
}
