//! Model persistence.
//!
//! JSON objects cannot key by tuples, so the model file lists entry
//! vectors. Saving walks the model's packed tables in key order; loading
//! sorts the entries and packs them straight into those tables.

use crate::engine::{pair_key, path_span, CandidateRow, PackedCandidates, PackedWeights};
use crate::model::{CrfModel, ModelIssue};
use serde::{Deserialize, Serialize};

/// One serialised pairwise weight: `(path, label_a, label_b, weight)`.
type PairEntry = (u32, u32, u32, f32);
/// One serialised unary weight: `(path, label, weight)`.
type UnaryEntry = (u32, u32, f32);
/// One serialised candidate row: `(path, other_label, side, suggestions)`.
type CandidateEntry = (u32, u32, u8, Vec<(u32, u32)>);

/// The on-disk form of a [`CrfModel`].
#[derive(Debug)]
struct ModelFile {
    pair_weights: Vec<PairEntry>,
    unary_weights: Vec<UnaryEntry>,
    label_counts: Vec<u32>,
    candidates: Vec<CandidateEntry>,
    global_candidates: Vec<u32>,
    max_candidates: usize,
    max_passes: usize,
}

// Hand-written (the vendored serde shim has no derive macro).
impl Serialize for ModelFile {
    fn to_value(&self) -> serde_json::Value {
        let mut map = serde_json::Map::new();
        map.insert("pair_weights".into(), self.pair_weights.to_value());
        map.insert("unary_weights".into(), self.unary_weights.to_value());
        map.insert("label_counts".into(), self.label_counts.to_value());
        map.insert("candidates".into(), self.candidates.to_value());
        map.insert(
            "global_candidates".into(),
            self.global_candidates.to_value(),
        );
        map.insert("max_candidates".into(), self.max_candidates.to_value());
        map.insert("max_passes".into(), self.max_passes.to_value());
        serde_json::Value::Object(map)
    }
}

impl Deserialize for ModelFile {
    fn from_value(value: &serde_json::Value) -> Result<Self, serde::Error> {
        fn field<T: Deserialize>(value: &serde_json::Value, key: &str) -> Result<T, serde::Error> {
            T::from_value(
                value
                    .get(key)
                    .ok_or_else(|| serde::Error::custom(format!("missing field `{key}`")))?,
            )
        }
        Ok(ModelFile {
            pair_weights: field(value, "pair_weights")?,
            unary_weights: field(value, "unary_weights")?,
            label_counts: field(value, "label_counts")?,
            candidates: field(value, "candidates")?,
            global_candidates: field(value, "global_candidates")?,
            max_candidates: field(value, "max_candidates")?,
            max_passes: field(value, "max_passes")?,
        })
    }
}

/// Sorts `(path, key, weight)` entries and names the first duplicate
/// key through `duplicate`.
fn sort_unique(
    entries: &mut [(u32, u64, f32)],
    duplicate: impl Fn(u32, u64) -> String,
) -> Result<(), serde_json::Error> {
    entries.sort_unstable_by_key(|&(p, k, _)| (p, k));
    match entries
        .windows(2)
        .find(|w| (w[0].0, w[0].1) == (w[1].0, w[1].1))
    {
        Some(w) => Err(serde::Error::custom(duplicate(w[0].0, w[0].1))),
        None => Ok(()),
    }
}

impl CrfModel {
    /// Serialises the model to a JSON string.
    ///
    /// # Errors
    ///
    /// When the model carries no candidate co-occurrence counts (a
    /// binary artifact ships none, and the JSON format needs them), or
    /// the underlying `serde_json` error.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        if !self.has_candidate_counts() {
            return Err(serde::Error::custom(
                "model carries no candidate co-occurrence counts (a compiled binary \
                 artifact ships none), so it cannot be re-serialised to JSON; keep \
                 the original JSON model file",
            ));
        }
        let candidates = self
            .candidate_entries()
            .map(|((p, l, s), labels, counts)| {
                (
                    p,
                    l,
                    s,
                    labels.iter().copied().zip(counts.iter().copied()).collect(),
                )
            })
            .collect();
        serde_json::to_string(&ModelFile {
            pair_weights: self.pair_weight_entries().collect(),
            unary_weights: self.unary_weight_entries().collect(),
            label_counts: self.shared.label_counts.clone(),
            candidates,
            global_candidates: self.shared.global_candidates.clone(),
            max_candidates: self.shared.max_candidates,
            max_passes: self.shared.max_passes,
        })
    }

    /// Restores a model serialised by [`CrfModel::to_json`] and checks it
    /// with [`CrfModel::validate`] against the vocabulary sizes it is
    /// deployed with.
    ///
    /// # Errors
    ///
    /// Returns the `serde_json` error on malformed input, on a duplicate
    /// weight or candidate key (silently keeping one of the weights
    /// would corrupt predictions), on a candidate side other than 0 or
    /// 1, and on any validation issue (rendered with its code).
    pub fn from_json(
        json: &str,
        num_features: usize,
        num_labels: usize,
    ) -> Result<CrfModel, serde_json::Error> {
        let file: ModelFile = serde_json::from_str(json)?;
        let mut pair: Vec<(u32, u64, f32)> = file
            .pair_weights
            .iter()
            .map(|&(p, a, b, w)| (p, pair_key(a, b), w))
            .collect();
        sort_unique(&mut pair, |p, k| {
            format!(
                "duplicate pairwise weight entry (path {p}, labels {}/{}): \
                 keeping either weight would silently corrupt the model",
                k >> 32,
                k as u32
            )
        })?;
        let mut unary: Vec<(u32, u64, f32)> = file
            .unary_weights
            .iter()
            .map(|&(p, l, w)| (p, u64::from(l), w))
            .collect();
        sort_unique(&mut unary, |p, l| {
            format!("duplicate unary weight entry (path {p}, label {l})")
        })?;
        let mut candidates: Vec<CandidateRow> = file
            .candidates
            .into_iter()
            .map(|(p, l, s, v)| ((p, l, s), v))
            .collect();
        candidates.sort_unstable_by_key(|&(key, _)| key);
        if let Some(w) = candidates.windows(2).find(|w| w[0].0 == w[1].0) {
            let (p, l, s) = w[0].0;
            return Err(serde::Error::custom(format!(
                "duplicate candidate entry (path {p}, label {l}, side {s})"
            )));
        }
        if let Some(&((p, l, s), _)) = candidates.iter().find(|&&((_, _, s), _)| s > 1) {
            return Err(serde::Error::custom(format!(
                "candidate entry (path {p}, label {l}) has side {s}; the sides are 0 and 1"
            )));
        }
        // Packing sizes every offsets index by the largest path id, so a
        // path beyond the feature vocabulary is refused (smallest first,
        // as `validate` would name it) before it can demand that
        // allocation.
        let beyond = |p: &u32| *p as usize >= num_features;
        for (what, path) in [
            ("pairwise weight", pair.iter().map(|e| e.0).find(beyond)),
            ("unary weight", unary.iter().map(|e| e.0).find(beyond)),
            (
                "candidate table",
                candidates.iter().map(|&((p, _, _), _)| p).find(beyond),
            ),
        ] {
            if let Some(p) = path {
                let issue = ModelIssue::feature_range(what, p, num_features);
                return Err(serde::Error::custom(issue.to_string()));
            }
        }
        let num_paths = path_span(
            pair.last()
                .map(|e| e.0)
                .into_iter()
                .chain(unary.last().map(|e| e.0))
                .chain(candidates.last().map(|&((p, _, _), _)| p)),
        );
        let model = CrfModel::from_parts(
            PackedWeights::from_sorted(&pair, num_paths),
            PackedWeights::from_sorted(&unary, num_paths),
            PackedCandidates::from_sorted(&candidates),
            file.label_counts,
            file.global_candidates,
            file.max_candidates,
            file.max_passes,
        );
        model
            .validate(num_features, num_labels)
            .map_err(|issue| serde::Error::custom(issue.to_string()))?;
        Ok(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{Instance, Node};
    use crate::train::{train, CrfConfig};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn round_trip_preserves_predictions() {
        let mut rng = SmallRng::seed_from_u64(1);
        let instances: Vec<Instance> = (0..150)
            .map(|_| {
                let path = rng.gen_range(0..8u32);
                let mut inst =
                    Instance::new(vec![Node::unknown(path % 4), Node::known(4 + path % 2)]);
                inst.add_pair(0, 1, path);
                inst.add_unary(0, 100 + path);
                inst
            })
            .collect();
        let model = train(&instances, 6, &CrfConfig::default());
        let json = model.to_json().unwrap();
        let restored = CrfModel::from_json(&json, 108, 6).unwrap();
        for inst in &instances {
            assert_eq!(model.predict(inst), restored.predict(inst));
        }
        assert_eq!(model.num_pair_features(), restored.num_pair_features());
    }

    #[test]
    fn serialisation_is_stable() {
        let mut inst = Instance::new(vec![Node::unknown(0), Node::known(1)]);
        inst.add_pair(0, 1, 3);
        let model = train(&[inst], 2, &CrfConfig::default());
        assert_eq!(model.to_json().unwrap(), model.to_json().unwrap());
    }

    #[test]
    fn malformed_json_errors() {
        assert!(CrfModel::from_json("{not json", 0, 0).is_err());
    }

    #[test]
    fn out_of_range_paths_are_refused_before_packing() {
        // A path id near `u32::MAX` would size the offsets index at
        // gigabytes; the loader must refuse it, naming the smallest.
        let json = r#"{"pair_weights": [[4000000000, 0, 1, 0.5], [9, 0, 1, 0.5]],
            "unary_weights": [], "label_counts": [1, 1], "candidates": [],
            "global_candidates": [0], "max_candidates": 4, "max_passes": 4}"#;
        let err = CrfModel::from_json(json, 4, 2).unwrap_err().to_string();
        assert!(
            err.contains("feature id 9") && err.contains("model-id-range"),
            "unexpected: {err}"
        );
    }

    #[test]
    fn candidate_sides_other_than_zero_or_one_are_refused() {
        let json = r#"{"pair_weights": [], "unary_weights": [], "label_counts": [1, 1],
            "candidates": [[0, 0, 2, [[1, 1]]]], "global_candidates": [0],
            "max_candidates": 4, "max_passes": 4}"#;
        let err = CrfModel::from_json(json, 1, 2).unwrap_err().to_string();
        assert!(err.contains("side 2"), "unexpected: {err}");
    }
}
