//! Skip-gram with negative sampling over arbitrary (word, context) pairs.
//!
//! This is the second learner the paper plugs AST paths into (§3.2): the
//! SGNS objective of Mikolov et al., generalised to **arbitrary
//! contexts** following Levy & Goldberg (2014) — a context here is
//! whatever the caller interned, typically an abstracted path-context.
//! Prediction follows the paper's Eq. 4: for an unknown element with
//! observed context set `C`, choose `argmax_w Σ_{c∈C} w·c`, *without*
//! using the original word (unlike the lexical-substitution model it
//! adapts).
//!
//! # Example
//!
//! ```
//! use pigeon_word2vec::{train, SgnsConfig};
//!
//! // Two words with disjoint context distributions.
//! let pairs: Vec<(u32, u32)> = (0..200)
//!     .map(|i| if i % 2 == 0 { (0, i % 4) } else { (1, 4 + i % 4) })
//!     .collect();
//! let model = train(&pairs, 2, 8, &SgnsConfig { dim: 16, ..SgnsConfig::default() });
//! let top = model.predict(&[0, 2], None);
//! assert_eq!(top[0].0, 0);
//! ```

use pigeon_telemetry as telemetry;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Training hyper-parameters for [`train`].
#[derive(Debug, Clone, Copy)]
pub struct SgnsConfig {
    /// Embedding dimensionality `d`.
    pub dim: usize,
    /// Passes over the pair list.
    pub epochs: usize,
    /// Initial learning rate, decayed linearly to 10% over training.
    pub learning_rate: f32,
    /// Negative samples per positive pair (`k` in SGNS).
    pub negative: usize,
    /// RNG seed for initialisation, shuffling and negative sampling.
    pub seed: u64,
}

impl Default for SgnsConfig {
    fn default() -> Self {
        SgnsConfig {
            dim: 64,
            epochs: 10,
            learning_rate: 0.05,
            negative: 5,
            seed: 0x5165_0001,
        }
    }
}

/// A trained embedding table: one vector per word, one per context.
#[derive(Debug, Clone)]
pub struct SgnsModel {
    dim: usize,
    num_words: usize,
    num_contexts: usize,
    /// Row-major `num_words × dim`.
    word_vecs: Vec<f32>,
    /// Row-major `num_contexts × dim`.
    ctx_vecs: Vec<f32>,
    /// Training frequency of each word (prediction tie-breaking).
    word_counts: Vec<u32>,
    /// Euclidean norm of each word vector, clamped to ≥ 1e-12.
    /// Derived from `word_vecs` — rebuilt on deserialisation, never stored.
    word_norms: Vec<f32>,
}

/// Per-word Euclidean norms of a row-major `num_words × dim` table.
fn compute_word_norms(word_vecs: &[f32], dim: usize) -> Vec<f32> {
    word_vecs
        .chunks_exact(dim.max(1))
        .map(|v| v.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-12))
        .collect()
}

// Hand-written (the vendored serde shim has no derive macro).
impl Serialize for SgnsModel {
    fn to_value(&self) -> serde_json::Value {
        let mut map = serde_json::Map::new();
        map.insert("dim".into(), self.dim.to_value());
        map.insert("num_words".into(), self.num_words.to_value());
        map.insert("num_contexts".into(), self.num_contexts.to_value());
        map.insert("word_vecs".into(), self.word_vecs.to_value());
        map.insert("ctx_vecs".into(), self.ctx_vecs.to_value());
        map.insert("word_counts".into(), self.word_counts.to_value());
        serde_json::Value::Object(map)
    }
}

impl Deserialize for SgnsModel {
    fn from_value(value: &serde_json::Value) -> Result<Self, serde::Error> {
        fn field<T: Deserialize>(value: &serde_json::Value, key: &str) -> Result<T, serde::Error> {
            T::from_value(
                value
                    .get(key)
                    .ok_or_else(|| serde::Error::custom(format!("missing field `{key}`")))?,
            )
        }
        let dim: usize = field(value, "dim")?;
        let word_vecs: Vec<f32> = field(value, "word_vecs")?;
        let word_norms = compute_word_norms(&word_vecs, dim);
        Ok(SgnsModel {
            dim,
            num_words: field(value, "num_words")?,
            num_contexts: field(value, "num_contexts")?,
            word_vecs,
            ctx_vecs: field(value, "ctx_vecs")?,
            word_counts: field(value, "word_counts")?,
            word_norms,
        })
    }
}

/// Trains SGNS embeddings on `(word, context)` id pairs.
///
/// # Panics
///
/// Panics if a pair references a word `>= num_words` or context
/// `>= num_contexts`, or if `pairs` is empty.
pub fn train(
    pairs: &[(u32, u32)],
    num_words: usize,
    num_contexts: usize,
    cfg: &SgnsConfig,
) -> SgnsModel {
    let _span = telemetry::span("sgns_train");
    telemetry::count("pigeon_sgns_pairs_total", pairs.len() as u64);
    assert!(!pairs.is_empty(), "training requires at least one pair");
    let mut word_counts = vec![0u32; num_words];
    let mut ctx_counts = vec![0u64; num_contexts];
    for &(w, c) in pairs {
        assert!((w as usize) < num_words, "word id {w} out of range");
        assert!((c as usize) < num_contexts, "context id {c} out of range");
        word_counts[w as usize] += 1;
        ctx_counts[c as usize] += 1;
    }

    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let dim = cfg.dim;
    // word2vec-style init: words uniform in ±0.5/d, contexts zero.
    let mut word_vecs: Vec<f32> = (0..num_words * dim)
        .map(|_| (rng.gen::<f32>() - 0.5) / dim as f32)
        .collect();
    let mut ctx_vecs = vec![0.0f32; num_contexts * dim];

    let noise = NoiseTable::new(&ctx_counts);
    let mut order: Vec<usize> = (0..pairs.len()).collect();
    let total_steps = (pairs.len() * cfg.epochs) as f32;
    let mut step = 0f32;

    for _ in 0..cfg.epochs {
        let _epoch_span = telemetry::span("sgns_epoch");
        order.shuffle(&mut rng);
        for &i in &order {
            let (w, c) = pairs[i];
            let lr = cfg.learning_rate * (1.0 - 0.9 * step / total_steps);
            step += 1.0;
            sgns_update(
                &mut word_vecs,
                &mut ctx_vecs,
                dim,
                w as usize,
                c as usize,
                1.0,
                lr,
            );
            for _ in 0..cfg.negative {
                let neg = noise.sample(&mut rng);
                if neg != c as usize {
                    sgns_update(&mut word_vecs, &mut ctx_vecs, dim, w as usize, neg, 0.0, lr);
                }
            }
        }
    }

    let word_norms = compute_word_norms(&word_vecs, dim);
    SgnsModel {
        dim,
        num_words,
        num_contexts,
        word_vecs,
        ctx_vecs,
        word_counts,
        word_norms,
    }
}

/// One gradient step on `σ(w·c) → target`.
fn sgns_update(
    word_vecs: &mut [f32],
    ctx_vecs: &mut [f32],
    dim: usize,
    w: usize,
    c: usize,
    target: f32,
    lr: f32,
) {
    let wv = &word_vecs[w * dim..(w + 1) * dim];
    let cv = &ctx_vecs[c * dim..(c + 1) * dim];
    let dot: f32 = wv.iter().zip(cv).map(|(a, b)| a * b).sum();
    let g = (target - sigmoid(dot)) * lr;
    for k in 0..dim {
        let wk = word_vecs[w * dim + k];
        let ck = ctx_vecs[c * dim + k];
        word_vecs[w * dim + k] = wk + g * ck;
        ctx_vecs[c * dim + k] = ck + g * wk;
    }
}

fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// Unigram^0.75 negative-sampling table (Mikolov et al.).
struct NoiseTable {
    table: Vec<u32>,
}

impl NoiseTable {
    fn new(counts: &[u64]) -> Self {
        const TABLE_SIZE: usize = 1 << 17;
        let pow: Vec<f64> = counts.iter().map(|&c| (c as f64).powf(0.75)).collect();
        let total: f64 = pow.iter().sum();
        let mut table = Vec::with_capacity(TABLE_SIZE);
        if total <= 0.0 {
            table.push(0);
        } else {
            let mut cum = 0.0;
            let mut idx = 0usize;
            for slot in 0..TABLE_SIZE {
                let threshold = (slot as f64 + 0.5) / TABLE_SIZE as f64;
                while idx + 1 < counts.len() && cum + pow[idx] / total < threshold {
                    cum += pow[idx] / total;
                    idx += 1;
                }
                table.push(idx as u32);
            }
        }
        NoiseTable { table }
    }

    fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        self.table[rng.gen_range(0..self.table.len())] as usize
    }
}

impl SgnsModel {
    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of words in the embedding table.
    pub fn num_words(&self) -> usize {
        self.num_words
    }

    /// Number of contexts in the embedding table.
    pub fn num_contexts(&self) -> usize {
        self.num_contexts
    }

    /// The full row-major `num_words × dim` word table, for audit
    /// tooling that scans every coefficient.
    pub fn word_table(&self) -> &[f32] {
        &self.word_vecs
    }

    /// The full row-major `num_contexts × dim` context table.
    pub fn ctx_table(&self) -> &[f32] {
        &self.ctx_vecs
    }

    /// The per-word training-frequency table.
    pub fn word_count_table(&self) -> &[u32] {
        &self.word_counts
    }

    /// The word vector for `word`.
    ///
    /// # Panics
    ///
    /// Panics if `word` is out of range.
    pub fn word_vec(&self, word: u32) -> &[f32] {
        &self.word_vecs[word as usize * self.dim..(word as usize + 1) * self.dim]
    }

    /// Summed context vector and the scoring closure's input for Eq. 4.
    fn context_sum(&self, contexts: &[u32]) -> Vec<f32> {
        let mut ctx_sum = vec![0.0f32; self.dim];
        for &c in contexts {
            if (c as usize) < self.num_contexts {
                for (k, s) in ctx_sum.iter_mut().enumerate() {
                    *s += self.ctx_vecs[c as usize * self.dim + k];
                }
            }
        }
        ctx_sum
    }

    /// Eq. 4 score of `word` against a precomputed context sum.
    fn eq4_score(&self, w: u32, ctx_sum: &[f32]) -> f32 {
        let wv = self.word_vec(w);
        wv.iter().zip(ctx_sum).map(|(a, b)| a * b).sum::<f32>()
            + 1e-6 * (self.word_counts[w as usize] as f32).ln_1p()
    }

    /// Eq. 4 of the paper: ranks candidate words by `Σ_{c∈C} w·c`.
    ///
    /// Unseen context ids (`>= num_contexts`) are skipped — the test-time
    /// analogue of an out-of-vocabulary feature. `candidates` restricts
    /// the argmax; `None` ranks the entire word vocabulary. Returns the
    /// *full* ranking; when only the head is needed, [`predict_top_k`]
    /// avoids sorting the whole vocabulary.
    ///
    /// [`predict_top_k`]: SgnsModel::predict_top_k
    pub fn predict(&self, contexts: &[u32], candidates: Option<&[u32]>) -> Vec<(u32, f32)> {
        let ctx_sum = self.context_sum(contexts);
        let score = |w: u32| self.eq4_score(w, &ctx_sum);
        let mut scored: Vec<(u32, f32)> = match candidates {
            Some(cands) => cands.iter().map(|&w| (w, score(w))).collect(),
            None => (0..self.num_words as u32).map(|w| (w, score(w))).collect(),
        };
        scored.sort_by(|x, y| y.1.total_cmp(&x.1).then(x.0.cmp(&y.0)));
        scored
    }

    /// The top `k` rows of [`predict`]'s ranking, without sorting the
    /// whole vocabulary: a bounded min-heap keeps the best `k` seen so
    /// far, `O(n log k)` instead of `O(n log n)`. Identical output
    /// (same scores, same `(score desc, id asc)` tie-break) to
    /// `predict(..)[..k]`.
    ///
    /// [`predict`]: SgnsModel::predict
    pub fn predict_top_k(
        &self,
        contexts: &[u32],
        candidates: Option<&[u32]>,
        k: usize,
    ) -> Vec<(u32, f32)> {
        let ctx_sum = self.context_sum(contexts);
        let mut heap: BinaryHeap<WorstFirst> = BinaryHeap::with_capacity(k + 1);
        let mut push = |w: u32| {
            let entry = WorstFirst(w, self.eq4_score(w, &ctx_sum));
            if heap.len() < k {
                heap.push(entry);
            } else if let Some(worst) = heap.peek() {
                // `worst > entry` in worst-first order ⇔ entry ranks better.
                if *worst > entry {
                    heap.pop();
                    heap.push(entry);
                }
            }
        };
        match candidates {
            Some(cands) => cands.iter().for_each(|&w| push(w)),
            None => (0..self.num_words as u32).for_each(push),
        }
        heap.into_sorted_vec()
            .into_iter()
            .map(|WorstFirst(w, s)| (w, s))
            .collect()
    }

    /// The `k` nearest words to `word` by cosine similarity of word
    /// vectors — the source of the paper's Table 4b synonym clusters.
    /// Uses the norms precomputed at train/load time.
    pub fn neighbours(&self, word: u32, k: usize) -> Vec<(u32, f32)> {
        let wv = self.word_vec(word).to_vec();
        let wn = self.word_norms[word as usize];
        let mut scored: Vec<(u32, f32)> = (0..self.num_words as u32)
            .filter(|&o| o != word)
            .map(|o| {
                let ov = self.word_vec(o);
                let dot: f32 = ov.iter().zip(&wv).map(|(a, b)| a * b).sum();
                (o, dot / (wn * self.word_norms[o as usize]))
            })
            .collect();
        scored.sort_by(|x, y| y.1.total_cmp(&x.1).then(x.0.cmp(&y.0)));
        scored.truncate(k);
        scored
    }
}

/// Heap entry ordered so the heap's maximum is the *worst*-ranked row:
/// lower score is "greater", and on score ties a higher word id is
/// "greater" (ids ascend within a score in the final ranking).
#[derive(PartialEq)]
struct WorstFirst(u32, f32);

impl Eq for WorstFirst {}

impl Ord for WorstFirst {
    fn cmp(&self, other: &Self) -> Ordering {
        other.1.total_cmp(&self.1).then(self.0.cmp(&other.0))
    }
}

impl PartialOrd for WorstFirst {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A world of `n_words` words; word w emits contexts from its own
    /// band of 4 context ids, with a shared noise context.
    fn banded_pairs(n_words: u32, per_word: usize, seed: u64) -> Vec<(u32, u32)> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut pairs = Vec::new();
        for w in 0..n_words {
            for _ in 0..per_word {
                let c = if rng.gen_bool(0.9) {
                    w * 4 + rng.gen_range(0..4)
                } else {
                    n_words * 4 // shared noise context
                };
                pairs.push((w, c));
            }
        }
        pairs
    }

    fn cfg() -> SgnsConfig {
        SgnsConfig {
            dim: 32,
            epochs: 8,
            ..SgnsConfig::default()
        }
    }

    #[test]
    fn prediction_recovers_band_owner() {
        let n_words = 8;
        let pairs = banded_pairs(n_words, 150, 1);
        let model = train(&pairs, n_words as usize, (n_words * 4 + 1) as usize, &cfg());
        for w in 0..n_words {
            let contexts = [w * 4, w * 4 + 1, w * 4 + 2];
            let top = model.predict(&contexts, None);
            assert_eq!(top[0].0, w, "word {w} not recovered: {:?}", &top[..3]);
        }
    }

    #[test]
    fn candidate_restriction_is_respected() {
        let pairs = banded_pairs(4, 100, 2);
        let model = train(&pairs, 4, 17, &cfg());
        let top = model.predict(&[0, 1], Some(&[2, 3]));
        assert!(top.iter().all(|&(w, _)| w == 2 || w == 3));
    }

    #[test]
    fn words_with_shared_contexts_are_neighbours() {
        // Words 0 and 1 share a band; words 2 and 3 share another.
        let mut rng = SmallRng::seed_from_u64(3);
        let mut pairs = Vec::new();
        for _ in 0..400 {
            let (w, base) = if rng.gen_bool(0.5) {
                (rng.gen_range(0..2), 0)
            } else {
                (rng.gen_range(2..4), 4)
            };
            pairs.push((w, base + rng.gen_range(0..4u32)));
        }
        let model = train(&pairs, 4, 8, &cfg());
        let n0 = model.neighbours(0, 1);
        assert_eq!(n0[0].0, 1, "0's nearest should be its twin 1: {n0:?}");
        let n2 = model.neighbours(2, 1);
        assert_eq!(n2[0].0, 3);
    }

    #[test]
    fn unseen_contexts_are_ignored_not_fatal() {
        let pairs = banded_pairs(3, 50, 4);
        let model = train(&pairs, 3, 13, &cfg());
        let with_unseen = model.predict(&[0, 9999], None);
        let without = model.predict(&[0], None);
        assert_eq!(with_unseen[0].0, without[0].0);
    }

    #[test]
    fn training_is_deterministic_under_a_seed() {
        let pairs = banded_pairs(4, 80, 5);
        let a = train(&pairs, 4, 17, &cfg());
        let b = train(&pairs, 4, 17, &cfg());
        assert_eq!(a.word_vecs, b.word_vecs);
    }

    #[test]
    fn serde_round_trip() {
        let pairs = banded_pairs(3, 60, 6);
        let model = train(&pairs, 3, 13, &cfg());
        let json = serde_json::to_string(&model).unwrap();
        let restored: SgnsModel = serde_json::from_str(&json).unwrap();
        assert_eq!(model.predict(&[1], None), restored.predict(&[1], None));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_word_panics() {
        let _ = train(&[(5, 0)], 2, 4, &cfg());
    }

    #[test]
    #[should_panic(expected = "at least one pair")]
    fn empty_training_panics() {
        let _ = train(&[], 2, 4, &cfg());
    }

    #[test]
    fn top_k_matches_the_full_ranking_head() {
        let n_words = 8;
        let pairs = banded_pairs(n_words, 120, 9);
        let model = train(&pairs, n_words as usize, (n_words * 4 + 1) as usize, &cfg());
        for contexts in [vec![0u32, 1, 2], vec![5, 6], vec![12]] {
            let full = model.predict(&contexts, None);
            for k in [0usize, 1, 3, 8, 20] {
                let top = model.predict_top_k(&contexts, None, k);
                assert_eq!(top, full[..k.min(full.len())].to_vec(), "k={k}");
            }
            let cands = [1u32, 4, 6];
            let full_c = model.predict(&contexts, Some(&cands));
            assert_eq!(model.predict_top_k(&contexts, Some(&cands), 2), full_c[..2]);
        }
    }

    #[test]
    fn deserialised_models_keep_their_neighbour_ranking() {
        let pairs = banded_pairs(4, 80, 10);
        let model = train(&pairs, 4, 17, &cfg());
        let json = serde_json::to_string(&model).unwrap();
        let restored: SgnsModel = serde_json::from_str(&json).unwrap();
        assert_eq!(model.neighbours(0, 3), restored.neighbours(0, 3));
    }

    #[test]
    fn noise_table_prefers_frequent_contexts() {
        let counts = vec![1000u64, 1, 1, 1];
        let table = NoiseTable::new(&counts);
        let mut rng = SmallRng::seed_from_u64(7);
        let hits = (0..1000).filter(|_| table.sample(&mut rng) == 0).count();
        assert!(hits > 700, "frequent context sampled only {hits}/1000");
    }
}
