//! Max-margin training (structured perceptron subgradient on the
//! margin-rescaled objective), as in Nice2Predict.
//!
//! Each update runs **loss-augmented MAP** under the current weights and
//! moves weights toward the gold assignment's features and away from the
//! violating assignment's — the subgradient of the structured hinge loss.
//! Weight averaging over updates gives the stability of the averaged
//! perceptron without per-feature regularisation bookkeeping.
//!
//! The inner loop runs on the ICM engine of [`crate::engine`]: weights
//! live in indexed per-path buckets (no tuple hashing in scoring),
//! inference reuses one workspace across every update and sweeps with
//! delta-ICM, and the epoch average is packed into the model's CSR
//! tables once at the end. Statistics gathering fans out over
//! [`pigeon_core::parallel_map_indexed`] when [`CrfConfig::jobs`] allows.
//! The trained model is **byte-identical** for any `jobs` value — and to
//! the original hash-map implementation (pinned in
//! `tests/golden_train.rs`) — because updates stay sequential in the
//! same shuffled order and the statistics merge is a sum of per-chunk
//! integer counts.
//!
//! Four entry points wrap one private core, which strips unary factors
//! when they are off, validates labels, checks the statistics' label
//! space, truncates the candidate tables and runs the SGD loop:
//!
//! - [`train`] and [`train_resumable`] gather [`RawStatistics`] from the
//!   instances themselves. [`train_resumable`] threads a [`TrainControl`]
//!   through the loop: periodic [`TrainState`] snapshots (weights,
//!   averaging sums, shuffle order, exact RNG state), a polled interrupt
//!   that yields a mid-epoch snapshot, and resume from a snapshot that
//!   replays the remaining updates exactly — the resumed model is
//!   byte-identical to an uninterrupted run.
//! - [`train_from_statistics`] takes statistics the caller collected
//!   over the same instances, as the merge of replayed shards does.
//!   Candidate truncation and global-candidate derivation only ever run
//!   on statistics over the whole corpus, so the result is
//!   byte-identical to [`train`].
//! - [`train_incremental`] folds new documents' statistics into an
//!   existing model's count state and runs the same loop warm-started
//!   from its weights, skipping re-extraction of the original corpus.

use crate::engine::{
    infer, pair_key, path_span, BucketWeights, CandidateRow, EngineShared, PackedCandidates,
    PackedWeights, Workspace,
};
use crate::instance::Instance;
use crate::model::CrfModel;
use pigeon_core::parallel_map_indexed;
use pigeon_telemetry as telemetry;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::HashMap;

/// Training hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrfConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Step size for each subgradient update.
    pub learning_rate: f32,
    /// ICM sweeps per inference call.
    pub max_passes: usize,
    /// Cap on candidate labels per node during inference.
    pub max_candidates: usize,
    /// Number of globally frequent labels always in the candidate set.
    pub global_candidates: usize,
    /// Suggestions kept per `(path, other_label, side)` key.
    pub suggestions_per_key: usize,
    /// Whether unary factors participate (the paper's §5.1 extension;
    /// disabling them is the ablation knob).
    pub use_unary: bool,
    /// Shuffling seed.
    pub seed: u64,
    /// Worker threads for the statistics pass (`0` = all cores). The
    /// subgradient loop itself stays sequential — the trained model is
    /// identical under any value.
    pub jobs: usize,
}

impl Default for CrfConfig {
    fn default() -> Self {
        CrfConfig {
            epochs: 8,
            learning_rate: 0.1,
            max_passes: 6,
            max_candidates: 48,
            global_candidates: 16,
            suggestions_per_key: 12,
            use_unary: true,
            seed: 0x0C4F_5EED,
            jobs: 1,
        }
    }
}

/// Pre-truncation training statistics: label counts over unknown nodes
/// and the `(path, other_label, side)` → gold-label co-occurrence
/// counts. Unlike the truncated tables stored on [`CrfModel`], this is
/// closed under merging — summing two `RawStatistics` gives exactly the
/// statistics of the concatenated corpora, which is what makes the
/// chunked statistics pass identical for any `jobs`.
#[derive(Debug, Clone, Default)]
pub struct RawStatistics {
    /// Unknown-node occurrences per label id.
    pub counts: Vec<u32>,
    /// `(path, other_label, side)` → gold label → co-occurrence count.
    pub suggestions: HashMap<(u32, u32, u8), HashMap<u32, u32>>,
}

impl RawStatistics {
    /// Empty statistics over `num_labels` labels.
    pub fn new(num_labels: u32) -> Self {
        RawStatistics {
            counts: vec![0; num_labels as usize],
            suggestions: HashMap::new(),
        }
    }

    /// Collects statistics over `instances` in one serial pass.
    ///
    /// # Panics
    ///
    /// Panics if any instance references a label `>= num_labels` or a
    /// node index out of range (instances built through
    /// [`Instance::add_pair`] cannot trigger the latter).
    pub fn collect(instances: &[Instance], num_labels: u32) -> Self {
        let mut stats = RawStatistics::new(num_labels);
        for inst in instances {
            for node in &inst.nodes {
                if !node.known {
                    stats.counts[node.label as usize] += 1;
                }
            }
            for pf in &inst.pairwise {
                let (la, lb) = (inst.nodes[pf.a].label, inst.nodes[pf.b].label);
                if !inst.nodes[pf.a].known {
                    *stats
                        .suggestions
                        .entry((pf.path, lb, 0))
                        .or_default()
                        .entry(la)
                        .or_insert(0) += 1;
                }
                if !inst.nodes[pf.b].known {
                    *stats
                        .suggestions
                        .entry((pf.path, la, 1))
                        .or_default()
                        .entry(lb)
                        .or_insert(0) += 1;
                }
            }
        }
        stats
    }

    /// Adds `other` into `self` (commutative integer addition).
    ///
    /// # Panics
    ///
    /// Panics if the two sides disagree on the number of labels.
    pub fn absorb(&mut self, other: &RawStatistics) {
        assert_eq!(
            self.counts.len(),
            other.counts.len(),
            "statistics label spaces differ"
        );
        for (total, part) in self.counts.iter_mut().zip(&other.counts) {
            *total += part;
        }
        for (key, by_label) in &other.suggestions {
            let slot = self.suggestions.entry(*key).or_default();
            for (&label, &n) in by_label {
                *slot.entry(label).or_insert(0) += n;
            }
        }
    }
}

/// A snapshot of the SGD loop sufficient to resume it exactly: epoch
/// index, position within the (saved) shuffle order, raw RNG state,
/// current weights, and the epoch-average accumulators. Produced by
/// [`train_resumable`] via [`TrainControl`]; serialised by
/// [`crate::checkpoint`].
#[derive(Debug, Clone)]
pub struct TrainState {
    /// Epoch the loop is in (0-based; `pos` instances already done).
    pub(crate) epoch: usize,
    /// Next position in `order` to process.
    pub(crate) pos: usize,
    /// Whether `order` is the live shuffle for `epoch` (mid-epoch
    /// snapshot) or stale (epoch-boundary snapshot; resume reshuffles).
    pub(crate) shuffled: bool,
    /// Instance visit order for the current epoch.
    pub(crate) order: Vec<u32>,
    /// Raw xoshiro256++ state of the shuffle RNG.
    pub(crate) rng: [u64; 4],
    /// Live pairwise weights as `(path, packed_label_pair, weight)`,
    /// sorted by `(path, key)`.
    pub(crate) pair: Vec<(u32, u64, f32)>,
    /// Live unary weights as `(path, label, weight)`, sorted.
    pub(crate) unary: Vec<(u32, u64, f32)>,
    /// Epoch-average accumulator for pairwise weights, sorted by key.
    pub(crate) pair_sum: Vec<(u32, u32, u32, f64)>,
    /// Epoch-average accumulator for unary weights, sorted by key.
    pub(crate) unary_sum: Vec<(u32, u32, f64)>,
    /// Corpus/config fingerprint; resume refuses a mismatch.
    pub(crate) fingerprint: TrainFingerprint,
}

impl TrainState {
    /// Epoch the snapshot was taken in (0-based).
    pub fn epoch(&self) -> usize {
        self.epoch
    }

    /// Instances of the current epoch already processed.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Total epochs the run was configured for.
    pub fn total_epochs(&self) -> usize {
        self.fingerprint.epochs as usize
    }
}

/// The training inputs a checkpoint is only valid for. Everything that
/// shapes the update trajectory is included; `jobs` is not (the model is
/// invariant to it).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TrainFingerprint {
    pub(crate) num_instances: u64,
    pub(crate) num_labels: u32,
    pub(crate) epochs: u64,
    pub(crate) learning_rate: f32,
    pub(crate) max_passes: u64,
    pub(crate) max_candidates: u64,
    pub(crate) global_candidates: u64,
    pub(crate) suggestions_per_key: u64,
    pub(crate) use_unary: bool,
    pub(crate) seed: u64,
}

impl TrainFingerprint {
    fn new(num_instances: usize, num_labels: u32, cfg: &CrfConfig) -> Self {
        TrainFingerprint {
            num_instances: num_instances as u64,
            num_labels,
            epochs: cfg.epochs as u64,
            learning_rate: cfg.learning_rate,
            max_passes: cfg.max_passes as u64,
            max_candidates: cfg.max_candidates as u64,
            global_candidates: cfg.global_candidates as u64,
            suggestions_per_key: cfg.suggestions_per_key as u64,
            use_unary: cfg.use_unary,
            seed: cfg.seed,
        }
    }
}

/// Hooks into the SGD loop: resume from a snapshot, snapshot every N
/// epochs, and a polled interrupt (checked once per instance) that stops
/// the loop with a mid-epoch snapshot instead of discarding work.
#[derive(Default)]
pub struct TrainControl<'a> {
    /// Continue from this snapshot instead of starting fresh.
    pub resume: Option<TrainState>,
    /// Snapshot every N completed epochs (`0` = never). The final epoch
    /// is not snapshotted — the model itself is the result.
    pub checkpoint_every: usize,
    /// Called with each periodic snapshot (the caller persists it).
    pub on_checkpoint: Option<&'a mut dyn FnMut(&TrainState)>,
    /// Polled before each instance; returning `true` stops the loop with
    /// [`TrainOutcome::Interrupted`].
    pub interrupt: Option<&'a dyn Fn() -> bool>,
}

/// Result of a resumable run: the finished model, or the snapshot at the
/// point the interrupt fired.
#[derive(Debug)]
pub enum TrainOutcome {
    /// Training ran to completion.
    Completed(Box<CrfModel>),
    /// The interrupt fired; resume later from this snapshot.
    Interrupted(Box<TrainState>),
}

/// Trains a CRF on `instances`, whose labels range over `0..num_labels`.
///
/// # Panics
///
/// Panics if any instance references a label `>= num_labels`.
pub fn train(instances: &[Instance], num_labels: u32, cfg: &CrfConfig) -> CrfModel {
    completed(train_resumable(
        instances,
        num_labels,
        cfg,
        TrainControl::default(),
    ))
    .unwrap_or_else(|e| panic!("{e}"))
}

/// [`train`] with checkpoint/resume/interrupt hooks. With a default
/// [`TrainControl`] this is exactly [`train`]; with `resume` it replays
/// the remaining updates so the final model is byte-identical to an
/// uninterrupted run.
///
/// # Errors
///
/// Label out of range, or a resume snapshot whose fingerprint does not
/// match `(instances, num_labels, cfg)`.
pub fn train_resumable(
    instances: &[Instance],
    num_labels: u32,
    cfg: &CrfConfig,
    control: TrainControl<'_>,
) -> Result<TrainOutcome, String> {
    let _span = telemetry::span("crf_train");
    train_core(instances, num_labels, cfg, None, None, control)
}

/// Finishes training from statistics over exactly `instances` (the
/// `pigeon merge` path): derives the truncated candidate tables from
/// `stats` exactly as [`train`] does, then runs the standard SGD loop.
///
/// # Errors
///
/// Label out of range, or `stats` covering a different label space.
pub fn train_from_statistics(
    instances: &[Instance],
    num_labels: u32,
    cfg: &CrfConfig,
    stats: RawStatistics,
) -> Result<CrfModel, String> {
    let _span = telemetry::span("crf_train");
    completed(train_core(
        instances,
        num_labels,
        cfg,
        Some(stats),
        None,
        TrainControl::default(),
    ))
}

/// Folds `new_stats` (statistics over `new_instances` only) into
/// `base`'s count state, warm-starts weights from `base`, and runs SGD
/// over the new instances only. An approximation of full retraining —
/// the old corpus's updates are frozen into the warm start and its
/// candidate lists were already truncated — but it never re-reads the
/// original corpus.
///
/// # Errors
///
/// A base model without candidate counts (a compiled artifact ships
/// none), label out of range, or mismatched statistics.
pub fn train_incremental(
    new_instances: &[Instance],
    num_labels: u32,
    cfg: &CrfConfig,
    base: &CrfModel,
    new_stats: &RawStatistics,
) -> Result<CrfModel, String> {
    let _span = telemetry::span("crf_train_incremental");
    completed(train_core(
        new_instances,
        num_labels,
        cfg,
        Some(new_stats.clone()),
        Some(base),
        TrainControl::default(),
    ))
}

/// Live weights of the SGD loop: pairwise and unary buckets.
type Weights = (BucketWeights, BucketWeights);

/// Epoch-average accumulators, keyed like [`Weights`].
type Sums = (BucketWeights<f64>, BucketWeights<f64>);

/// The one training core behind every entry point: strips unary factors
/// when they are off, validates labels, checks the label space of
/// `stats` (gathered from `instances` when `None`), folds in `base`'s
/// counts and weights when given, truncates the candidate tables and
/// runs the SGD loop.
fn train_core(
    instances: &[Instance],
    num_labels: u32,
    cfg: &CrfConfig,
    stats: Option<RawStatistics>,
    base: Option<&CrfModel>,
    control: TrainControl<'_>,
) -> Result<TrainOutcome, String> {
    if base.is_some_and(|base| !base.has_candidate_counts()) {
        return Err("incremental update needs the base model's candidate \
                    counts; a compiled artifact ships none, so update the JSON model"
            .to_owned());
    }
    let stripped: Vec<Instance>;
    let instances: &[Instance] = if cfg.use_unary {
        instances
    } else {
        stripped = strip_unary(instances);
        &stripped
    };
    validate_labels(instances, num_labels)?;
    let mut stats = match stats {
        None => gather_statistics(instances, num_labels, cfg),
        Some(stats) if stats.counts.len() != num_labels as usize => {
            return Err(format!(
                "statistics cover {} labels but the corpus has {num_labels}",
                stats.counts.len()
            ))
        }
        Some(stats) => stats,
    };
    let mut weights = Weights::default();
    if let Some(base) = base {
        // Fold in the base's (truncated) count tables: its candidate
        // lists already lost their tail, so an update is an
        // approximation, but the surviving counts still rank candidates
        // well. Weights warm-start from the base; epoch averaging keeps
        // the warm start (it is part of every epoch's snapshot).
        let base_counts = base.label_count_table();
        if base_counts.len() > stats.counts.len() {
            return Err(format!(
                "base model has {} labels but the updated vocabulary has {num_labels}",
                base_counts.len()
            ));
        }
        for (total, &count) in stats.counts.iter_mut().zip(base_counts) {
            *total += count;
        }
        for (key, labels, counts) in base.candidate_entries() {
            let slot = stats.suggestions.entry(key).or_default();
            for (&label, &count) in labels.iter().zip(counts) {
                *slot.entry(label).or_insert(0) += count;
            }
        }
        for (path, key, w) in base.pair.iter_entries() {
            weights.0.add(path, key, w);
        }
        for (path, key, w) in base.unary.iter_entries() {
            weights.1.add(path, key, w);
        }
    }
    let model = finish_statistics(stats, cfg);
    sgd(model, weights, instances, num_labels, cfg, control)
}

/// The finished model of a run without an interrupt hook.
fn completed(outcome: Result<TrainOutcome, String>) -> Result<CrfModel, String> {
    match outcome? {
        TrainOutcome::Completed(model) => Ok(*model),
        TrainOutcome::Interrupted(_) => unreachable!("no interrupt installed"),
    }
}

fn strip_unary(instances: &[Instance]) -> Vec<Instance> {
    instances
        .iter()
        .map(|i| Instance {
            nodes: i.nodes.clone(),
            pairwise: i.pairwise.clone(),
            unary: Vec::new(),
        })
        .collect()
}

fn validate_labels(instances: &[Instance], num_labels: u32) -> Result<(), String> {
    // Validate serially so the error (message and which label triggers
    // it) is deterministic regardless of `jobs`.
    for inst in instances {
        for node in &inst.nodes {
            if node.label >= num_labels {
                return Err(format!("label {} out of range {num_labels}", node.label));
            }
        }
    }
    Ok(())
}

/// One loss-augmented inference + subgradient step; returns 1 if the
/// instance violated the margin (drove an update).
fn sgd_step(
    shared: &EngineShared,
    weights: &mut Weights,
    inst: &Instance,
    cfg: &CrfConfig,
    ws: &mut Workspace,
) -> u64 {
    let gold: Vec<u32> = inst.nodes.iter().map(|n| n.label).collect();
    let predicted = infer(shared, weights, inst, true, ws);
    if predicted == gold {
        return 0;
    }
    // Subgradient step: +lr toward gold features, -lr away from the
    // violator, only where they disagree.
    for pf in &inst.pairwise {
        let g = (gold[pf.a], gold[pf.b]);
        let p = (predicted[pf.a], predicted[pf.b]);
        if g != p {
            weights
                .0
                .add(pf.path, pair_key(g.0, g.1), cfg.learning_rate);
            weights
                .0
                .add(pf.path, pair_key(p.0, p.1), -cfg.learning_rate);
        }
    }
    for uf in &inst.unary {
        let g = gold[uf.node];
        let p = predicted[uf.node];
        if g != p {
            weights.1.add(uf.path, u64::from(g), cfg.learning_rate);
            weights.1.add(uf.path, u64::from(p), -cfg.learning_rate);
        }
    }
    1
}

/// Accumulates the live weights into the epoch-average sums.
fn accumulate_sums(weights: &Weights, sums: &mut Sums) {
    weights
        .0
        .for_each(|path, key, w| sums.0.add(path, key, f64::from(w)));
    weights
        .1
        .for_each(|path, key, w| sums.1.add(path, key, f64::from(w)));
}

/// Packs the epoch average into the model's weight tables, dropping
/// zeros. The offsets index spans every path the weight and candidate
/// tables mention.
fn finalize_weights(model: &mut CrfModel, sums: &Sums, epochs: usize) {
    let denom = epochs.max(1) as f64;
    let average = |table: &BucketWeights<f64>| {
        let mut entries = Vec::new();
        table.for_each(|path, key, sum| {
            let w = (sum / denom) as f32;
            if w != 0.0 {
                entries.push((path, key, w));
            }
        });
        entries
    };
    let (pair, unary) = (average(&sums.0), average(&sums.1));
    let weight_paths = pair.last().into_iter().chain(unary.last()).map(|e| e.0);
    let num_paths = path_span(weight_paths).max(model.shared.cands.num_paths());
    model.pair = PackedWeights::from_sorted(&pair, num_paths);
    model.unary = PackedWeights::from_sorted(&unary, num_paths);
}

/// Snapshots the loop. Entries come out of the buckets in key order, so
/// the snapshot (and its serialised form) is byte-stable.
fn capture_state(
    (epoch, pos, shuffled): (usize, usize, bool),
    order: &[usize],
    rng: &SmallRng,
    weights: &Weights,
    sums: &Sums,
    fingerprint: &TrainFingerprint,
) -> TrainState {
    let mut pair = Vec::new();
    weights.0.for_each(|path, key, w| pair.push((path, key, w)));
    let mut unary = Vec::new();
    weights
        .1
        .for_each(|path, key, w| unary.push((path, key, w)));
    let mut pair_sum = Vec::new();
    sums.0
        .for_each(|path, key, s| pair_sum.push((path, (key >> 32) as u32, key as u32, s)));
    let mut unary_sum = Vec::new();
    sums.1
        .for_each(|path, key, s| unary_sum.push((path, key as u32, s)));
    TrainState {
        epoch,
        pos,
        shuffled,
        order: order.iter().map(|&i| i as u32).collect(),
        rng: rng.state(),
        pair,
        unary,
        pair_sum,
        unary_sum,
        fingerprint: fingerprint.clone(),
    }
}

/// Rejects snapshot entries no run over `instances` could have written:
/// a path id at or above the instances' path span, or a label at or
/// above `num_labels`. Resume starts from empty weights, so every
/// legitimate entry comes from one of their factors; checking before the
/// first insert keeps a forged path id from sizing the per-path buckets.
fn check_resumed_ids(
    state: &TrainState,
    instances: &[Instance],
    num_labels: u32,
) -> Result<(), String> {
    let span = path_span(instances.iter().flat_map(|inst| {
        let pairs = inst.pairwise.iter().map(|f| f.path);
        pairs.chain(inst.unary.iter().map(|f| f.path))
    }));
    let check = |what: &str, path: u32, labels: &[u64]| {
        if path as usize >= span {
            return Err(format!(
                "checkpoint {what} entry names path id {path}, but the corpus spans \
                 {span} path ids"
            ));
        }
        match labels.iter().find(|&&l| l >= u64::from(num_labels)) {
            Some(l) => Err(format!(
                "checkpoint {what} entry names label {l}, but the corpus has \
                 {num_labels} labels"
            )),
            None => Ok(()),
        }
    };
    for &(path, key, _) in &state.pair {
        check("ck-pair", path, &[key >> 32, key & u64::from(u32::MAX)])?;
    }
    for &(path, key, _) in &state.unary {
        check("ck-unary", path, &[key])?;
    }
    for &(path, a, b, _) in &state.pair_sum {
        check("ck-pair-sum", path, &[a.into(), b.into()])?;
    }
    for &(path, label, _) in &state.unary_sum {
        check("ck-unary-sum", path, &[label.into()])?;
    }
    Ok(())
}

/// The sequential subgradient loop from `weights`, resumable. Without
/// hooks the control flow (RNG draws, visit order, update sequence) is
/// fixed by the seed, so [`train`] stays byte-for-byte reproducible.
fn sgd(
    mut model: CrfModel,
    mut weights: Weights,
    instances: &[Instance],
    num_labels: u32,
    cfg: &CrfConfig,
    mut control: TrainControl<'_>,
) -> Result<TrainOutcome, String> {
    let fingerprint = TrainFingerprint::new(instances.len(), num_labels, cfg);

    // The candidate index, prior and caps stay fixed; weights live in
    // mutable indexed buckets until the final pack.
    let mut ws = Workspace::new();
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut order: Vec<usize> = (0..instances.len()).collect();
    // Averaged weights: accumulate w after every epoch.
    let mut sums = Sums::default();

    let mut start_epoch = 0usize;
    let mut start_pos = 0usize;
    let mut resume_shuffled = false;
    if let Some(state) = control.resume.take() {
        if state.fingerprint != fingerprint {
            return Err("checkpoint does not match this corpus/config \
                        (different instances, labels, or hyper-parameters)"
                .to_owned());
        }
        if state.order.len() != instances.len()
            || state.pos > instances.len()
            || state.epoch > cfg.epochs
        {
            return Err("checkpoint state is inconsistent with the corpus size".to_owned());
        }
        check_resumed_ids(&state, instances, num_labels)?;
        weights = Weights::default();
        for &(path, key, w) in &state.pair {
            weights.0.add(path, key, w);
        }
        for &(path, key, w) in &state.unary {
            weights.1.add(path, key, w);
        }
        for &(path, a, b, sum) in &state.pair_sum {
            sums.0.add(path, pair_key(a, b), sum);
        }
        for &(path, label, sum) in &state.unary_sum {
            sums.1.add(path, u64::from(label), sum);
        }
        rng = SmallRng::from_state(state.rng);
        order = state.order.iter().map(|&i| i as usize).collect();
        start_epoch = state.epoch;
        start_pos = state.pos;
        resume_shuffled = state.shuffled;
        telemetry::count("pigeon_crf_resumes_total", 1);
    }

    for epoch in start_epoch..cfg.epochs {
        let _epoch_span = telemetry::span("crf_epoch");
        let mut epoch_updates = 0u64;
        let pos0 = if epoch == start_epoch && resume_shuffled {
            // `order` is the snapshot's live shuffle; pick up mid-epoch.
            start_pos
        } else {
            order.shuffle(&mut rng);
            0
        };
        for i in pos0..order.len() {
            if let Some(stop) = control.interrupt {
                if stop() {
                    telemetry::count("pigeon_crf_updates_total", epoch_updates);
                    let state = capture_state(
                        (epoch, i, true),
                        &order,
                        &rng,
                        &weights,
                        &sums,
                        &fingerprint,
                    );
                    return Ok(TrainOutcome::Interrupted(Box::new(state)));
                }
            }
            epoch_updates += sgd_step(
                &model.shared,
                &mut weights,
                &instances[order[i]],
                cfg,
                &mut ws,
            );
        }
        accumulate_sums(&weights, &mut sums);
        // The per-epoch objective proxy: how many instances still violate
        // the margin (drove a subgradient update) this epoch.
        telemetry::count("pigeon_crf_updates_total", epoch_updates);
        if control.checkpoint_every > 0
            && (epoch + 1) % control.checkpoint_every == 0
            && epoch + 1 < cfg.epochs
        {
            if let Some(sink) = control.on_checkpoint.as_deref_mut() {
                let state = capture_state(
                    (epoch + 1, 0, false),
                    &order,
                    &rng,
                    &weights,
                    &sums,
                    &fingerprint,
                );
                sink(&state);
            }
        }
    }

    finalize_weights(&mut model, &sums, cfg.epochs);
    Ok(TrainOutcome::Completed(Box::new(model)))
}

/// Sharded statistics gathering; the merge is commutative integer
/// addition, so the result is identical to a serial pass for any `jobs`.
fn gather_statistics(instances: &[Instance], num_labels: u32, cfg: &CrfConfig) -> RawStatistics {
    let _span = telemetry::span("crf_statistics");
    // Shard count is FIXED (not derived from `jobs`): telemetry recorded
    // per shard must be byte-identical for any `--jobs`.
    const STAT_SHARDS: usize = 16;
    if instances.is_empty() {
        return RawStatistics::collect(instances, num_labels);
    }
    let shards = STAT_SHARDS.min(instances.len());
    let chunk_size = instances.len().div_ceil(shards);
    let chunks: Vec<&[Instance]> = instances.chunks(chunk_size).collect();
    let mut partials = parallel_map_indexed(&chunks, cfg.jobs, |_, chunk| {
        RawStatistics::collect(chunk, num_labels)
    })
    .into_iter();
    let mut stats = partials.next().expect("at least one chunk");
    for part in partials {
        stats.absorb(&part);
    }
    stats
}

/// Derives the truncated model tables (global candidates, label counts,
/// per-key suggestion lists) from fully merged statistics, as a model
/// with no weights yet. Truncation happens only here — after any shard
/// merge — which is what keeps sharded training byte-identical to a
/// single pass.
fn finish_statistics(stats: RawStatistics, cfg: &CrfConfig) -> CrfModel {
    let RawStatistics {
        counts,
        suggestions,
    } = stats;
    let mut by_freq: Vec<u32> = (0..counts.len() as u32).collect();
    by_freq.sort_by_key(|&l| std::cmp::Reverse(counts[l as usize]));
    by_freq.truncate(cfg.global_candidates);

    let mut rows: Vec<CandidateRow> = suggestions
        .into_iter()
        .map(|(key, by_label)| {
            let mut v: Vec<(u32, u32)> = by_label.into_iter().collect();
            v.sort_by_key(|&(l, c)| (std::cmp::Reverse(c), l));
            v.truncate(cfg.suggestions_per_key);
            (key, v)
        })
        .collect();
    rows.sort_unstable_by_key(|&(key, _)| key);
    CrfModel::from_parts(
        PackedWeights::default(),
        PackedWeights::default(),
        PackedCandidates::from_sorted(&rows),
        counts,
        by_freq,
        cfg.max_candidates,
        cfg.max_passes,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Node;
    use rand::Rng;

    /// A learnable toy world: the label of an unknown node is a function
    /// of the path connecting it to a known node — path p links unknowns
    /// of label (p mod L) to knowns of label (p mod 3).
    fn toy_world(n_instances: usize, n_paths: u32, n_labels: u32, seed: u64) -> Vec<Instance> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n_instances)
            .map(|_| {
                let path = rng.gen_range(0..n_paths);
                let gold = path % n_labels;
                let known = n_labels + (path % 3);
                let mut inst = Instance::new(vec![Node::unknown(gold), Node::known(known)]);
                inst.add_pair(0, 1, path);
                inst
            })
            .collect()
    }

    #[test]
    fn training_learns_a_path_determined_mapping() {
        let num_labels = 5 + 3;
        let train_set = toy_world(400, 20, 5, 1);
        let test_set = toy_world(100, 20, 5, 2);
        let model = train(&train_set, num_labels, &CrfConfig::default());
        let mut correct = 0;
        for inst in &test_set {
            if model.predict(inst)[0] == inst.nodes[0].label {
                correct += 1;
            }
        }
        assert!(correct >= 95, "learned {correct}/100");
    }

    #[test]
    fn unary_factors_improve_a_unary_determined_world() {
        // Gold label equals the unary path id; pairwise evidence is noise.
        let mut rng = SmallRng::seed_from_u64(3);
        let make = |rng: &mut SmallRng| -> Vec<Instance> {
            (0..300)
                .map(|_| {
                    let path = rng.gen_range(0..6u32);
                    let mut inst = Instance::new(vec![
                        Node::unknown(path),
                        Node::known(6 + rng.gen_range(0..2)),
                    ]);
                    inst.add_unary(0, path);
                    inst.add_pair(0, 1, 99);
                    inst
                })
                .collect()
        };
        let train_set = make(&mut rng);
        let test_set = make(&mut rng);
        let with = train(&train_set, 8, &CrfConfig::default());
        let without = train(
            &train_set,
            8,
            &CrfConfig {
                use_unary: false,
                ..CrfConfig::default()
            },
        );
        let acc = |m: &CrfModel| {
            test_set
                .iter()
                .filter(|i| m.predict(i)[0] == i.nodes[0].label)
                .count()
        };
        assert!(
            acc(&with) > acc(&without) + 50,
            "unary {} vs no-unary {}",
            acc(&with),
            acc(&without)
        );
    }

    #[test]
    fn joint_inference_propagates_between_unknowns() {
        // Two unknowns: A is pinned by a known via path 0; B is only
        // linked to A via path 1, with gold(B) = gold(A) + 2.
        let mut rng = SmallRng::seed_from_u64(5);
        let make = |rng: &mut SmallRng| -> Vec<Instance> {
            (0..400)
                .map(|_| {
                    let a = rng.gen_range(0..2u32);
                    let b = a + 2;
                    let mut inst =
                        Instance::new(vec![Node::unknown(a), Node::unknown(b), Node::known(4 + a)]);
                    inst.add_pair(0, 2, a);
                    inst.add_pair(0, 1, 10);
                    inst
                })
                .collect()
        };
        let train_set = make(&mut rng);
        let test_set = make(&mut rng);
        let model = train(&train_set, 6, &CrfConfig::default());
        let mut correct_b = 0;
        for inst in &test_set {
            let labels = model.predict(inst);
            if labels[1] == inst.nodes[1].label {
                correct_b += 1;
            }
        }
        assert!(
            correct_b >= 350,
            "joint inference solved only {correct_b}/400 B nodes"
        );
    }

    #[test]
    fn training_is_deterministic_under_a_seed() {
        let train_set = toy_world(100, 10, 4, 7);
        let a = train(&train_set, 7, &CrfConfig::default());
        let b = train(&train_set, 7, &CrfConfig::default());
        let test = toy_world(50, 10, 4, 8);
        for inst in &test {
            assert_eq!(a.predict(inst), b.predict(inst));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_label_panics() {
        let inst = Instance::new(vec![Node::unknown(9)]);
        let _ = train(&[inst], 3, &CrfConfig::default());
    }

    #[test]
    fn statistics_merge_matches_single_pass() {
        let world = toy_world(200, 15, 5, 11);
        let whole = RawStatistics::collect(&world, 8);
        // Per-instance collection then absorb, in order.
        let mut merged = RawStatistics::new(8);
        for inst in &world {
            merged.absorb(&RawStatistics::collect(std::slice::from_ref(inst), 8));
        }
        assert_eq!(whole.counts, merged.counts);
        assert_eq!(whole.suggestions, merged.suggestions);
    }

    #[test]
    fn train_from_statistics_matches_train() {
        let world = toy_world(150, 12, 4, 21);
        let cfg = CrfConfig::default();
        let direct = train(&world, 7, &cfg);
        let via_stats =
            train_from_statistics(&world, 7, &cfg, RawStatistics::collect(&world, 7)).unwrap();
        assert_eq!(direct.to_json().unwrap(), via_stats.to_json().unwrap());
    }

    #[test]
    fn interrupt_then_resume_reproduces_the_model() {
        let world = toy_world(120, 10, 4, 31);
        let cfg = CrfConfig::default();
        let baseline = train(&world, 7, &cfg).to_json().unwrap();

        // Interrupt mid-epoch (after 250 polled instances — inside epoch
        // 3 of 8 × 120), then resume to completion.
        let calls = std::cell::Cell::new(0usize);
        let stop = move || {
            calls.set(calls.get() + 1);
            calls.get() > 250
        };
        let outcome = train_resumable(
            &world,
            7,
            &cfg,
            TrainControl {
                interrupt: Some(&stop),
                ..TrainControl::default()
            },
        )
        .unwrap();
        let state = match outcome {
            TrainOutcome::Interrupted(state) => state,
            TrainOutcome::Completed(_) => panic!("interrupt never fired"),
        };
        assert!(state.epoch() > 0 && state.pos() > 0, "not mid-epoch");

        let resumed = match train_resumable(
            &world,
            7,
            &cfg,
            TrainControl {
                resume: Some(*state),
                ..TrainControl::default()
            },
        )
        .unwrap()
        {
            TrainOutcome::Completed(model) => *model,
            TrainOutcome::Interrupted(_) => panic!("no interrupt installed"),
        };
        assert_eq!(baseline, resumed.to_json().unwrap());
    }

    #[test]
    fn epoch_checkpoints_resume_to_the_same_model() {
        let world = toy_world(100, 10, 4, 41);
        let cfg = CrfConfig::default();
        let baseline = train(&world, 7, &cfg).to_json().unwrap();

        let mut snapshots: Vec<TrainState> = Vec::new();
        let mut sink = |s: &TrainState| snapshots.push(s.clone());
        let _ = train_resumable(
            &world,
            7,
            &cfg,
            TrainControl {
                checkpoint_every: 3,
                on_checkpoint: Some(&mut sink),
                ..TrainControl::default()
            },
        )
        .unwrap();
        assert_eq!(snapshots.len(), 2, "epochs 3 and 6 of 8");
        for snap in snapshots {
            let resumed = match train_resumable(
                &world,
                7,
                &cfg,
                TrainControl {
                    resume: Some(snap),
                    ..TrainControl::default()
                },
            )
            .unwrap()
            {
                TrainOutcome::Completed(model) => *model,
                TrainOutcome::Interrupted(_) => panic!("no interrupt installed"),
            };
            assert_eq!(baseline, resumed.to_json().unwrap());
        }
    }

    #[test]
    fn resume_rejects_a_mismatched_fingerprint() {
        let world = toy_world(60, 10, 4, 51);
        let cfg = CrfConfig::default();
        let stop = || true;
        let state = match train_resumable(
            &world,
            7,
            &cfg,
            TrainControl {
                interrupt: Some(&stop),
                ..TrainControl::default()
            },
        )
        .unwrap()
        {
            TrainOutcome::Interrupted(state) => state,
            TrainOutcome::Completed(_) => panic!("interrupt never fired"),
        };
        let other = CrfConfig {
            seed: 1,
            ..CrfConfig::default()
        };
        let err = train_resumable(
            &world,
            7,
            &other,
            TrainControl {
                resume: Some(*state),
                ..TrainControl::default()
            },
        )
        .unwrap_err();
        assert!(err.contains("checkpoint"), "unexpected error: {err}");
    }

    #[test]
    fn incremental_update_absorbs_new_documents() {
        // Train on half the world, then fold in the other half; the
        // updated model should predict the toy mapping about as well as
        // a full retrain.
        let world = toy_world(400, 20, 5, 61);
        let (old, new) = world.split_at(200);
        let cfg = CrfConfig::default();
        let base = train(old, 8, &cfg);
        let updated =
            train_incremental(new, 8, &cfg, &base, &RawStatistics::collect(new, 8)).unwrap();
        let test_set = toy_world(100, 20, 5, 62);
        let acc = |m: &CrfModel| {
            test_set
                .iter()
                .filter(|i| m.predict(i)[0] == i.nodes[0].label)
                .count()
        };
        assert!(
            acc(&updated) >= 95,
            "incremental update learned only {}/100",
            acc(&updated)
        );
    }
}
