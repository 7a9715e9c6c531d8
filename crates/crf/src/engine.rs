//! The model's packed tables, a reusable inference workspace, and
//! sweep-exact delta-ICM.
//!
//! [`CrfModel`] stores every table in one indexed, cache-friendly form —
//! the form training finishes into, JSON parses into and the binary
//! artifact carries verbatim:
//!
//! * **Packed weights** — `(path, lᵃ, lᵇ)` / `(path, l)` keys collapse to
//!   a `u64` per entry (`lᵃ << 32 | lᵇ`, resp. `l`), stored sorted in one
//!   flat array with a per-path offset index (CSR). Because a path's keys
//!   are sorted, the entries a pairwise factor can contribute when its
//!   `lᵃ` end is fixed form one contiguous run of that path's slice, and
//!   a unary path's slice is one run. Both weight stores also keep a
//!   transposed `lᵇ << 32 | lᵃ` mirror of their pairwise entries, so a
//!   factor whose `lᵇ` end is fixed is one run too. Training uses the
//!   mutable sibling [`BucketWeights`] (per-path sorted buckets, mirror
//!   written beside every update) so subgradient updates write back in
//!   O(bucket), then packs the epoch-averaged result once. The packed
//!   model builds its mirror ([`PairWeights`]) from the pairwise table on
//!   its first inference, so loading, serialising and training never pay
//!   for it, and a new table always starts without one.
//! * **Packed candidates** — the `(path, other_label, side)` suggestion
//!   table packs the same way, with suggestion lists in one flat label
//!   pool and their co-occurrence counts in a parallel array. The binary
//!   artifact ships no counts, so that array is empty after a `.pgnc`
//!   load.
//! * **Workspace** — per-instance CSR adjacency, the candidate buffer,
//!   the label-dedup stamps with each stamped label's candidate position,
//!   the per-candidate scores and the kept top-k rankings live in a
//!   [`Workspace`] reused across `infer` calls; steady-state inference
//!   allocates nothing.
//! * **One scoring routine** — [`score_candidates`] scores all of a
//!   node's candidates at once: each candidate starts at its prior, then
//!   every factor is visited once, in adjacency order, and scatters the
//!   weights of its run into the candidates they name (a walk of the run,
//!   or one probe per candidate when the run is much longer than the
//!   candidate list). Each candidate's sum takes its terms in the order a
//!   per-candidate lookup would (prior, pairwise factors in adjacency
//!   order, unary factors, margin), and skipping an absent entry is
//!   adding `0.0`, which leaves every sum that is not `-0.0` unchanged —
//!   none is, as each starts at a positive prior. So the scores are
//!   bit-identical to looking every candidate up factor by factor. ICM's
//!   argmax and the top-k ranking both use it.
//! * **Delta-ICM** — a node's candidates and scores depend only on its
//!   factor-graph neighbours' labels, so a node is re-scored only when a
//!   neighbour's label changed after its last scoring: every label change
//!   — an evidence-pass pick that moves a node off the blank as well as a
//!   sweep's flip — marks the node's unknown neighbours dirty, and sweeps
//!   skip clean nodes. The schedule still walks unknowns in plain-ICM
//!   order and a clean node provably re-derives its current label, so the
//!   assignment trajectory — and therefore the trained model — is
//!   **bit-identical** to full sweeps (property-tested against a hash-map
//!   reference in `tests/prop_crf.rs`, pinned in `tests/golden_train.rs`).
//! * **Ranking without rescoring** — when [`CrfModel::predict_top_k`]
//!   asks for `k` candidates, each ICM scoring keeps its best `k`; a node
//!   ICM leaves clean is ranked from that kept list, which came from the
//!   same inputs and so carries the same bits, and only the nodes ICM
//!   left dirty (or known nodes) are scored again.
//!
//! Candidate sets depend on the *current* labels of a node's neighbours,
//! so they cannot be frozen once per `infer` call without changing
//! results; instead the workspace materialises them into a reused buffer
//! with O(1) stamp dedup.

use crate::instance::Instance;
use crate::model::CrfModel;
use pigeon_telemetry as telemetry;
use std::cell::RefCell;
use std::ops::{AddAssign, Deref};
use std::sync::OnceLock;

thread_local! {
    /// Per-thread inference scratch, so `CrfModel::predict(&self)` keeps
    /// its shared-reference signature (the serve path calls it from many
    /// threads) while still reusing buffers across calls.
    static TLS_WORKSPACE: RefCell<Workspace> = RefCell::new(Workspace::new());
}

/// Packs a pairwise label pair into one orderable key.
#[inline]
pub(crate) fn pair_key(la: u32, lb: u32) -> u64 {
    (u64::from(la) << 32) | u64::from(lb)
}

/// A weight store the ICM engine can score against, as per-path sorted
/// `(keys, weights)` slices. Implemented by [`CrfModel`] (prediction) and
/// by the training loop's live weights, where updates interleave with
/// inference.
pub(crate) trait WeightStore {
    /// Path `path`'s pairwise entries, keyed `lᵃ << 32 | lᵇ`.
    fn pair_slice(&self, path: u32) -> (&[u64], &[f32]);
    /// The same entries keyed `lᵇ << 32 | lᵃ`.
    fn pair_mirror_slice(&self, path: u32) -> (&[u64], &[f32]);
    /// Path `path`'s unary entries, keyed by label.
    fn unary_slice(&self, path: u32) -> (&[u64], &[f32]);
}

/// The number of path slots a set of tables spans: one past the largest
/// path id, and at least one.
pub(crate) fn path_span(paths: impl IntoIterator<Item = u32>) -> usize {
    1 + paths.into_iter().max().unwrap_or(0) as usize
}

/// The weight table of one factor arity: sorted `u64` keys in a flat
/// array, indexed by a per-path offset table.
#[derive(Debug, Clone, Default)]
pub(crate) struct PackedWeights {
    /// `offsets[p]..offsets[p + 1]` is path `p`'s slice of `keys`.
    pub(crate) offsets: Vec<u32>,
    /// Strictly increasing within each path's slice.
    pub(crate) keys: Vec<u64>,
    /// Parallel to `keys`.
    pub(crate) weights: Vec<f32>,
}

impl PackedWeights {
    /// Packs `(path, key, weight)` entries sorted by `(path, key)` into
    /// `num_paths` path slots.
    pub(crate) fn from_sorted(entries: &[(u32, u64, f32)], num_paths: usize) -> Self {
        let mut offsets = vec![0u32; num_paths + 1];
        for &(p, _, _) in entries {
            offsets[p as usize + 1] += 1;
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        PackedWeights {
            offsets,
            keys: entries.iter().map(|&(_, k, _)| k).collect(),
            weights: entries.iter().map(|&(_, _, w)| w).collect(),
        }
    }

    /// Path `path`'s sorted keys and their weights; empty past the
    /// offsets index.
    #[inline]
    fn slice(&self, path: u32) -> (&[u64], &[f32]) {
        let p = path as usize;
        if p + 1 >= self.offsets.len() {
            return (&[], &[]);
        }
        let (s, e) = (self.offsets[p] as usize, self.offsets[p + 1] as usize);
        (&self.keys[s..e], &self.weights[s..e])
    }

    /// The weight stored under `(path, key)`, or `0.0`.
    pub(crate) fn get(&self, path: u32, key: u64) -> f32 {
        let (keys, weights) = self.slice(path);
        keys.binary_search(&key).map_or(0.0, |i| weights[i])
    }

    /// Visits every entry as `(path, key, weight)`, in `(path, key)`
    /// order.
    pub(crate) fn iter_entries(&self) -> impl Iterator<Item = (u32, u64, f32)> + '_ {
        (0..self.offsets.len().saturating_sub(1)).flat_map(move |p| {
            let (s, e) = (self.offsets[p] as usize, self.offsets[p + 1] as usize);
            (s..e).map(move |i| (p as u32, self.keys[i], self.weights[i]))
        })
    }

    /// The same entries with the halves of every key swapped
    /// (`lᵇ << 32 | lᵃ` for a pairwise table), re-sorted within each
    /// path: the same offsets, as many keys and the same weight bits.
    fn transposed(&self) -> PackedWeights {
        let mut keys = Vec::with_capacity(self.keys.len());
        let mut weights = Vec::with_capacity(self.weights.len());
        let mut path_entries: Vec<(u64, f32)> = Vec::new();
        for p in 0..self.offsets.len().saturating_sub(1) {
            let (k, w) = self.slice(p as u32);
            path_entries.clear();
            path_entries.extend(k.iter().map(|k| k.rotate_left(32)).zip(w.iter().copied()));
            // Keys are unique within a path, so the order is total.
            path_entries.sort_unstable_by_key(|&(k, _)| k);
            keys.extend(path_entries.iter().map(|&(k, _)| k));
            weights.extend(path_entries.iter().map(|&(_, w)| w));
        }
        PackedWeights {
            offsets: self.offsets.clone(),
            keys,
            weights,
        }
    }
}

/// The packed pairwise table with its transposed mirror, which is built
/// from the table on the first inference and kept beside it. The table
/// is set only through `From`, which starts without a mirror, so the
/// mirror can never describe another table; loaders, serialisers and
/// training, which never score against a packed model, never build it.
#[derive(Debug, Clone, Default)]
pub(crate) struct PairWeights {
    table: PackedWeights,
    mirror: OnceLock<PackedWeights>,
}

impl PairWeights {
    /// The table keyed `lᵇ << 32 | lᵃ`, built on first use.
    pub(crate) fn mirror(&self) -> &PackedWeights {
        self.mirror.get_or_init(|| self.table.transposed())
    }
}

impl From<PackedWeights> for PairWeights {
    fn from(table: PackedWeights) -> Self {
        PairWeights {
            table,
            mirror: OnceLock::new(),
        }
    }
}

impl Deref for PairWeights {
    type Target = PackedWeights;

    fn deref(&self) -> &PackedWeights {
        &self.table
    }
}

/// Mutable indexed values for the training loop: one sorted bucket of
/// keys, with their values alongside, per path id. Write-back inserts in
/// O(bucket size), which stays cheap because features distribute across
/// paths. `f32` buckets hold the live weights, `f64` buckets the
/// epoch-average sums.
///
/// An entry, once inserted, is never removed even when its value
/// returns to zero — the epoch-averaging step sums every entry ever
/// touched.
#[derive(Debug, Clone, Default)]
pub(crate) struct BucketWeights<T = f32> {
    buckets: Vec<Bucket<T>>,
}

/// One path's entries: strictly increasing keys and their values.
#[derive(Debug, Clone, Default)]
struct Bucket<T> {
    keys: Vec<u64>,
    values: Vec<T>,
}

impl<T: Copy + Default + AddAssign> BucketWeights<T> {
    /// Path `path`'s sorted keys and their values; empty for a path never
    /// written.
    #[inline]
    pub(crate) fn slice(&self, path: u32) -> (&[u64], &[T]) {
        match self.buckets.get(path as usize) {
            Some(b) => (&b.keys, &b.values),
            None => (&[], &[]),
        }
    }

    /// Adds `delta` to the entry, inserting it at zero first when absent.
    pub(crate) fn add(&mut self, path: u32, key: u64, delta: T) {
        let p = path as usize;
        if p >= self.buckets.len() {
            self.buckets.resize_with(p + 1, Bucket::default);
        }
        let b = &mut self.buckets[p];
        let i = b.keys.binary_search(&key).unwrap_or_else(|i| {
            b.keys.insert(i, key);
            b.values.insert(i, T::default());
            i
        });
        b.values[i] += delta;
    }

    /// Visits every entry as `(path, key, value)`, in `(path, key)`
    /// order.
    pub(crate) fn for_each(&self, mut f: impl FnMut(u32, u64, T)) {
        for (p, b) in self.buckets.iter().enumerate() {
            for (&k, &v) in b.keys.iter().zip(&b.values) {
                f(p as u32, k, v);
            }
        }
    }
}

/// The `(path, other_label, side)` → suggestions index: per-path sorted
/// entry slices pointing into one flat label pool.
#[derive(Debug, Clone, Default)]
pub(crate) struct PackedCandidates {
    /// `offsets[p]..offsets[p + 1]` is path `p`'s slice of `entries`.
    pub(crate) offsets: Vec<u32>,
    /// `(other_label << 1 | side, start, len)`, sorted by key per path.
    pub(crate) entries: Vec<(u64, u32, u32)>,
    /// Suggested labels, in stored (frequency-ranked) order.
    pub(crate) labels: Vec<u32>,
    /// Training co-occurrence count of each pooled label, parallel to
    /// `labels` — or empty when the model was loaded from a binary
    /// artifact, which ships no counts.
    pub(crate) counts: Vec<u32>,
}

/// One candidate row before packing: `(path, other_label, side)` and its
/// frequency-ranked `(label, count)` suggestions.
pub(crate) type CandidateRow = ((u32, u32, u8), Vec<(u32, u32)>);

impl PackedCandidates {
    /// Packs rows sorted by `(path, other_label, side)`, keeping their
    /// counts.
    pub(crate) fn from_sorted(rows: &[CandidateRow]) -> Self {
        let mut offsets = vec![0u32; path_span(rows.iter().map(|&((p, _, _), _)| p)) + 1];
        let mut entries = Vec::with_capacity(rows.len());
        let mut labels = Vec::new();
        let mut counts = Vec::new();
        for ((p, other, side), suggested) in rows {
            offsets[*p as usize + 1] += 1;
            let key = (u64::from(*other) << 1) | u64::from(*side);
            entries.push((key, labels.len() as u32, suggested.len() as u32));
            labels.extend(suggested.iter().map(|&(l, _)| l));
            counts.extend(suggested.iter().map(|&(_, c)| c));
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        PackedCandidates {
            offsets,
            entries,
            labels,
            counts,
        }
    }

    /// Number of path slots the offsets index spans.
    pub(crate) fn num_paths(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Whether every pooled label carries its co-occurrence count.
    pub(crate) fn has_counts(&self) -> bool {
        self.counts.len() == self.labels.len()
    }

    /// Visits every entry as `(path, key, labels, counts)` in `(path,
    /// key)` order; `counts` is empty when the model ships none.
    pub(crate) fn rows(&self) -> impl Iterator<Item = (u32, u64, &[u32], &[u32])> + '_ {
        (0..self.num_paths()).flat_map(move |p| {
            let (s, e) = (self.offsets[p] as usize, self.offsets[p + 1] as usize);
            self.entries[s..e].iter().map(move |&(key, start, len)| {
                let range = start as usize..(start + len) as usize;
                let counts = self.counts.get(range.clone()).unwrap_or(&[]);
                (p as u32, key, &self.labels[range], counts)
            })
        })
    }

    #[inline]
    fn get(&self, path: u32, other_label: u32, side: u8) -> &[u32] {
        let p = path as usize;
        if p + 1 >= self.offsets.len() {
            return &[];
        }
        let (s, e) = (self.offsets[p] as usize, self.offsets[p + 1] as usize);
        let key = (u64::from(other_label) << 1) | u64::from(side);
        match self.entries[s..e].binary_search_by_key(&key, |&(k, _, _)| k) {
            Ok(i) => {
                let (_, start, len) = self.entries[s + i];
                &self.labels[start as usize..(start + len) as usize]
            }
            Err(_) => &[],
        }
    }
}

/// Everything about a model except its weights — the candidate index,
/// the label statistics and prior, the global fallback candidates and
/// the inference caps. It stays fixed while training updates the
/// weights.
#[derive(Debug, Clone, Default)]
pub(crate) struct EngineShared {
    pub(crate) cands: PackedCandidates,
    /// Training-corpus frequency of each label (indexed by label id).
    pub(crate) label_counts: Vec<u32>,
    /// The smoothing prior of each counted label.
    pub(crate) prior: Vec<f32>,
    /// Global fallback candidates (most frequent labels, descending).
    pub(crate) global_candidates: Vec<u32>,
    pub(crate) max_candidates: usize,
    pub(crate) max_passes: usize,
    /// Upper bound (exclusive) on label ids the candidate tables can
    /// produce; sizes the workspace dedup stamps.
    pub(crate) num_label_slots: usize,
}

impl EngineShared {
    /// Derives the label prior and the label-slot bound from the tables.
    pub(crate) fn new(
        cands: PackedCandidates,
        label_counts: Vec<u32>,
        global_candidates: Vec<u32>,
        max_candidates: usize,
        max_passes: usize,
    ) -> EngineShared {
        // Label slots must cover every id inference can touch: the counted
        // labels, every suggestion and every global candidate (hand-built
        // models may exceed the count table).
        let mut slots = label_counts.len();
        for l in cands.labels.iter().chain(&global_candidates) {
            slots = slots.max(*l as usize + 1);
        }
        // Uncounted labels score the frequency-zero prior (see
        // `score_candidates`), so the table only covers the counted ones.
        let prior = label_counts
            .iter()
            .map(|&c| 1e-3 * (1.0 + f32::ln(1.0 + c as f32)))
            .collect();
        EngineShared {
            cands,
            label_counts,
            prior,
            global_candidates,
            max_candidates,
            max_passes,
            num_label_slots: slots,
        }
    }
}

impl WeightStore for CrfModel {
    #[inline]
    fn pair_slice(&self, path: u32) -> (&[u64], &[f32]) {
        self.pair.slice(path)
    }

    #[inline]
    fn pair_mirror_slice(&self, path: u32) -> (&[u64], &[f32]) {
        self.pair.mirror().slice(path)
    }

    #[inline]
    fn unary_slice(&self, path: u32) -> (&[u64], &[f32]) {
        self.unary.slice(path)
    }
}

/// Per-instance scratch reused across [`infer`] calls: CSR adjacency,
/// the working label vector, dirty flags, the candidate buffer, the
/// label-dedup stamps and the kept top-k rankings. One workspace serves
/// any number of sequential inferences; nothing is reallocated once the
/// high-water marks are reached.
#[derive(Debug, Clone, Default)]
pub(crate) struct Workspace {
    labels: Vec<u32>,
    /// The unknown nodes, ascending.
    unknowns: Vec<u32>,
    /// CSR over pairwise factors: node `i` touches factor indices
    /// `pair_adj[pair_off[i]..pair_off[i + 1]]`, in factor order.
    pair_off: Vec<u32>,
    pair_adj: Vec<u32>,
    unary_off: Vec<u32>,
    unary_adj: Vec<u32>,
    /// Scratch cursor reused by the CSR fill.
    cursor: Vec<u32>,
    /// `dirty[u]` ⇔ a neighbour of unknown `u` changed its label after
    /// `u`'s last scoring.
    dirty: Vec<bool>,
    cand: Vec<u32>,
    /// `seen[l] == stamp` ⇔ label `l` is already in `cand`.
    seen: Vec<u32>,
    /// `cand[pos[l]] == l` while `seen[l] == stamp`.
    pos: Vec<u32>,
    stamp: u32,
    /// The score of each candidate, parallel to `cand`.
    score: Vec<f32>,
    /// How many ranked candidates each ICM scoring keeps (0: none).
    keep: usize,
    /// The ranking kept from each unknown's last ICM scoring, by position
    /// in `unknowns`, best first: at most `keep` entries and never more
    /// than that scoring's candidates, so a huge `keep` costs nothing up
    /// front.
    kept: Vec<Vec<(u32, f32)>>,
    /// The ranking of the last [`Workspace::rank_scored`] call.
    ranked: Vec<(u32, f32)>,
}

impl Workspace {
    /// A fresh workspace; buffers grow on first use.
    pub(crate) fn new() -> Self {
        Workspace::default()
    }

    /// Rebuilds the per-instance state (adjacency, label vector, unknown
    /// list, kept rankings of `keep` entries each) for `inst`, reusing
    /// buffers.
    fn prepare(&mut self, inst: &Instance, num_label_slots: usize, keep: usize) {
        let n = inst.nodes.len();
        self.labels.clear();
        self.labels.extend(inst.nodes.iter().map(|nd| nd.label));
        self.unknowns.clear();
        self.unknowns.extend(
            inst.nodes
                .iter()
                .enumerate()
                .filter(|(_, nd)| !nd.known)
                .map(|(i, _)| i as u32),
        );

        // Degree count → prefix sum → fill, preserving factor order per
        // node.
        self.pair_off.clear();
        self.pair_off.resize(n + 1, 0);
        for pf in &inst.pairwise {
            self.pair_off[pf.a + 1] += 1;
            self.pair_off[pf.b + 1] += 1;
        }
        for i in 1..=n {
            self.pair_off[i] += self.pair_off[i - 1];
        }
        self.pair_adj.clear();
        self.pair_adj.resize(self.pair_off[n] as usize, 0);
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.pair_off[..n]);
        for (f, pf) in inst.pairwise.iter().enumerate() {
            for end in [pf.a, pf.b] {
                self.pair_adj[self.cursor[end] as usize] = f as u32;
                self.cursor[end] += 1;
            }
        }

        self.unary_off.clear();
        self.unary_off.resize(n + 1, 0);
        for uf in &inst.unary {
            self.unary_off[uf.node + 1] += 1;
        }
        for i in 1..=n {
            self.unary_off[i] += self.unary_off[i - 1];
        }
        self.unary_adj.clear();
        self.unary_adj.resize(self.unary_off[n] as usize, 0);
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.unary_off[..n]);
        for (f, uf) in inst.unary.iter().enumerate() {
            self.unary_adj[self.cursor[uf.node] as usize] = f as u32;
            self.cursor[uf.node] += 1;
        }

        self.dirty.clear();
        self.dirty.resize(n, false);
        if self.seen.len() < num_label_slots {
            self.seen.resize(num_label_slots, 0);
            self.pos.resize(num_label_slots, 0);
        }
        // The evidence pass scores, and so overwrites, every kept list.
        self.keep = keep;
        let kept = if keep > 0 { self.unknowns.len() } else { 0 };
        self.kept.truncate(kept);
        self.kept.resize_with(kept, Vec::new);
    }

    /// Appends `l` to the candidates unless it is already there or the
    /// list holds `cap` labels.
    #[inline]
    fn offer(&mut self, l: u32, cap: usize) {
        let slot = &mut self.seen[l as usize];
        if *slot != self.stamp && self.cand.len() < cap {
            *slot = self.stamp;
            self.pos[l as usize] = self.cand.len() as u32;
            self.cand.push(l);
        }
    }

    /// Moves `node` to `label`. A change marks the node's unknown
    /// neighbours dirty, since their candidates and scores read it, and
    /// returns `true`.
    fn relabel(&mut self, inst: &Instance, node: usize, label: u32) -> bool {
        if self.labels[node] == label {
            return false;
        }
        self.labels[node] = label;
        for j in self.pair_off[node] as usize..self.pair_off[node + 1] as usize {
            let pf = inst.pairwise[self.pair_adj[j] as usize];
            let v = if pf.a == node { pf.b } else { pf.a };
            if !inst.nodes[v].known {
                self.dirty[v] = true;
            }
        }
        true
    }

    /// Ranks the candidates just scored into `ranked`: the best `k`, best
    /// first, ties to the smaller label. Candidates are distinct labels,
    /// so the order is total and any selection gives these exact lists.
    fn rank_scored(&mut self, k: usize) {
        let order = |x: &(u32, f32), y: &(u32, f32)| y.1.total_cmp(&x.1).then(x.0.cmp(&y.0));
        self.ranked.clear();
        self.ranked
            .extend(self.cand.iter().copied().zip(self.score.iter().copied()));
        if self.ranked.len() > k {
            self.ranked.select_nth_unstable_by(k, order);
            self.ranked.truncate(k);
        }
        self.ranked.sort_unstable_by(order);
    }

    /// Keeps `ranked` as the ranking of `unknowns[i]`.
    fn keep_ranked(&mut self, i: usize) {
        self.kept[i].clear();
        self.kept[i].extend_from_slice(&self.ranked);
    }
}

/// Materialises `node`'s candidate set into `ws.cand`: per-factor
/// suggestions (factor order, suggestion rank order), then global
/// candidates, deduplicated and capped at `max_candidates`.
fn collect_candidates(shared: &EngineShared, inst: &Instance, ws: &mut Workspace, node: usize) {
    ws.cand.clear();
    ws.stamp = ws.stamp.wrapping_add(1);
    if ws.stamp == 0 {
        // Stamp wrapped: old stamps could alias, so reset them all once.
        ws.seen.iter_mut().for_each(|s| *s = 0);
        ws.stamp = 1;
    }
    let cap = shared.max_candidates;
    for i in ws.pair_off[node] as usize..ws.pair_off[node + 1] as usize {
        let pf = inst.pairwise[ws.pair_adj[i] as usize];
        let (other, side) = if pf.a == node {
            (pf.b, 0u8)
        } else {
            (pf.a, 1u8)
        };
        let other_label = ws.labels[other];
        for &l in shared.cands.get(pf.path, other_label, side) {
            ws.offer(l, cap);
        }
    }
    for &l in &shared.global_candidates {
        ws.offer(l, cap);
    }
}

/// The candidates being scored, seen from a weight run: the stamps tell
/// which labels are candidates and `pos` where their scores sit.
struct Scatter<'a> {
    cand: &'a [u32],
    seen: &'a [u32],
    pos: &'a [u32],
    stamp: u32,
    score: &'a mut [f32],
}

/// A run at most this many times the candidate count is walked entry by
/// entry; a longer one is probed once per candidate, so no factor costs
/// more than a per-candidate lookup would.
const WALK_PER_CANDIDATE: usize = 8;

impl Scatter<'_> {
    /// Adds the weight stored under `fixed << 32 | c`, if any, to each
    /// candidate `c`'s score. `keys` is one path's sorted slice and
    /// `weights` runs parallel to it.
    #[inline]
    fn add_run(&mut self, keys: &[u64], weights: &[f32], fixed: u32) {
        let hi = u64::from(fixed);
        let start = keys.partition_point(|&k| k >> 32 < hi);
        let len = keys[start..].partition_point(|&k| k >> 32 == hi);
        let (keys, weights) = (&keys[start..start + len], &weights[start..start + len]);
        if keys.len() <= WALK_PER_CANDIDATE * self.cand.len() {
            for (&k, &w) in keys.iter().zip(weights) {
                let l = k as u32 as usize;
                if self.seen.get(l) == Some(&self.stamp) {
                    self.score[self.pos[l] as usize] += w;
                }
            }
        } else {
            self.probe(keys, weights, |c| pair_key(fixed, c));
        }
    }

    /// Adds the weight stored under `key(c)`, if any, to each candidate
    /// `c`'s score.
    #[inline]
    fn probe(&mut self, keys: &[u64], weights: &[f32], key: impl Fn(u32) -> u64) {
        for (s, &c) in self.score.iter_mut().zip(self.cand) {
            if let Ok(i) = keys.binary_search(&key(c)) {
                *s += weights[i];
            }
        }
    }
}

/// Scores every candidate in `ws.cand` for `node`, with every other node
/// held at the workspace labels, into `ws.score`. Each candidate's sum
/// takes its terms in one fixed order (prior, pairwise factors in
/// adjacency order, unary factors, margin), so results are bit-stable;
/// see the module doc for why scattering each factor's stored weights
/// reproduces a per-candidate lookup exactly.
fn score_candidates<W: WeightStore>(
    shared: &EngineShared,
    weights: &W,
    inst: &Instance,
    ws: &mut Workspace,
    node: usize,
    loss_augment: bool,
) {
    let Workspace {
        labels,
        pair_off,
        pair_adj,
        unary_off,
        unary_adj,
        cand,
        seen,
        pos,
        stamp,
        score,
        ..
    } = ws;
    score.clear();
    // A label outside the count table has frequency zero.
    score.extend(
        cand.iter()
            .map(|&c| shared.prior.get(c as usize).copied().unwrap_or(1e-3 * 1.0)),
    );
    let mut scatter = Scatter {
        cand,
        seen,
        pos,
        stamp: *stamp,
        score,
    };
    for &f in &pair_adj[pair_off[node] as usize..pair_off[node + 1] as usize] {
        let pf = inst.pairwise[f as usize];
        if pf.a != node {
            // Node is the `b` end: the fixed `a` label selects a run.
            let (keys, w) = weights.pair_slice(pf.path);
            scatter.add_run(keys, w, labels[pf.a]);
        } else {
            // Node is the `a` end: the fixed `b` label selects a run of
            // the mirror.
            let (keys, w) = weights.pair_mirror_slice(pf.path);
            scatter.add_run(keys, w, labels[pf.b]);
        }
    }
    for &f in &unary_adj[unary_off[node] as usize..unary_off[node + 1] as usize] {
        let (keys, w) = weights.unary_slice(inst.unary[f as usize].path);
        // Unary keys are bare labels: one run under a zero high half.
        scatter.add_run(keys, w, 0);
    }
    if loss_augment {
        let gold = inst.nodes[node].label;
        for (s, &c) in score.iter_mut().zip(cand.iter()) {
            if c != gold {
                *s += 1.0;
            }
        }
    }
}

/// The best response of `unknowns[i]` against the current workspace
/// labels: its candidates are collected and scored, the first strict
/// improvement wins ties, and with no candidate at all the most frequent
/// training label stands. When the workspace keeps rankings, the
/// scoring's ranking is kept for the node.
fn best_response<W: WeightStore>(
    shared: &EngineShared,
    weights: &W,
    inst: &Instance,
    ws: &mut Workspace,
    i: usize,
    loss_augment: bool,
) -> u32 {
    let node = ws.unknowns[i] as usize;
    collect_candidates(shared, inst, ws, node);
    let mut best = shared.global_candidates.first().copied().unwrap_or(0);
    if !ws.cand.is_empty() {
        score_candidates(shared, weights, inst, ws, node, loss_augment);
        let mut best_score = f32::NEG_INFINITY;
        best = ws.labels[node];
        for (&c, &s) in ws.cand.iter().zip(&ws.score) {
            if s > best_score {
                best_score = s;
                best = c;
            }
        }
    }
    if ws.keep > 0 {
        ws.rank_scored(ws.keep);
        ws.keep_ranked(i);
    }
    best
}

/// MAP inference by iterated conditional modes over the candidate sets:
/// blank every unknown, initialise each to its best candidate given the
/// evidence, then sweep until a fixpoint (or the sweep limit), re-scoring
/// only nodes whose neighbours changed since their last scoring. The
/// assignment stays in `ws.labels`; with `keep > 0` every scoring keeps
/// its best `keep` candidates for [`CrfModel::predict_top_k`].
fn icm<W: WeightStore>(
    shared: &EngineShared,
    weights: &W,
    inst: &Instance,
    loss_augment: bool,
    ws: &mut Workspace,
    keep: usize,
) {
    ws.prepare(inst, shared.num_label_slots, keep);

    // Blank out the unknowns: their stored labels are gold (or a caller
    // sentinel) and must never influence inference.
    let blank = shared.global_candidates.first().copied().unwrap_or(0);
    for i in 0..ws.unknowns.len() {
        ws.labels[ws.unknowns[i] as usize] = blank;
    }
    // Evidence pass, in node order (later unknowns see earlier picks). A
    // pick that moves a node off the blank marks its unknown neighbours
    // dirty, as a sweep's flip does: an earlier neighbour was scored
    // against the blank and must be scored again, a later one clears its
    // mark when its own pick is scored.
    for i in 0..ws.unknowns.len() {
        let u = ws.unknowns[i] as usize;
        ws.dirty[u] = false;
        let best = best_response(shared, weights, inst, ws, i, loss_augment);
        ws.relabel(inst, u, best);
    }
    // Delta-ICM sweeps: only a node whose neighbourhood changed after its
    // last scoring can change its best response, so clean nodes are
    // skipped — provably without changing the trajectory, because a
    // node's candidates and scores depend only on its neighbours' labels.
    // ICM work counters accumulate locally and post once per call: this
    // is the training/serving hot loop, and one atomic add per call (not
    // per node) keeps the instrumentation overhead unmeasurable.
    let mut sweeps = 0u64;
    let mut rescores = 0u64;
    let mut flips = 0u64;
    for _ in 0..shared.max_passes {
        sweeps += 1;
        let mut changed = false;
        for i in 0..ws.unknowns.len() {
            let u = ws.unknowns[i] as usize;
            if !ws.dirty[u] {
                continue;
            }
            ws.dirty[u] = false;
            rescores += 1;
            let best = best_response(shared, weights, inst, ws, i, loss_augment);
            if ws.relabel(inst, u, best) {
                changed = true;
                flips += 1;
            }
        }
        if !changed {
            break;
        }
    }
    if telemetry::enabled() {
        telemetry::count("pigeon_icm_sweeps_total", sweeps);
        telemetry::count("pigeon_icm_rescores_total", rescores);
        telemetry::count("pigeon_icm_flips_total", flips);
    }
}

/// MAP inference (see [`icm`]): the full label vector, known nodes at
/// their labels.
pub(crate) fn infer<W: WeightStore>(
    shared: &EngineShared,
    weights: &W,
    inst: &Instance,
    loss_augment: bool,
    ws: &mut Workspace,
) -> Vec<u32> {
    icm(shared, weights, inst, loss_augment, ws, 0);
    ws.labels.clone()
}

impl CrfModel {
    /// MAP inference (see [`infer`]) on the calling thread's cached
    /// workspace.
    ///
    /// Returns the full label vector; known nodes keep their labels.
    pub fn predict(&self, inst: &Instance) -> Vec<u32> {
        self.infer(inst, false)
    }

    /// Inference with an explicit loss-augmentation switch (every
    /// non-gold label gains a unit margin) — the path training runs,
    /// exposed so the property tests can check it against a reference.
    #[doc(hidden)]
    pub fn infer(&self, inst: &Instance, loss_augment: bool) -> Vec<u32> {
        TLS_WORKSPACE.with(|ws| infer(&self.shared, self, inst, loss_augment, &mut ws.borrow_mut()))
    }

    /// The top-`k` candidate labels for one unknown node, scored with all
    /// other nodes fixed at the MAP assignment — the paper's added
    /// "top-k candidates suggestion" API (§5.1). The one-node case of
    /// [`CrfModel::predict_top_k`].
    ///
    /// # Panics
    ///
    /// Panics if `node` is not an index into `inst.nodes`.
    pub fn top_k(&self, inst: &Instance, node: usize, k: usize) -> Vec<(u32, f32)> {
        let (_, mut ranked) = self.predict_top_k(inst, &[node], k);
        ranked.swap_remove(0)
    }

    /// MAP inference plus the top-`k` candidates of every node in
    /// `nodes`, each ranked with all other nodes fixed at that one MAP
    /// assignment: the label vector [`CrfModel::predict`] returns, and
    /// one best-first list per requested node, in `nodes` order. A
    /// program pays for one inference however many of its nodes are
    /// ranked, and an unknown that ICM left clean is ranked from its last
    /// ICM scoring instead of being scored again; ICM is deterministic,
    /// so each list is what a separate inference per node would rank.
    ///
    /// # Panics
    ///
    /// Panics if any of `nodes` is not an index into `inst.nodes`.
    pub fn predict_top_k(
        &self,
        inst: &Instance,
        nodes: &[usize],
        k: usize,
    ) -> (Vec<u32>, Vec<Vec<(u32, f32)>>) {
        TLS_WORKSPACE.with(|ws| {
            let ws = &mut *ws.borrow_mut();
            icm(&self.shared, self, inst, false, ws, k);
            let ranked = nodes
                .iter()
                .map(|&node| self.rank_candidates(inst, ws, node, k))
                .collect();
            (ws.labels.clone(), ranked)
        })
    }

    /// The best `k` of `node`'s candidates, scored against the workspace
    /// labels (the MAP assignment [`icm`] left, keeping `k` per scoring),
    /// best first; ties go to the smaller label id. A clean unknown's
    /// ranking is the one its last scoring kept: no neighbour has changed
    /// since, so a new scoring would read the same inputs and produce the
    /// same bits. A dirty unknown is scored once more and its ranking
    /// kept; a known node is scored afresh.
    fn rank_candidates(
        &self,
        inst: &Instance,
        ws: &mut Workspace,
        node: usize,
        k: usize,
    ) -> Vec<(u32, f32)> {
        let unknown = match ws.unknowns.binary_search(&(node as u32)) {
            Ok(i) if k > 0 => Some(i),
            _ => None,
        };
        if let Some(i) = unknown {
            if !ws.dirty[node] {
                return ws.kept[i].clone();
            }
        }
        collect_candidates(&self.shared, inst, ws, node);
        score_candidates(&self.shared, self, inst, ws, node, false);
        ws.rank_scored(k);
        if let Some(i) = unknown {
            ws.keep_ranked(i);
            ws.dirty[node] = false;
        }
        ws.ranked.clone()
    }
}
