//! The model's packed tables, a reusable inference workspace, and
//! sweep-exact delta-ICM.
//!
//! [`CrfModel`] stores every table in one indexed, cache-friendly form —
//! the form training finishes into, JSON parses into and the binary
//! artifact carries verbatim:
//!
//! * **Packed weights** — `(path, lᵃ, lᵇ)` / `(path, l)` keys collapse to
//!   a `u64` per entry (`lᵃ << 32 | lᵇ`, resp. `l`), stored sorted in one
//!   flat array with a per-path offset index (CSR). A lookup is an O(1)
//!   offset fetch plus a binary search over that path's slice — no
//!   hashing, and the slice is contiguous in cache. Training uses the
//!   mutable sibling [`BucketWeights`] (per-path sorted buckets) so
//!   subgradient updates write back in O(bucket), then packs the
//!   epoch-averaged result once.
//! * **Packed candidates** — the `(path, other_label, side)` suggestion
//!   table packs the same way, with suggestion lists in one flat label
//!   pool and their co-occurrence counts in a parallel array. The binary
//!   artifact ships no counts, so that array is empty after a `.pgnc`
//!   load.
//! * **Workspace** — per-instance CSR adjacency, the candidate buffer and
//!   the label-dedup stamps live in a [`Workspace`] reused across
//!   `infer` calls; steady-state inference allocates nothing.
//! * **Delta-ICM** — after a node flips, only its factor-graph neighbours
//!   can change their best response, so sweeps re-score just the nodes
//!   marked dirty by a neighbour flip. The schedule still walks unknowns
//!   in plain-ICM order and a clean node provably re-derives its current
//!   label, so the assignment trajectory — and therefore the trained
//!   model — is **bit-identical** to full sweeps (property-tested against
//!   a hash-map reference in `tests/prop_crf.rs`, pinned in
//!   `tests/golden_train.rs`).
//!
//! Candidate sets depend on the *current* labels of a node's neighbours,
//! so they cannot be frozen once per `infer` call without changing
//! results; instead the workspace materialises them into a reused buffer
//! with O(1) stamp dedup.

use crate::instance::Instance;
use crate::model::CrfModel;
use pigeon_telemetry as telemetry;
use std::cell::RefCell;
use std::ops::AddAssign;

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

/// A weight store the ICM engine can score against. Implemented by
/// [`CrfModel`] (prediction) and by a pair of [`BucketWeights`]
/// (training, where updates interleave with inference).
pub(crate) trait WeightStore {
    fn pair_w(&self, path: u32, la: u32, lb: u32) -> f32;
    fn unary_w(&self, path: u32, l: u32) -> f32;
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

    #[inline]
    fn get(&self, path: u32, key: u64) -> f32 {
        let p = path as usize;
        if p + 1 >= self.offsets.len() {
            return 0.0;
        }
        let (s, e) = (self.offsets[p] as usize, self.offsets[p + 1] as usize);
        match self.keys[s..e].binary_search(&key) {
            Ok(i) => self.weights[s + i],
            Err(_) => 0.0,
        }
    }

    /// Visits every entry as `(path, key, weight)`, in `(path, key)`
    /// order.
    pub(crate) fn iter_entries(&self) -> impl Iterator<Item = (u32, u64, f32)> + '_ {
        (0..self.offsets.len().saturating_sub(1)).flat_map(move |p| {
            let (s, e) = (self.offsets[p] as usize, self.offsets[p + 1] as usize);
            (s..e).map(move |i| (p as u32, self.keys[i], self.weights[i]))
        })
    }
}

/// Mutable indexed values for the training loop: one sorted
/// `(key, value)` bucket per path id. Lookups binary-search a small
/// contiguous bucket; write-back inserts in O(bucket size), which stays
/// cheap because features distribute across paths. `f32` buckets hold
/// the live weights, `f64` buckets the epoch-average sums.
///
/// An entry, once inserted, is never removed even when its value
/// returns to zero — the epoch-averaging step sums every entry ever
/// touched.
#[derive(Debug, Clone, Default)]
pub(crate) struct BucketWeights<T = f32> {
    buckets: Vec<Vec<(u64, T)>>,
}

impl<T: Copy + Default + AddAssign> BucketWeights<T> {
    #[inline]
    fn get(&self, path: u32, key: u64) -> T {
        match self.buckets.get(path as usize) {
            Some(b) => match b.binary_search_by_key(&key, |&(k, _)| k) {
                Ok(i) => b[i].1,
                Err(_) => T::default(),
            },
            None => T::default(),
        }
    }

    /// Adds `delta` to the entry, inserting it at zero first when absent.
    pub(crate) fn add(&mut self, path: u32, key: u64, delta: T) {
        let p = path as usize;
        if p >= self.buckets.len() {
            self.buckets.resize(p + 1, Vec::new());
        }
        let b = &mut self.buckets[p];
        let i = b
            .binary_search_by_key(&key, |&(k, _)| k)
            .unwrap_or_else(|i| {
                b.insert(i, (key, T::default()));
                i
            });
        b[i].1 += delta;
    }

    /// Visits every entry as `(path, key, value)`, in `(path, key)`
    /// order.
    pub(crate) fn for_each(&self, mut f: impl FnMut(u32, u64, T)) {
        for (p, b) in self.buckets.iter().enumerate() {
            for &(k, w) in b {
                f(p as u32, k, w);
            }
        }
    }
}

impl WeightStore for (BucketWeights, BucketWeights) {
    #[inline]
    fn pair_w(&self, path: u32, la: u32, lb: u32) -> f32 {
        self.0.get(path, pair_key(la, lb))
    }

    #[inline]
    fn unary_w(&self, path: u32, l: u32) -> f32 {
        self.1.get(path, u64::from(l))
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
        // `node_score`), so the table only covers the counted ones.
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
    fn pair_w(&self, path: u32, la: u32, lb: u32) -> f32 {
        self.pair.get(path, pair_key(la, lb))
    }

    #[inline]
    fn unary_w(&self, path: u32, l: u32) -> f32 {
        self.unary.get(path, u64::from(l))
    }
}

/// Per-instance scratch reused across [`infer`] calls: CSR adjacency,
/// the working label vector, dirty flags, the candidate buffer and the
/// label-dedup stamps. One workspace serves any number of sequential
/// inferences; nothing is reallocated once the high-water marks are
/// reached.
#[derive(Debug, Clone, Default)]
pub(crate) struct Workspace {
    labels: Vec<u32>,
    unknowns: Vec<u32>,
    /// CSR over pairwise factors: node `i` touches factor indices
    /// `pair_adj[pair_off[i]..pair_off[i + 1]]`, in factor order.
    pair_off: Vec<u32>,
    pair_adj: Vec<u32>,
    unary_off: Vec<u32>,
    unary_adj: Vec<u32>,
    /// Scratch cursor reused by the CSR fill.
    cursor: Vec<u32>,
    dirty: Vec<bool>,
    cand: Vec<u32>,
    /// `seen[l] == stamp` ⇔ label `l` is already in `cand`.
    seen: Vec<u32>,
    stamp: u32,
}

impl Workspace {
    /// A fresh workspace; buffers grow on first use.
    pub(crate) fn new() -> Self {
        Workspace::default()
    }

    /// Rebuilds the per-instance state (adjacency, label vector, unknown
    /// list) for `inst`, reusing buffers.
    fn prepare(&mut self, inst: &Instance, num_label_slots: usize) {
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
        }
    }

    #[inline]
    fn pair_factors(&self, node: usize) -> &[u32] {
        &self.pair_adj[self.pair_off[node] as usize..self.pair_off[node + 1] as usize]
    }

    #[inline]
    fn unary_factors(&self, node: usize) -> &[u32] {
        &self.unary_adj[self.unary_off[node] as usize..self.unary_off[node + 1] as usize]
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
            let slot = &mut ws.seen[l as usize];
            if *slot != ws.stamp && ws.cand.len() < cap {
                *slot = ws.stamp;
                ws.cand.push(l);
            }
        }
    }
    for &l in &shared.global_candidates {
        let slot = &mut ws.seen[l as usize];
        if *slot != ws.stamp && ws.cand.len() < cap {
            *slot = ws.stamp;
            ws.cand.push(l);
        }
    }
}

/// The score of assigning `label` to `node` with every other node held
/// at `labels`, accumulated in a fixed order (prior, pairwise factors in
/// adjacency order, unary factors, margin) so results are bit-stable.
#[inline]
#[allow(clippy::too_many_arguments)]
fn node_score<W: WeightStore>(
    shared: &EngineShared,
    weights: &W,
    inst: &Instance,
    labels: &[u32],
    pair_factors: &[u32],
    unary_factors: &[u32],
    node: usize,
    label: u32,
    loss_augment: bool,
) -> f32 {
    // A label outside the count table has frequency zero.
    let mut s = shared
        .prior
        .get(label as usize)
        .copied()
        .unwrap_or(1e-3 * 1.0);
    for &f in pair_factors {
        let pf = inst.pairwise[f as usize];
        s += if pf.a == node {
            weights.pair_w(pf.path, label, labels[pf.b])
        } else {
            weights.pair_w(pf.path, labels[pf.a], label)
        };
    }
    for &f in unary_factors {
        s += weights.unary_w(inst.unary[f as usize].path, label);
    }
    if loss_augment && label != inst.nodes[node].label {
        s += 1.0;
    }
    s
}

/// Best candidate for `node` against the current workspace labels; the
/// first strict improvement wins ties.
fn argmax<W: WeightStore>(
    shared: &EngineShared,
    weights: &W,
    inst: &Instance,
    ws: &Workspace,
    node: usize,
    loss_augment: bool,
) -> u32 {
    let mut best = ws.labels[node];
    let mut best_score = f32::NEG_INFINITY;
    let pair_factors = ws.pair_factors(node);
    let unary_factors = ws.unary_factors(node);
    for &c in &ws.cand {
        let s = node_score(
            shared,
            weights,
            inst,
            &ws.labels,
            pair_factors,
            unary_factors,
            node,
            c,
            loss_augment,
        );
        if s > best_score {
            best_score = s;
            best = c;
        }
    }
    if ws.cand.is_empty() {
        // No evidence at all: the most frequent training label.
        best = shared.global_candidates.first().copied().unwrap_or(0);
    }
    best
}

/// MAP inference by iterated conditional modes over the candidate sets:
/// blank every unknown, initialise each to its best candidate given the
/// evidence, then sweep until a fixpoint (or the sweep limit), re-scoring
/// only nodes whose neighbours flipped.
pub(crate) fn infer<W: WeightStore>(
    shared: &EngineShared,
    weights: &W,
    inst: &Instance,
    loss_augment: bool,
    ws: &mut Workspace,
) -> Vec<u32> {
    ws.prepare(inst, shared.num_label_slots);

    // Blank out the unknowns: their stored labels are gold (or a caller
    // sentinel) and must never influence inference.
    let blank = shared.global_candidates.first().copied().unwrap_or(0);
    for i in 0..ws.unknowns.len() {
        ws.labels[ws.unknowns[i] as usize] = blank;
    }
    // Evidence pass, in node order (later unknowns see earlier picks).
    for i in 0..ws.unknowns.len() {
        let u = ws.unknowns[i] as usize;
        collect_candidates(shared, inst, ws, u);
        ws.labels[u] = argmax(shared, weights, inst, ws, u, loss_augment);
    }
    // Delta-ICM sweeps: every unknown starts dirty (a full first sweep);
    // afterwards only neighbours of a flipped node can change their best
    // response, so clean nodes are skipped — provably without changing
    // the trajectory, because a node's score depends only on its
    // neighbours' labels.
    for i in 0..ws.unknowns.len() {
        ws.dirty[ws.unknowns[i] as usize] = true;
    }
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
            collect_candidates(shared, inst, ws, u);
            let best = argmax(shared, weights, inst, ws, u, loss_augment);
            if best != ws.labels[u] {
                ws.labels[u] = best;
                changed = true;
                flips += 1;
                for j in ws.pair_off[u] as usize..ws.pair_off[u + 1] as usize {
                    let pf = inst.pairwise[ws.pair_adj[j] as usize];
                    let v = if pf.a == u { pf.b } else { pf.a };
                    if !inst.nodes[v].known {
                        ws.dirty[v] = true;
                    }
                }
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
    /// ranked; ICM is deterministic, so each list is what a separate
    /// inference per node would rank.
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
            let labels = infer(&self.shared, self, inst, false, ws);
            let ranked = nodes
                .iter()
                .map(|&node| self.rank_candidates(inst, ws, node, k))
                .collect();
            (labels, ranked)
        })
    }

    /// The best `k` of `node`'s candidates, scored against the workspace
    /// labels (the MAP assignment after [`infer`]), best first; ties go
    /// to the smaller label id.
    fn rank_candidates(
        &self,
        inst: &Instance,
        ws: &mut Workspace,
        node: usize,
        k: usize,
    ) -> Vec<(u32, f32)> {
        collect_candidates(&self.shared, inst, ws, node);
        let pair_factors = ws.pair_factors(node);
        let unary_factors = ws.unary_factors(node);
        let mut scored: Vec<(u32, f32)> = ws
            .cand
            .iter()
            .map(|&c| {
                let s = node_score(
                    &self.shared,
                    self,
                    inst,
                    &ws.labels,
                    pair_factors,
                    unary_factors,
                    node,
                    c,
                    false,
                );
                (c, s)
            })
            .collect();
        scored.sort_by(|x, y| y.1.total_cmp(&x.1).then(x.0.cmp(&y.0)));
        scored.truncate(k);
        scored
    }
}
