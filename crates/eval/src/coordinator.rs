//! Shard coordination for multi-box distributed training.
//!
//! The coordinator's job is bookkeeping, not I/O: given a corpus split
//! into `shard_count` ranges (the same [`shard_range`] chunks the
//! single-box `--shard i/n` path uses), it hands shards to polling
//! workers, watches per-shard deadlines, reassigns stragglers with
//! capped exponential backoff, and reports when coverage is exact so
//! the caller can run the merge finishing pass. Everything here is
//! pure state driven by an injected millisecond clock — the HTTP
//! surface, the partial cache on disk, and JSON all live in the
//! binary's serve layer, which keeps this logic unit-testable without
//! sockets and this crate free of a JSON dependency.
//!
//! Cache keys are content addresses: FNV-1a over the partial layout,
//! the training-config fingerprint, the shard coordinates, and a
//! fingerprint of the shard's source bytes. Two runs over the same
//! corpus with the same knobs derive the same keys, so a shard that is
//! already in the cache is never re-extracted or re-uploaded; touching
//! one file changes only that shard's key, and a build that writes
//! another layout never finds the files of this one.
//!
//! [`shard_range`]: crate::partial::shard_range

use pigeon_core::Fnv64;
use pigeon_crf::artifact::SEC_PT_DOCS;

/// Attempts after which the lease backoff stops doubling (base × 2⁴).
const BACKOFF_CAP: u32 = 4;

/// Fingerprints a training configuration from its knob table (the same
/// `(name, value)` pairs [`merge_partials`] compares). Every knob name
/// and value is length-framed so `("ab","c")` and `("a","bc")` hash
/// differently.
///
/// [`merge_partials`]: crate::partial::merge_partials
pub fn config_fingerprint(knobs: &[(&str, String)]) -> u64 {
    let mut hash = Fnv64::new();
    for (name, value) in knobs {
        hash.write_u64(name.len() as u64);
        hash.write(name.as_bytes());
        hash.write_u64(value.len() as u64);
        hash.write(value.as_bytes());
    }
    hash.finish()
}

/// Fingerprints one corpus shard: the relative path and content bytes
/// of every file in the shard's range, length-framed in corpus order.
/// Renaming, reordering, editing, adding or removing a file all change
/// the fingerprint of exactly the shards whose ranges are affected.
pub fn corpus_shard_fingerprint<'a>(files: impl IntoIterator<Item = (&'a str, &'a [u8])>) -> u64 {
    let mut hash = Fnv64::new();
    for (name, bytes) in files {
        hash.write_u64(name.len() as u64);
        hash.write(name.as_bytes());
        hash.write_u64(bytes.len() as u64);
        hash.write(bytes);
    }
    hash.finish()
}

/// Derives a shard's content-address: FNV-1a of the partial layout
/// (the id of the section partials keep their documents in), the config
/// fingerprint, the shard coordinates, and the corpus-shard
/// fingerprint, rendered as 16 lowercase hex digits. This is the
/// partial's name in the cache directory and its id in
/// `/v1/partials/<key>`.
pub fn cache_key(config_fp: u64, shard_index: u32, shard_count: u32, corpus_fp: u64) -> String {
    let mut hash = Fnv64::new();
    hash.write(&SEC_PT_DOCS.to_le_bytes());
    hash.write_u64(config_fp);
    hash.write(&shard_index.to_le_bytes());
    hash.write(&shard_count.to_le_bytes());
    hash.write_u64(corpus_fp);
    format!("{:016x}", hash.finish())
}

/// A shard's position in the job state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardPhase {
    /// Not yet handed to any worker.
    Pending,
    /// Leased to a worker; reassigned if the deadline passes.
    Assigned,
    /// A validated partial for this shard is in the cache.
    Uploaded,
    /// The finishing merge consumed this shard's partial.
    Merged,
}

impl ShardPhase {
    /// Stable lowercase name for status JSON and logs.
    pub fn name(self) -> &'static str {
        match self {
            ShardPhase::Pending => "pending",
            ShardPhase::Assigned => "assigned",
            ShardPhase::Uploaded => "uploaded",
            ShardPhase::Merged => "merged",
        }
    }
}

/// How a shard's partial became available.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardSource {
    /// Not available yet.
    None,
    /// Found in the content-addressed cache at job creation (or by a
    /// worker's pre-flight `GET /v1/partials/<key>`).
    Cache,
    /// Freshly extracted and uploaded by a worker this run.
    Upload,
}

impl ShardSource {
    /// Stable lowercase name for status JSON.
    pub fn name(self) -> &'static str {
        match self {
            ShardSource::None => "none",
            ShardSource::Cache => "cache",
            ShardSource::Upload => "upload",
        }
    }
}

/// One shard's coordinator-side state.
#[derive(Debug, Clone)]
pub struct Shard {
    /// Content-address of this shard's partial (16 hex digits).
    pub key: String,
    /// Position in the state machine.
    pub phase: ShardPhase,
    /// Worker currently holding the lease (while `Assigned`) or the
    /// worker that uploaded the partial.
    pub worker: Option<String>,
    /// Times this shard has been leased (reassignments = attempts − 1).
    pub attempts: u32,
    /// Lease expiry in coordinator-clock milliseconds (while
    /// `Assigned`).
    pub deadline_ms: u64,
    /// Where the partial came from once available.
    pub source: ShardSource,
}

/// Outcome of a worker's lease poll.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Lease {
    /// Work on this shard. `reassigned` is true when the shard was
    /// taken back from an expired lease — the caller counts these.
    Assigned { index: usize, reassigned: bool },
    /// Nothing assignable right now, but uploads are still
    /// outstanding — poll again.
    Wait,
    /// Every shard is uploaded (or merged); there is nothing left to
    /// extract.
    Complete,
}

/// The per-job shard board: lease assignment, deadline tracking, and
/// coverage accounting. Time is injected as milliseconds so tests
/// drive expiry deterministically without sleeping.
#[derive(Debug)]
pub struct ShardBoard {
    shards: Vec<Shard>,
    /// First-attempt lease duration; doubles per retry up to
    /// `base × 2^BACKOFF_CAP`.
    base_lease_ms: u64,
}

impl ShardBoard {
    /// Creates a board with one `Pending` shard per cache key.
    pub fn new(keys: Vec<String>, base_lease_ms: u64) -> Self {
        let shards = keys
            .into_iter()
            .map(|key| Shard {
                key,
                phase: ShardPhase::Pending,
                worker: None,
                attempts: 0,
                deadline_ms: 0,
                source: ShardSource::None,
            })
            .collect();
        ShardBoard {
            shards,
            base_lease_ms,
        }
    }

    /// Read access to the shard table (status reporting).
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// The lease a shard's next attempt gets: base × 2^(attempts−1),
    /// capped. Attempt 1 waits `base`, attempt 2 `2×base`, … so a
    /// persistently slow shard is retried patiently instead of
    /// thrashing between workers.
    fn lease_ms(&self, attempts: u32) -> u64 {
        let doublings = attempts.saturating_sub(1).min(BACKOFF_CAP);
        self.base_lease_ms.saturating_mul(1u64 << doublings)
    }

    /// Marks a shard's partial as already present in the cache (job
    /// creation scan, or a validated out-of-band upload).
    /// Returns false if the shard already had its partial.
    pub fn mark_cached(&mut self, index: usize) -> bool {
        let shard = &mut self.shards[index];
        if matches!(shard.phase, ShardPhase::Uploaded | ShardPhase::Merged) {
            return false;
        }
        shard.phase = ShardPhase::Uploaded;
        shard.source = ShardSource::Cache;
        shard.worker = None;
        true
    }

    /// Records a validated upload for a shard. Returns true when the
    /// shard was newly satisfied, false for a duplicate (late
    /// straggler) upload — the caller leaves state untouched. `None`
    /// keeps the leasing worker's name (uploads are raw partial bytes
    /// and carry no worker identity).
    pub fn mark_uploaded(&mut self, index: usize, worker: Option<&str>) -> bool {
        let shard = &mut self.shards[index];
        if matches!(shard.phase, ShardPhase::Uploaded | ShardPhase::Merged) {
            return false;
        }
        shard.phase = ShardPhase::Uploaded;
        shard.source = ShardSource::Upload;
        if let Some(worker) = worker {
            shard.worker = Some(worker.to_owned());
        }
        true
    }

    /// Hands the caller a shard to work on: first any `Pending` shard,
    /// then any `Assigned` shard whose lease expired (a straggler or a
    /// dead worker — flagged `reassigned`). Expired leases get a
    /// doubled deadline per attempt so slow-but-alive workers aren't
    /// starved by theft loops.
    pub fn lease(&mut self, now_ms: u64, worker: &str) -> Lease {
        // Fresh shards first: breadth before retrying stragglers.
        if let Some(index) = self
            .shards
            .iter()
            .position(|s| s.phase == ShardPhase::Pending)
        {
            self.assign(index, now_ms, worker);
            return Lease::Assigned {
                index,
                reassigned: false,
            };
        }
        if let Some(index) = self
            .shards
            .iter()
            .position(|s| s.phase == ShardPhase::Assigned && s.deadline_ms <= now_ms)
        {
            self.assign(index, now_ms, worker);
            return Lease::Assigned {
                index,
                reassigned: true,
            };
        }
        if self.all_uploaded() {
            Lease::Complete
        } else {
            Lease::Wait
        }
    }

    fn assign(&mut self, index: usize, now_ms: u64, worker: &str) {
        let attempts = self.shards[index].attempts + 1;
        let deadline_ms = now_ms.saturating_add(self.lease_ms(attempts));
        let shard = &mut self.shards[index];
        shard.phase = ShardPhase::Assigned;
        shard.worker = Some(worker.to_owned());
        shard.attempts = attempts;
        shard.deadline_ms = deadline_ms;
    }

    /// True once every shard's partial is available (uploaded or
    /// merged) — the trigger for the finishing merge.
    pub fn all_uploaded(&self) -> bool {
        self.shards
            .iter()
            .all(|s| matches!(s.phase, ShardPhase::Uploaded | ShardPhase::Merged))
    }

    /// Moves every uploaded shard to `Merged` (after the finishing
    /// pass consumed the partials).
    pub fn mark_merged(&mut self) {
        for shard in &mut self.shards {
            if shard.phase == ShardPhase::Uploaded {
                shard.phase = ShardPhase::Merged;
            }
        }
    }

    /// Shard index for a cache key, if any shard owns it.
    pub fn index_of_key(&self, key: &str) -> Option<usize> {
        self.shards.iter().position(|s| s.key == key)
    }

    /// `(pending, assigned, uploaded, merged)` counts for status JSON.
    pub fn phase_counts(&self) -> (usize, usize, usize, usize) {
        let mut counts = (0, 0, 0, 0);
        for shard in &self.shards {
            match shard.phase {
                ShardPhase::Pending => counts.0 += 1,
                ShardPhase::Assigned => counts.1 += 1,
                ShardPhase::Uploaded => counts.2 += 1,
                ShardPhase::Merged => counts.3 += 1,
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_keys_are_stable_and_sensitive() {
        let knobs = [("max_length", "4".to_owned()), ("jobs", "0".to_owned())];
        let config = config_fingerprint(&knobs);
        let corpus = corpus_shard_fingerprint([("a.js", b"var x;".as_slice())]);
        let key = cache_key(config, 0, 4, corpus);
        assert_eq!(key.len(), 16);
        assert!(key.bytes().all(|b| b.is_ascii_hexdigit()));
        // Deterministic.
        assert_eq!(key, cache_key(config, 0, 4, corpus));
        // Any coordinate, knob or content change moves the key.
        assert_ne!(key, cache_key(config, 1, 4, corpus));
        assert_ne!(key, cache_key(config, 0, 5, corpus));
        let other_knobs = [("max_length", "7".to_owned()), ("jobs", "0".to_owned())];
        assert_ne!(
            key,
            cache_key(config_fingerprint(&other_knobs), 0, 4, corpus)
        );
        let touched = corpus_shard_fingerprint([("a.js", b"var y;".as_slice())]);
        assert_ne!(key, cache_key(config, 0, 4, touched));
    }

    #[test]
    fn framed_fingerprints_resist_concatenation_ambiguity() {
        let a = corpus_shard_fingerprint([("ab", b"c".as_slice())]);
        let b = corpus_shard_fingerprint([("a", b"bc".as_slice())]);
        assert_ne!(a, b);
        let one = corpus_shard_fingerprint([("a.js", b"xy".as_slice())]);
        let two = corpus_shard_fingerprint([("a.js", b"x".as_slice()), ("", b"y".as_slice())]);
        assert_ne!(one, two);
    }

    fn board(n: usize) -> ShardBoard {
        ShardBoard::new((0..n).map(|i| format!("{i:016x}")).collect(), 1_000)
    }

    #[test]
    fn leases_cover_every_shard_once() {
        let mut b = board(3);
        for expect in 0..3 {
            match b.lease(0, "w") {
                Lease::Assigned { index, reassigned } => {
                    assert_eq!(index, expect);
                    assert!(!reassigned);
                }
                other => panic!("expected assignment, got {other:?}"),
            }
        }
        // Everything leased and in-deadline: wait.
        assert_eq!(b.lease(10, "w2"), Lease::Wait);
        for i in 0..3 {
            assert!(b.mark_uploaded(i, Some("w")));
        }
        assert_eq!(b.lease(10, "w2"), Lease::Complete);
        assert!(b.all_uploaded());
    }

    #[test]
    fn expired_leases_are_reassigned_with_backoff() {
        let mut b = board(1);
        assert!(matches!(
            b.lease(0, "slow"),
            Lease::Assigned {
                index: 0,
                reassigned: false
            }
        ));
        // Attempt 1: base lease of 1000ms — not expired at 999.
        assert_eq!(b.lease(999, "thief"), Lease::Wait);
        // Expired at 1000: reassigned, attempt 2 gets a doubled lease.
        assert_eq!(
            b.lease(1_000, "thief"),
            Lease::Assigned {
                index: 0,
                reassigned: true
            }
        );
        assert_eq!(b.shards()[0].attempts, 2);
        assert_eq!(b.shards()[0].worker.as_deref(), Some("thief"));
        assert_eq!(b.shards()[0].deadline_ms, 1_000 + 2_000);
        assert_eq!(b.lease(2_999, "w3"), Lease::Wait);
        assert!(matches!(b.lease(3_000, "w3"), Lease::Assigned { .. }));
        assert_eq!(b.shards()[0].deadline_ms, 3_000 + 4_000);
    }

    #[test]
    fn backoff_is_capped() {
        let mut b = board(1);
        let mut now = 0;
        for _ in 0..10 {
            match b.lease(now, "w") {
                Lease::Assigned { .. } => now = b.shards()[0].deadline_ms,
                other => panic!("expected assignment, got {other:?}"),
            }
        }
        // Attempts ≥ 5 all get base × 2⁴.
        let lease = b.shards()[0].deadline_ms - (now - 16_000);
        assert_eq!(lease, 16_000);
    }

    #[test]
    fn duplicate_uploads_and_cache_hits_are_idempotent() {
        let mut b = board(2);
        assert!(b.mark_cached(0));
        assert!(!b.mark_cached(0), "second cache mark is a no-op");
        assert_eq!(b.shards()[0].source, ShardSource::Cache);
        assert!(matches!(
            b.lease(0, "w"),
            Lease::Assigned {
                index: 1,
                reassigned: false
            }
        ));
        assert!(b.mark_uploaded(1, Some("w")));
        assert!(!b.mark_uploaded(1, Some("late")), "duplicate upload");
        assert_eq!(b.shards()[1].worker.as_deref(), Some("w"));
        assert!(b.all_uploaded());
        b.mark_merged();
        assert_eq!(b.phase_counts(), (0, 0, 0, 2));
        assert!(!b.mark_uploaded(1, Some("very-late")));
        assert_eq!(b.lease(0, "w"), Lease::Complete);
    }

    #[test]
    fn key_lookup_and_counts() {
        let mut b = board(3);
        assert_eq!(b.index_of_key(&format!("{:016x}", 1)), Some(1));
        assert_eq!(b.index_of_key("no-such-key"), None);
        assert_eq!(b.phase_counts(), (3, 0, 0, 0));
        let _ = b.lease(0, "w");
        assert!(b.mark_uploaded(0, Some("w")));
        assert_eq!(b.phase_counts(), (2, 0, 1, 0));
    }
}
