//! SGD checkpoint files (`.pgnc`, container kind `checkpoint`).
//!
//! A checkpoint serialises a [`TrainState`] — the exact loop state of
//! [`crate::train_resumable`]: epoch and position, the epoch's shuffle
//! order, the raw RNG state, the live bucket weights and the
//! epoch-average accumulators, plus a fingerprint of the corpus — its
//! sizes and a content hash of its instances — and of the
//! hyper-parameters the run was started with (resume refuses a
//! mismatch). Floats travel as raw IEEE bits, entries in canonical
//! sorted order, so encoding is byte-stable and a resumed run replays
//! the remaining updates bit-for-bit.
//!
//! The file reuses the `.pgnc` container of [`crate::artifact`] —
//! magic, versioned checksummed section table — with the header kind
//! tag set to [`artifact::KIND_CHECKPOINT`] so checkpoints are never
//! mistaken for models. Decoding trusts nothing and never panics on
//! truncated or bit-flipped input.

use crate::artifact::{
    self, decode_u32s, decode_u64s, encode_u32s, encode_u64s, kind_name, Quant, Reader, Writer,
    KIND_CHECKPOINT, SEC_CK_META, SEC_CK_ORDER, SEC_CK_PAIR, SEC_CK_PAIR_SUM, SEC_CK_UNARY,
    SEC_CK_UNARY_SUM,
};
use crate::train::{TrainFingerprint, TrainState};
use pigeon_telemetry as telemetry;
use std::time::Instant;

/// Number of `u64` scalars in the `ck-meta` section: the loop state,
/// the fingerprint and, last, the corpus content hash. A checkpoint
/// written before the layout carried the hash holds one scalar fewer; it
/// still decodes, and resume refuses it.
const META_LEN: usize = 18;

/// Registers the checkpoint metric families (histograms + counter) on
/// the current telemetry sink, so rendered metric families are stable
/// whether or not a checkpoint was ever written.
pub fn register_metrics() {
    telemetry::describe(
        "pigeon_checkpoint_save_micros",
        "Time to serialise one SGD checkpoint, microseconds",
    );
    telemetry::describe(
        "pigeon_checkpoint_load_micros",
        "Time to decode and validate one SGD checkpoint, microseconds",
    );
    telemetry::describe("pigeon_checkpoints_total", "SGD checkpoints written");
    telemetry::histogram(
        "pigeon_checkpoint_save_micros",
        &[],
        telemetry::PHASE_BOUNDS,
    );
    telemetry::histogram(
        "pigeon_checkpoint_load_micros",
        &[],
        telemetry::PHASE_BOUNDS,
    );
    telemetry::counter("pigeon_checkpoints_total");
}

/// Serialises `state` as a checkpoint container. Byte-stable: the same
/// state always encodes to the same bytes.
pub fn encode_checkpoint(state: &TrainState) -> Vec<u8> {
    let start = Instant::now();
    let _span = telemetry::span("checkpoint_save");
    let fp = &state.fingerprint;
    let mut meta = vec![
        state.epoch as u64,
        state.pos as u64,
        u64::from(state.shuffled),
        state.rng[0],
        state.rng[1],
        state.rng[2],
        state.rng[3],
        fp.num_instances,
        u64::from(fp.num_labels),
        fp.epochs,
        u64::from(fp.learning_rate.to_bits()),
        fp.max_passes,
        fp.max_candidates,
        fp.global_candidates,
        fp.suggestions_per_key,
        u64::from(fp.use_unary),
        fp.seed,
    ];
    meta.extend(fp.content_hash);

    let mut w = Writer::new();
    w.section(SEC_CK_META, encode_u64s(&meta));
    w.section(SEC_CK_ORDER, encode_u32s(&state.order));
    w.section(SEC_CK_PAIR, encode_weight_entries(&state.pair));
    w.section(SEC_CK_UNARY, encode_weight_entries(&state.unary));
    let mut pair_sum = Vec::with_capacity(state.pair_sum.len() * 24);
    for &(path, a, b, sum) in &state.pair_sum {
        pair_sum.extend_from_slice(&path.to_le_bytes());
        pair_sum.extend_from_slice(&a.to_le_bytes());
        pair_sum.extend_from_slice(&b.to_le_bytes());
        pair_sum.extend_from_slice(&0u32.to_le_bytes());
        pair_sum.extend_from_slice(&sum.to_bits().to_le_bytes());
    }
    w.section(SEC_CK_PAIR_SUM, pair_sum);
    let mut unary_sum = Vec::with_capacity(state.unary_sum.len() * 16);
    for &(path, label, sum) in &state.unary_sum {
        unary_sum.extend_from_slice(&path.to_le_bytes());
        unary_sum.extend_from_slice(&label.to_le_bytes());
        unary_sum.extend_from_slice(&sum.to_bits().to_le_bytes());
    }
    w.section(SEC_CK_UNARY_SUM, unary_sum);
    let out = w.finish_kind(Quant::F32, KIND_CHECKPOINT);

    telemetry::observe(
        "pigeon_checkpoint_save_micros",
        &[],
        start.elapsed().as_micros() as u64,
    );
    telemetry::count("pigeon_checkpoints_total", 1);
    out
}

/// Decodes and fully validates a checkpoint container.
///
/// # Errors
///
/// A message naming the first problem found — container level
/// (magic/version/bounds/checksums), wrong kind, malformed section, or
/// inconsistent state (order not a permutation, out-of-range position,
/// non-finite or unsorted weights). Never panics on arbitrary input.
pub fn decode_checkpoint(bytes: &[u8]) -> Result<TrainState, String> {
    let start = Instant::now();
    let _span = telemetry::span("checkpoint_load");
    let r = Reader::parse(bytes)?;
    if r.kind() != KIND_CHECKPOINT {
        return Err(format!(
            "container holds a {} (kind {}), not a training checkpoint",
            kind_name(r.kind()),
            r.kind()
        ));
    }

    let mut meta = decode_u64s(r.section(SEC_CK_META)?, "ck-meta")?;
    let content_hash = match meta.len() {
        META_LEN => meta.pop(),
        len if len == META_LEN - 1 => None,
        _ => return Err(format!("ck-meta must hold exactly {META_LEN} values")),
    };
    let meta: [u64; META_LEN - 1] = meta.try_into().expect("length checked above");
    let [epoch, pos, shuffled, rng0, rng1, rng2, rng3, num_instances, num_labels, epochs, lr_bits, max_passes, max_candidates, global_candidates, suggestions_per_key, use_unary, seed] =
        meta;
    for (flag, what) in [(shuffled, "shuffled"), (use_unary, "use_unary")] {
        if flag > 1 {
            return Err(format!("ck-meta {what} flag is {flag}, expected 0 or 1"));
        }
    }
    let num_labels =
        u32::try_from(num_labels).map_err(|_| "ck-meta label count overflows u32".to_owned())?;
    let learning_rate = f32::from_bits(
        u32::try_from(lr_bits).map_err(|_| "ck-meta learning rate overflows f32".to_owned())?,
    );
    if !learning_rate.is_finite() {
        return Err("ck-meta learning rate is not finite".into());
    }
    if epoch > epochs {
        return Err(format!(
            "ck-meta epoch {epoch} exceeds the {epochs}-epoch run"
        ));
    }

    let order = decode_u32s(r.section(SEC_CK_ORDER)?, "ck-order")?;
    if order.len() as u64 != num_instances {
        return Err(format!(
            "ck-order holds {} instances but the fingerprint says {num_instances}",
            order.len()
        ));
    }
    if pos > order.len() as u64 {
        return Err(format!(
            "ck-meta position {pos} exceeds the {}-instance epoch",
            order.len()
        ));
    }
    let mut seen = vec![false; order.len()];
    for &i in &order {
        let slot = seen
            .get_mut(i as usize)
            .ok_or_else(|| format!("ck-order instance {i} out of range {}", order.len()))?;
        if std::mem::replace(slot, true) {
            return Err(format!("ck-order visits instance {i} twice"));
        }
    }

    let pair = decode_weight_entries(r.section(SEC_CK_PAIR)?, "ck-pair")?;
    let unary = decode_weight_entries(r.section(SEC_CK_UNARY)?, "ck-unary")?;

    let raw = r.section(SEC_CK_PAIR_SUM)?;
    if !raw.len().is_multiple_of(24) {
        return Err(format!(
            "ck-pair-sum section length {} is not a multiple of 24",
            raw.len()
        ));
    }
    let mut pair_sum = Vec::with_capacity(raw.len() / 24);
    for c in raw.chunks_exact(24) {
        let path = u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let a = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        let b = u32::from_le_bytes([c[8], c[9], c[10], c[11]]);
        let sum = f64::from_bits(u64::from_le_bytes([
            c[16], c[17], c[18], c[19], c[20], c[21], c[22], c[23],
        ]));
        if !sum.is_finite() {
            return Err("ck-pair-sum holds a non-finite sum".into());
        }
        if let Some(&(pp, pa, pb, _)) = pair_sum.last() {
            if (pp, pa, pb) >= (path, a, b) {
                return Err("ck-pair-sum entries are not strictly sorted".into());
            }
        }
        pair_sum.push((path, a, b, sum));
    }

    let raw = r.section(SEC_CK_UNARY_SUM)?;
    if !raw.len().is_multiple_of(16) {
        return Err(format!(
            "ck-unary-sum section length {} is not a multiple of 16",
            raw.len()
        ));
    }
    let mut unary_sum = Vec::with_capacity(raw.len() / 16);
    for c in raw.chunks_exact(16) {
        let path = u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let label = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        let sum = f64::from_bits(u64::from_le_bytes([
            c[8], c[9], c[10], c[11], c[12], c[13], c[14], c[15],
        ]));
        if !sum.is_finite() {
            return Err("ck-unary-sum holds a non-finite sum".into());
        }
        if let Some(&(pp, pl, _)) = unary_sum.last() {
            if (pp, pl) >= (path, label) {
                return Err("ck-unary-sum entries are not strictly sorted".into());
            }
        }
        unary_sum.push((path, label, sum));
    }

    let state = TrainState {
        epoch: epoch as usize,
        pos: pos as usize,
        shuffled: shuffled == 1,
        order,
        rng: [rng0, rng1, rng2, rng3],
        pair,
        unary,
        pair_sum,
        unary_sum,
        fingerprint: TrainFingerprint {
            num_instances,
            num_labels,
            epochs,
            learning_rate,
            max_passes,
            max_candidates,
            global_candidates,
            suggestions_per_key,
            use_unary: use_unary == 1,
            seed,
            content_hash,
        },
    };
    telemetry::observe(
        "pigeon_checkpoint_load_micros",
        &[],
        start.elapsed().as_micros() as u64,
    );
    Ok(state)
}

/// `true` when `bytes` is a `.pgnc` container of checkpoint kind (the
/// dispatch sniff; full validation is [`decode_checkpoint`]).
pub fn is_checkpoint(bytes: &[u8]) -> bool {
    artifact::container_kind(bytes) == Some(KIND_CHECKPOINT)
}

fn encode_weight_entries(entries: &[(u32, u64, f32)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(entries.len() * 16);
    for &(path, key, w) in entries {
        out.extend_from_slice(&path.to_le_bytes());
        out.extend_from_slice(&w.to_bits().to_le_bytes());
        out.extend_from_slice(&key.to_le_bytes());
    }
    out
}

fn decode_weight_entries(bytes: &[u8], what: &str) -> Result<Vec<(u32, u64, f32)>, String> {
    if !bytes.len().is_multiple_of(16) {
        return Err(format!(
            "{what} section length {} is not a multiple of 16",
            bytes.len()
        ));
    }
    let mut out = Vec::with_capacity(bytes.len() / 16);
    for c in bytes.chunks_exact(16) {
        let path = u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let w = f32::from_bits(u32::from_le_bytes([c[4], c[5], c[6], c[7]]));
        let key = u64::from_le_bytes([c[8], c[9], c[10], c[11], c[12], c[13], c[14], c[15]]);
        if !w.is_finite() {
            return Err(format!("{what} holds a non-finite weight"));
        }
        if let Some(&(pp, pk, _)) = out.last() {
            if (pp, pk) >= (path, key) {
                return Err(format!("{what} entries are not strictly sorted"));
            }
        }
        out.push((path, key, w));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::{train_resumable, CrfConfig, TrainControl, TrainOutcome};
    use crate::{Instance, Node};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn world(n: usize, seed: u64) -> Vec<Instance> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let path = rng.gen_range(0..12u32);
                let mut inst =
                    Instance::new(vec![Node::unknown(path % 4), Node::known(4 + path % 3)]);
                inst.add_pair(0, 1, path);
                inst.add_unary(0, path % 5);
                inst
            })
            .collect()
    }

    fn mid_epoch_state(instances: &[Instance]) -> TrainState {
        let calls = std::cell::Cell::new(0usize);
        let stop = move || {
            calls.set(calls.get() + 1);
            calls.get() > 150
        };
        match train_resumable(
            instances,
            7,
            &CrfConfig::default(),
            TrainControl {
                interrupt: Some(&stop),
                ..TrainControl::default()
            },
        )
        .unwrap()
        {
            TrainOutcome::Interrupted(state) => *state,
            TrainOutcome::Completed(_) => panic!("interrupt never fired"),
        }
    }

    #[test]
    fn round_trip_is_exact_and_byte_stable() {
        let state = mid_epoch_state(&world(90, 7));
        let bytes = encode_checkpoint(&state);
        assert!(is_checkpoint(&bytes));
        let back = decode_checkpoint(&bytes).unwrap();
        assert_eq!(encode_checkpoint(&back), bytes);
        // Resuming from the decoded state matches the uninterrupted run.
        let corpus = world(90, 7);
        let baseline = crate::train(&corpus, 7, &CrfConfig::default());
        let resumed = match train_resumable(
            &corpus,
            7,
            &CrfConfig::default(),
            TrainControl {
                resume: Some(back),
                ..TrainControl::default()
            },
        )
        .unwrap()
        {
            TrainOutcome::Completed(m) => *m,
            TrainOutcome::Interrupted(_) => panic!("no interrupt installed"),
        };
        assert_eq!(baseline.to_json().unwrap(), resumed.to_json().unwrap());
    }

    #[test]
    fn a_checkpoint_without_the_content_hash_decodes_but_never_resumes() {
        let corpus = world(90, 13);
        let mut state = mid_epoch_state(&corpus);
        assert!(state.fingerprint.content_hash.is_some());
        // The layout before the hash: one `ck-meta` scalar fewer.
        state.fingerprint.content_hash = None;
        let bytes = encode_checkpoint(&state);
        let back = decode_checkpoint(&bytes).unwrap();
        assert_eq!(back.fingerprint.content_hash, None);
        assert_eq!(encode_checkpoint(&back), bytes);
        let err = train_resumable(
            &corpus,
            7,
            &CrfConfig::default(),
            TrainControl {
                resume: Some(back),
                ..TrainControl::default()
            },
        )
        .unwrap_err();
        assert!(err.contains("no corpus content hash"), "{err}");
    }

    #[test]
    fn model_readers_reject_checkpoints_and_vice_versa() {
        let bytes = encode_checkpoint(&mid_epoch_state(&world(40, 9)));
        let err = crate::artifact::read_artifact(&bytes).unwrap_err();
        assert!(err.contains("checkpoint"), "unexpected error: {err}");
        let model = crate::train(&world(40, 9), 7, &CrfConfig::default());
        // A model artifact is not a checkpoint.
        let vocab: Vec<String> = (0..7).map(|i| format!("l{i}")).collect();
        let feats: Vec<String> = (0..12).map(|i| format!("f{i}")).collect();
        let meta = crate::artifact::ArtifactMeta {
            language: "JavaScript".into(),
            target: "variable".into(),
            abstraction: "full".into(),
            max_length: 4,
            max_width: 3,
            semi_paths: false,
            top_k: 8,
            dataflow_contexts: false,
        };
        let art =
            crate::artifact::write_artifact(&meta, &vocab, &feats, &model, Quant::F32).unwrap();
        let err = decode_checkpoint(&art).unwrap_err();
        assert!(err.contains("model"), "unexpected error: {err}");
    }

    #[test]
    fn corruption_is_a_coded_error_never_a_panic() {
        let bytes = encode_checkpoint(&mid_epoch_state(&world(60, 11)));
        // Truncations at every boundary-ish length.
        for len in [0, 3, 16, 31, 32, 63, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_checkpoint(&bytes[..len]).is_err(), "len {len}");
        }
        // Single-byte flips across the whole file.
        for i in (0..bytes.len()).step_by(7) {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(decode_checkpoint(&bad).is_err(), "flip at {i}");
        }
    }
}
