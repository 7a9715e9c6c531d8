//! The compiled binary model artifact (`.pgnc`).
//!
//! JSON model files are the archival format: editable, diffable, and
//! carrying the full entry tables. Serving replicas want the opposite
//! trade — the model's packed CSR tables ([`crate::engine`]) written
//! flat, so a cold start is one read plus a handful of bulk array
//! decodes with no per-entry allocation, hashing, or sorting. This module
//! defines that format:
//!
//! ```text
//! header   (32 bytes)  magic "PGNC" · version u32 · quant u32 ·
//!                      section_count u32 · file checksum u64 ·
//!                      reserved u64
//! table    (32 bytes per section)  id u32 · reserved u32 ·
//!                      offset u64 · len u64 · payload checksum u64
//! payloads 8-byte aligned, zero-padded between sections
//! ```
//!
//! All integers are little-endian. The file checksum (FNV-1a-64) covers
//! every byte of the file except itself — header prefix, section table,
//! payloads *and* padding — so any single flipped bit anywhere in the
//! file is detected; the per-section checksums localise the damage for
//! `pigeon audit`.
//! Sections hold the CSR arrays verbatim (`offsets`/`keys`/`weights`
//! per weight table, `offsets`/`entries`/`labels` for candidates), the
//! label-count and vocabulary tables, and a small metadata section the
//! facade fills in. Eight-byte alignment keeps the door open for
//! true zero-copy (mmap + cast) loading later without a format bump.
//!
//! Weights may be quantized: `f16` halves the weight sections, `i8`
//! quarters them with one scale per path. Scales are the smallest
//! power of two `p` with `max|w|/p < 127.5`, which makes dequantization
//! (`q · p`) exact in `f32` and guarantees the per-path maximum
//! quantized magnitude is ≥ 64 — so re-encoding a loaded artifact
//! recomputes the identical scale, and compile → load → recompile is
//! byte-identical for every quantization mode (property-tested in
//! `tests/artifact.rs`).
//!
//! The sections are the model's own packed arrays, so a load fills the
//! same [`CrfModel`] tables training and JSON loading build — except the
//! candidate co-occurrence counts, which the format does not carry.
//!
//! Decoding trusts nothing: magic, version, section bounds, checksums,
//! CSR monotonicity and key ordering are checked here, then
//! [`CrfModel::validate`] checks id ranges against the shipped
//! vocabularies, weight finiteness and the inference-cap bounds — the
//! same checks a JSON load runs. Every failure is an `Err` — never a
//! panic — on truncated or bit-flipped input.

use crate::engine::{PackedCandidates, PackedWeights};
use crate::model::CrfModel;
use pigeon_core::{fnv64, Fnv64};

/// The four magic bytes every artifact starts with.
pub const MAGIC: [u8; 4] = *b"PGNC";

/// Current format version. Readers reject other versions outright: the
/// format is flat enough that cross-version migration is `pigeon
/// compile` run again from the JSON model.
pub const VERSION: u32 = 1;

/// Fixed header length in bytes.
pub const HEADER_LEN: usize = 32;

/// Length of one section-table entry in bytes.
pub const TABLE_ENTRY_LEN: usize = 32;

/// Hard cap on the section count a reader will accept — far above what
/// the format defines, but low enough that a corrupted count cannot
/// drive a pathological table allocation.
pub const MAX_SECTIONS: u32 = 64;

// Section ids. Gaps are reserved for future sections.
/// Facade metadata: language/target/abstraction strings + extraction limits.
pub const SEC_META: u32 = 1;
/// Label vocabulary string table, interner order.
pub const SEC_LABELS: u32 = 2;
/// Feature vocabulary string table, interner order.
pub const SEC_FEATURES: u32 = 3;
/// `u32` training frequency per label id.
pub const SEC_LABEL_COUNTS: u32 = 4;
/// `u32` global fallback candidate labels, most frequent first.
pub const SEC_GLOBAL_CANDIDATES: u32 = 5;
/// Pairwise CSR offsets (`u32`, one per path id + 1).
pub const SEC_PAIR_OFFSETS: u32 = 6;
/// Pairwise packed keys (`u64 = label_a << 32 | label_b`), sorted per path.
pub const SEC_PAIR_KEYS: u32 = 7;
/// Pairwise weights (`f32`/`f16`/`i8` per the header's quant mode).
pub const SEC_PAIR_WEIGHTS: u32 = 8;
/// Per-path `f32` dequantization scales (present only under `i8`).
pub const SEC_PAIR_SCALES: u32 = 9;
/// Unary CSR offsets.
pub const SEC_UNARY_OFFSETS: u32 = 10;
/// Unary keys (`u64 = label`), sorted per path.
pub const SEC_UNARY_KEYS: u32 = 11;
/// Unary weights.
pub const SEC_UNARY_WEIGHTS: u32 = 12;
/// Per-path unary scales (present only under `i8`).
pub const SEC_UNARY_SCALES: u32 = 13;
/// Candidate CSR offsets.
pub const SEC_CAND_OFFSETS: u32 = 14;
/// Candidate entries: `u64 key (other_label << 1 | side)` + `u32 start`
/// + `u32 len` into the candidate label pool, sorted by key per path.
pub const SEC_CAND_ENTRIES: u32 = 15;
/// Candidate label pool (`u32`, frequency-ranked within each entry).
pub const SEC_CAND_LABELS: u32 = 16;
/// Inference caps: `u64 max_candidates` + `u64 max_passes`.
pub const SEC_CAPS: u32 = 17;

// Checkpoint sections (containers of kind [`KIND_CHECKPOINT`]; see
// `crate::checkpoint`).
/// Checkpoint scalar state: fingerprint, epoch, position, RNG state.
pub const SEC_CK_META: u32 = 40;
/// Shuffle order for the checkpointed epoch (`u32` per instance).
pub const SEC_CK_ORDER: u32 = 41;
/// Live pairwise weights: `u32 path` + `u64 key` + `u32 f32-bits` each.
pub const SEC_CK_PAIR: u32 = 42;
/// Live unary weights, same layout as [`SEC_CK_PAIR`].
pub const SEC_CK_UNARY: u32 = 43;
/// Epoch-average pair sums: `u32 path,a,b,pad` + `u64 f64-bits` each.
pub const SEC_CK_PAIR_SUM: u32 = 44;
/// Epoch-average unary sums: `u32 path,label` + `u64 f64-bits` each.
pub const SEC_CK_UNARY_SUM: u32 = 45;

// Training-partial sections (containers of kind [`KIND_PARTIAL`];
// see `pigeon_eval::partial`).
/// Shard metadata: extraction config fingerprint + shard coordinates.
pub const SEC_PT_META: u32 = 60;
/// Per-document records of the retired layout, which also carried each
/// document's statistics; recognised only so a decoder can refuse such a
/// file by name.
pub const SEC_PT_DOCS_V1: u32 = 61;
/// Per-document records: global index, local vocabularies, instance.
pub const SEC_PT_DOCS: u32 = 62;

// Container kinds, recorded at header bytes 24..28 (formerly reserved,
// so every pre-kind artifact reads as a model).
/// A compiled model artifact ([`read_artifact`]).
pub const KIND_MODEL: u32 = 0;
/// A training partial (`pigeon train --emit-partial`).
pub const KIND_PARTIAL: u32 = 1;
/// An SGD checkpoint (`pigeon train --checkpoint-dir`).
pub const KIND_CHECKPOINT: u32 = 2;

/// Human-readable name of a container kind, for diagnostics.
pub fn kind_name(kind: u32) -> &'static str {
    match kind {
        KIND_MODEL => "model",
        KIND_PARTIAL => "partial",
        KIND_CHECKPOINT => "checkpoint",
        _ => "unknown",
    }
}

/// The container kind of `bytes`, if it carries the artifact magic and
/// a full header — the sniff `pigeon audit` dispatches on. Content
/// validation still goes through [`Reader::parse`].
pub fn container_kind(bytes: &[u8]) -> Option<u32> {
    if !is_artifact(bytes) || bytes.len() < HEADER_LEN {
        return None;
    }
    Some(u32::from_le_bytes([
        bytes[24], bytes[25], bytes[26], bytes[27],
    ]))
}

/// Human-readable name of a section id, for diagnostics.
pub fn section_name(id: u32) -> &'static str {
    match id {
        SEC_META => "meta",
        SEC_LABELS => "labels",
        SEC_FEATURES => "features",
        SEC_LABEL_COUNTS => "label-counts",
        SEC_GLOBAL_CANDIDATES => "global-candidates",
        SEC_PAIR_OFFSETS => "pair-offsets",
        SEC_PAIR_KEYS => "pair-keys",
        SEC_PAIR_WEIGHTS => "pair-weights",
        SEC_PAIR_SCALES => "pair-scales",
        SEC_UNARY_OFFSETS => "unary-offsets",
        SEC_UNARY_KEYS => "unary-keys",
        SEC_UNARY_WEIGHTS => "unary-weights",
        SEC_UNARY_SCALES => "unary-scales",
        SEC_CAND_OFFSETS => "cand-offsets",
        SEC_CAND_ENTRIES => "cand-entries",
        SEC_CAND_LABELS => "cand-labels",
        SEC_CAPS => "caps",
        SEC_CK_META => "ck-meta",
        SEC_CK_ORDER => "ck-order",
        SEC_CK_PAIR => "ck-pair",
        SEC_CK_UNARY => "ck-unary",
        SEC_CK_PAIR_SUM => "ck-pair-sum",
        SEC_CK_UNARY_SUM => "ck-unary-sum",
        SEC_PT_META => "pt-meta",
        SEC_PT_DOCS_V1 => "pt-docs-v1",
        SEC_PT_DOCS => "pt-docs",
        _ => "unknown",
    }
}

/// FNV-1a-64 over `bytes` — the artifact's checksum function. Public so
/// tests can forge otherwise-consistent corrupted files and assert the
/// deeper validation layers fire.
pub fn checksum(bytes: &[u8]) -> u64 {
    fnv64(bytes)
}

/// The whole-file checksum: FNV-1a-64 over the complete file with the
/// checksum field itself (bytes 16..24) read as zero, so *every* other
/// byte — header prefix, section table, payloads and padding — is
/// covered and any single flipped bit is detected. Public for tests
/// that forge corrupted-but-consistent files.
pub fn file_checksum(data: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(&data[..16]);
    h.write(&[0u8; 8]);
    h.write(&data[24..]);
    h.finish()
}

/// Weight quantization mode, recorded in the header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quant {
    /// Full-precision `f32` weights (the default).
    F32,
    /// IEEE 754 half-precision weights: half the bytes, exact for the
    /// weight magnitudes CRF training produces far more often than not.
    F16,
    /// Signed-byte weights with one power-of-two scale per path:
    /// quarter the bytes.
    I8,
}

impl Quant {
    /// Parses a `--quantize` flag value.
    pub fn from_name(name: &str) -> Option<Quant> {
        match name {
            "f32" => Some(Quant::F32),
            "f16" => Some(Quant::F16),
            "i8" => Some(Quant::I8),
            _ => None,
        }
    }

    /// The flag-value spelling of this mode.
    pub fn name(self) -> &'static str {
        match self {
            Quant::F32 => "f32",
            Quant::F16 => "f16",
            Quant::I8 => "i8",
        }
    }

    fn tag(self) -> u32 {
        match self {
            Quant::F32 => 0,
            Quant::F16 => 1,
            Quant::I8 => 2,
        }
    }

    fn from_tag(tag: u32) -> Option<Quant> {
        match tag {
            0 => Some(Quant::F32),
            1 => Some(Quant::F16),
            2 => Some(Quant::I8),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Bulk codecs. Decoding copies (chunked `from_le_bytes`) rather than
// casting in place: safe on any alignment and endianness, one
// allocation per section, and the compiler vectorises the loop.

/// Encodes a `u32` slice little-endian.
pub fn encode_u32s(values: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 4);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Decodes a little-endian `u32` section.
pub fn decode_u32s(bytes: &[u8], what: &str) -> Result<Vec<u32>, String> {
    if !bytes.len().is_multiple_of(4) {
        return Err(format!(
            "{what} section length {} is not a multiple of 4",
            bytes.len()
        ));
    }
    Ok(bytes
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect())
}

/// Encodes a `u64` slice little-endian.
pub fn encode_u64s(values: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 8);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Decodes a little-endian `u64` section.
pub fn decode_u64s(bytes: &[u8], what: &str) -> Result<Vec<u64>, String> {
    if !bytes.len().is_multiple_of(8) {
        return Err(format!(
            "{what} section length {} is not a multiple of 8",
            bytes.len()
        ));
    }
    Ok(bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]))
        .collect())
}

/// Encodes an `f32` slice little-endian.
pub fn encode_f32s(values: &[f32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 4);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Decodes a little-endian `f32` section.
pub fn decode_f32s(bytes: &[u8], what: &str) -> Result<Vec<f32>, String> {
    if !bytes.len().is_multiple_of(4) {
        return Err(format!(
            "{what} section length {} is not a multiple of 4",
            bytes.len()
        ));
    }
    Ok(bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect())
}

/// Encodes a string table: `u32` count, then `u32` byte length + UTF-8
/// bytes per string.
pub fn encode_strings<'a>(items: impl IntoIterator<Item = &'a str>) -> Vec<u8> {
    let mut body = Vec::new();
    let mut count = 0u32;
    for s in items {
        body.extend_from_slice(&(s.len() as u32).to_le_bytes());
        body.extend_from_slice(s.as_bytes());
        count += 1;
    }
    let mut out = Vec::with_capacity(4 + body.len());
    out.extend_from_slice(&count.to_le_bytes());
    out.extend_from_slice(&body);
    out
}

/// Decodes a string table, returning the strings and the unconsumed
/// remainder of the section (the meta section appends numeric fields
/// after its string table).
pub fn decode_strings<'a>(bytes: &'a [u8], what: &str) -> Result<(Vec<String>, &'a [u8]), String> {
    let truncated = || format!("{what} string table is truncated");
    let mut rest = bytes;
    let mut take = |n: usize| -> Result<&'a [u8], String> {
        if rest.len() < n {
            return Err(truncated());
        }
        let (head, tail) = rest.split_at(n);
        rest = tail;
        Ok(head)
    };
    let count = take(4).map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))?;
    // Each string costs at least its 4-byte length prefix, so `count`
    // is bounded by the section length — reject before allocating.
    if count as usize > bytes.len() / 4 {
        return Err(format!("{what} string table claims {count} entries"));
    }
    let mut out = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let len = take(4).map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))? as usize;
        let raw = take(len)?;
        let s = std::str::from_utf8(raw)
            .map_err(|_| format!("{what} string table entry is not UTF-8"))?;
        out.push(s.to_owned());
    }
    Ok((out, rest))
}

// ---------------------------------------------------------------------------
// Half-precision conversion (hand-written; no half-float dependency).

/// `f16` bits → `f32`, exact for every finite half value.
pub fn f16_to_f32(h: u16) -> f32 {
    let sign = u32::from(h >> 15);
    let exp = u32::from((h >> 10) & 0x1f);
    let man = u32::from(h & 0x3ff);
    let bits = if exp == 0 {
        if man == 0 {
            sign << 31
        } else {
            // Subnormal: value = man · 2⁻²⁴ (exact in f32).
            let v = man as f32 * f32::from_bits(0x3380_0000); // 2^-24
            return if sign == 1 { -v } else { v };
        }
    } else if exp == 0x1f {
        (sign << 31) | 0x7f80_0000 | (man << 13)
    } else {
        (sign << 31) | ((exp + 112) << 23) | (man << 13)
    };
    f32::from_bits(bits)
}

/// `f32` → nearest `f16` bits (round-to-nearest-even). Values beyond
/// the half range become ±inf; callers reject those at encode time.
pub fn f32_to_f16(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xff) as i32;
    let man = bits & 0x007f_ffff;
    if exp == 0xff {
        // Inf or NaN; keep NaN-ness in the payload bit.
        return sign | 0x7c00 | u16::from(man != 0) << 9;
    }
    let e = exp - 127 + 15;
    if e >= 0x1f {
        return sign | 0x7c00; // overflow → inf
    }
    if e <= 0 {
        if e < -10 {
            return sign; // underflow → signed zero
        }
        // Subnormal half: shift the full 24-bit significand down.
        let full = man | 0x0080_0000;
        let shift = (14 - e) as u32;
        let half = full >> shift;
        let rem = full & ((1u32 << shift) - 1);
        let halfway = 1u32 << (shift - 1);
        let rounded = half + u32::from(rem > halfway || (rem == halfway && half & 1 == 1));
        return sign | rounded as u16;
    }
    let half = ((e as u32) << 10) | (man >> 13);
    let rem = man & 0x1fff;
    // Round half to even; a mantissa carry correctly bumps the exponent.
    let rounded = half + u32::from(rem > 0x1000 || (rem == 0x1000 && half & 1 == 1));
    sign | rounded as u16
}

/// The smallest power of two `p` with `max_abs / p < 127.5` — the i8
/// scale for one path. Power-of-two scales make `q · p` exact in `f32`
/// and pin the largest quantized magnitude into `[64, 127]`, so
/// re-encoding a dequantized table recomputes the identical scale
/// (byte-identity of compile → load → recompile).
fn pow2_scale(max_abs: f32) -> f32 {
    if max_abs == 0.0 {
        return 1.0;
    }
    let mut p = 1.0f32;
    while max_abs / p >= 127.5 {
        p *= 2.0;
    }
    while p > f32::MIN_POSITIVE && max_abs / (p * 0.5) < 127.5 {
        p *= 0.5;
    }
    p
}

// ---------------------------------------------------------------------------
// Container writer / reader.

/// Assembles an artifact from sections. The facade and `pigeon compile`
/// drive this through [`write_artifact`]; it is public for tests that
/// need to forge malformed files.
#[derive(Debug, Default)]
pub struct Writer {
    sections: Vec<(u32, Vec<u8>)>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// Appends one section. Order is preserved in the file.
    pub fn section(&mut self, id: u32, payload: Vec<u8>) {
        self.sections.push((id, payload));
    }

    /// Serialises header + table + 8-byte-aligned payloads and fills in
    /// every checksum. The container kind is [`KIND_MODEL`].
    pub fn finish(self, quant: Quant) -> Vec<u8> {
        self.finish_kind(quant, KIND_MODEL)
    }

    /// [`Self::finish`] with an explicit container kind (header bytes
    /// 24..28) — partials and checkpoints share the container but must
    /// never be mistaken for models.
    pub fn finish_kind(self, quant: Quant, kind: u32) -> Vec<u8> {
        let table_end = HEADER_LEN + self.sections.len() * TABLE_ENTRY_LEN;
        // Lay out payloads first: offset of each, 8-byte aligned.
        let mut offsets = Vec::with_capacity(self.sections.len());
        let mut cursor = table_end;
        for (_, payload) in &self.sections {
            cursor = (cursor + 7) & !7;
            offsets.push(cursor);
            cursor += payload.len();
        }
        let mut out = vec![0u8; cursor];
        out[0..4].copy_from_slice(&MAGIC);
        out[4..8].copy_from_slice(&VERSION.to_le_bytes());
        out[8..12].copy_from_slice(&quant.tag().to_le_bytes());
        out[12..16].copy_from_slice(&(self.sections.len() as u32).to_le_bytes());
        // out[16..24] = file checksum, patched last.
        out[24..28].copy_from_slice(&kind.to_le_bytes());
        // out[28..32] reserved.
        for (i, (id, payload)) in self.sections.iter().enumerate() {
            let entry = HEADER_LEN + i * TABLE_ENTRY_LEN;
            out[entry..entry + 4].copy_from_slice(&id.to_le_bytes());
            out[entry + 8..entry + 16].copy_from_slice(&(offsets[i] as u64).to_le_bytes());
            out[entry + 16..entry + 24].copy_from_slice(&(payload.len() as u64).to_le_bytes());
            out[entry + 24..entry + 32].copy_from_slice(&checksum(payload).to_le_bytes());
            out[offsets[i]..offsets[i] + payload.len()].copy_from_slice(payload);
        }
        let file_sum = file_checksum(&out);
        out[16..24].copy_from_slice(&file_sum.to_le_bytes());
        out
    }
}

/// Location of one section inside a parsed artifact, for audit output.
#[derive(Debug, Clone, Copy)]
pub struct SectionInfo {
    /// Section id (`SEC_*`).
    pub id: u32,
    /// Human-readable name of the id.
    pub name: &'static str,
    /// Absolute byte offset of the payload.
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u64,
}

/// A parsed artifact container: header fields verified, every section
/// bounds-checked and checksummed. Section *contents* are validated by
/// [`read_artifact`].
#[derive(Debug)]
pub struct Reader<'a> {
    data: &'a [u8],
    quant: Quant,
    kind: u32,
    sections: Vec<(u32, usize, usize)>,
}

impl<'a> Reader<'a> {
    /// Parses and verifies the container.
    ///
    /// # Errors
    ///
    /// A message naming the first container-level problem: bad magic,
    /// unsupported version, unknown quant mode, out-of-bounds section,
    /// duplicate section id, or a checksum mismatch.
    pub fn parse(data: &'a [u8]) -> Result<Reader<'a>, String> {
        if data.len() < HEADER_LEN {
            return Err(format!(
                "file is {} bytes, shorter than the {HEADER_LEN}-byte header",
                data.len()
            ));
        }
        if data[0..4] != MAGIC {
            return Err("bad magic: not a pigeon compiled model artifact".into());
        }
        let u32_at =
            |i: usize| u32::from_le_bytes([data[i], data[i + 1], data[i + 2], data[i + 3]]);
        let u64_at = |i: usize| {
            let mut b = [0u8; 8];
            b.copy_from_slice(&data[i..i + 8]);
            u64::from_le_bytes(b)
        };
        let version = u32_at(4);
        if version != VERSION {
            return Err(format!(
                "unsupported artifact version {version} (this build reads version {VERSION}); \
                 re-run `pigeon compile` against the JSON model"
            ));
        }
        let quant = Quant::from_tag(u32_at(8))
            .ok_or_else(|| format!("unknown quantization mode tag {}", u32_at(8)))?;
        let count = u32_at(12);
        if count > MAX_SECTIONS {
            return Err(format!(
                "section count {count} exceeds the format maximum of {MAX_SECTIONS}"
            ));
        }
        let table_end = HEADER_LEN + count as usize * TABLE_ENTRY_LEN;
        if data.len() < table_end {
            return Err(format!(
                "file is {} bytes, too short for a {count}-section table",
                data.len()
            ));
        }
        if u64_at(16) != file_checksum(data) {
            return Err("file checksum mismatch: the artifact is corrupted".into());
        }
        let mut sections = Vec::with_capacity(count as usize);
        for i in 0..count as usize {
            let entry = HEADER_LEN + i * TABLE_ENTRY_LEN;
            let id = u32_at(entry);
            let offset = u64_at(entry + 8);
            let len = u64_at(entry + 16);
            let end = offset
                .checked_add(len)
                .filter(|&e| e <= data.len() as u64 && offset >= table_end as u64)
                .ok_or_else(|| {
                    format!(
                        "section {} ({}) spans bytes {offset}..{} outside the \
                         {}-byte file",
                        id,
                        section_name(id),
                        offset.saturating_add(len),
                        data.len()
                    )
                })?;
            if sections.iter().any(|&(other, _, _)| other == id) {
                return Err(format!("duplicate section id {id} ({})", section_name(id)));
            }
            let payload = &data[offset as usize..end as usize];
            if u64_at(entry + 24) != checksum(payload) {
                return Err(format!(
                    "section {} ({}) checksum mismatch: the artifact is corrupted",
                    id,
                    section_name(id)
                ));
            }
            sections.push((id, offset as usize, len as usize));
        }
        Ok(Reader {
            data,
            quant,
            kind: u32::from_le_bytes([data[24], data[25], data[26], data[27]]),
            sections,
        })
    }

    /// The header's quantization mode.
    pub fn quant(&self) -> Quant {
        self.quant
    }

    /// The header's container kind (`KIND_*`).
    pub fn kind(&self) -> u32 {
        self.kind
    }

    /// Section table, in file order.
    pub fn sections(&self) -> Vec<SectionInfo> {
        self.sections
            .iter()
            .map(|&(id, offset, len)| SectionInfo {
                id,
                name: section_name(id),
                offset: offset as u64,
                len: len as u64,
            })
            .collect()
    }

    /// The payload of section `id`.
    ///
    /// # Errors
    ///
    /// When the artifact has no such section.
    pub fn section(&self, id: u32) -> Result<&'a [u8], String> {
        self.sections
            .iter()
            .find(|&&(other, _, _)| other == id)
            .map(|&(_, offset, len)| &self.data[offset..offset + len])
            .ok_or_else(|| format!("missing section {id} ({})", section_name(id)))
    }
}

/// `true` when `bytes` starts with the artifact magic — the content
/// sniff `pigeon serve` and the CLI use to pick the load path.
pub fn is_artifact(bytes: &[u8]) -> bool {
    bytes.len() >= MAGIC.len() && bytes[..MAGIC.len()] == MAGIC
}

// ---------------------------------------------------------------------------
// Model-level encode / decode.

/// A predictor's header: the eight settings every persisted form of it
/// carries — the artifact's meta section, the model JSON's top-level
/// keys, a training partial's meta and a distributed-training lease.
/// Names stay plain strings so this crate stays representation-agnostic;
/// the facade resolves a header into its own types through one
/// validating resolver (and rejects unknown names and unusable limits).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArtifactMeta {
    /// Language name (`Language::name`).
    pub language: String,
    /// Prediction target: `variables` / `methods` / `other`.
    pub target: String,
    /// Path abstraction name (`Abstraction::name`).
    pub abstraction: String,
    /// Extraction limit: maximum path length.
    pub max_length: u32,
    /// Extraction limit: maximum path width.
    pub max_width: u32,
    /// Whether semi-paths were extracted.
    pub semi_paths: bool,
    /// Candidates returned per prediction.
    pub top_k: u32,
    /// Whether edge-typed data-flow path-contexts were extracted.
    /// Encoded as a fifth meta number **only when set**, so artifacts
    /// written with the knob off are byte-identical to pre-knob files
    /// and old readers only reject files that actually need the flag.
    pub dataflow_contexts: bool,
}

impl ArtifactMeta {
    /// The header as JSON object entries, keyed by field name.
    /// `dataflow_contexts` appears only when set, so knob-off model files
    /// stay byte-identical to files written before the knob existed.
    pub fn to_json(&self) -> serde_json::Map {
        let serde_json::Value::Object(mut object) = serde_json::json!({
            "language": self.language,
            "target": self.target,
            "abstraction": self.abstraction,
            "max_length": self.max_length,
            "max_width": self.max_width,
            "semi_paths": self.semi_paths,
            "top_k": self.top_k,
        }) else {
            unreachable!("json! builds an object from an object literal")
        };
        if self.dataflow_contexts {
            object.insert("dataflow_contexts".to_owned(), serde_json::json!(true));
        }
        object
    }

    /// Reads a header back from the keys [`ArtifactMeta::to_json`]
    /// writes, ignoring any others. An absent flag is off, as in files
    /// written before it existed.
    ///
    /// # Errors
    ///
    /// A message naming the first missing or mistyped field.
    pub fn from_json(object: &serde_json::Value) -> Result<ArtifactMeta, String> {
        let invalid = |key: &str| format!("missing or invalid field `{key}`");
        let string = |key: &str| {
            let value = object.get(key).and_then(|v| v.as_str());
            value.map(str::to_owned).ok_or_else(|| invalid(key))
        };
        let number = |key: &str| {
            let value = object.get(key).and_then(|v| v.as_u64());
            value
                .and_then(|n| u32::try_from(n).ok())
                .ok_or_else(|| invalid(key))
        };
        let flag = |key: &str| {
            let value = object.get(key).map_or(Some(false), |v| v.as_bool());
            value.ok_or_else(|| invalid(key))
        };
        Ok(ArtifactMeta {
            language: string("language")?,
            target: string("target")?,
            abstraction: string("abstraction")?,
            max_length: number("max_length")?,
            max_width: number("max_width")?,
            semi_paths: flag("semi_paths")?,
            top_k: number("top_k")?,
            dataflow_contexts: flag("dataflow_contexts")?,
        })
    }
}

/// A fully decoded artifact: metadata, vocabularies, and a validated
/// [`CrfModel`] ready for inference.
#[derive(Debug)]
pub struct ModelArtifact {
    /// Facade metadata.
    pub meta: ArtifactMeta,
    /// Label vocabulary, id order.
    pub labels: Vec<String>,
    /// Feature vocabulary, id order.
    pub features: Vec<String>,
    /// The weight quantization the file used.
    pub quant: Quant,
    /// The loaded model, without candidate counts
    /// (`CrfModel::has_candidate_counts() == false` unless it has no
    /// candidates at all).
    pub model: CrfModel,
}

fn encode_weights(
    w: &mut Writer,
    weights_id: u32,
    scales_id: u32,
    table: &PackedWeights,
    quant: Quant,
) -> Result<(), String> {
    let what = section_name(weights_id);
    for (i, &v) in table.weights.iter().enumerate() {
        if !v.is_finite() {
            return Err(format!("{what}: weight {i} is non-finite ({v})"));
        }
    }
    match quant {
        Quant::F32 => w.section(weights_id, encode_f32s(&table.weights)),
        Quant::F16 => {
            let mut out = Vec::with_capacity(table.weights.len() * 2);
            for &v in &table.weights {
                let h = f32_to_f16(v);
                if !f16_to_f32(h).is_finite() {
                    return Err(format!(
                        "{what}: weight {v} exceeds the f16 range; \
                         compile with f32 or i8 quantization"
                    ));
                }
                out.extend_from_slice(&h.to_le_bytes());
            }
            w.section(weights_id, out);
        }
        Quant::I8 => {
            let num_paths = table.offsets.len().saturating_sub(1);
            let mut scales = Vec::with_capacity(num_paths);
            let mut out = Vec::with_capacity(table.weights.len());
            for p in 0..num_paths {
                let (s, e) = (table.offsets[p] as usize, table.offsets[p + 1] as usize);
                let max_abs = table.weights[s..e]
                    .iter()
                    .fold(0.0f32, |m, v| m.max(v.abs()));
                let scale = pow2_scale(max_abs);
                scales.push(scale);
                for &v in &table.weights[s..e] {
                    let q = (v / scale).round().clamp(-127.0, 127.0) as i8;
                    out.push(q as u8);
                }
            }
            w.section(weights_id, out);
            w.section(scales_id, encode_f32s(&scales));
        }
    }
    Ok(())
}

fn decode_weights(
    r: &Reader,
    weights_id: u32,
    scales_id: u32,
    num_paths: usize,
    offsets: &[u32],
) -> Result<Vec<f32>, String> {
    let what = section_name(weights_id);
    let bytes = r.section(weights_id)?;
    let weights = match r.quant() {
        Quant::F32 => decode_f32s(bytes, what)?,
        Quant::F16 => {
            if !bytes.len().is_multiple_of(2) {
                return Err(format!(
                    "{what} section length {} is not a multiple of 2",
                    bytes.len()
                ));
            }
            bytes
                .chunks_exact(2)
                .map(|c| f16_to_f32(u16::from_le_bytes([c[0], c[1]])))
                .collect()
        }
        Quant::I8 => {
            let scales = decode_f32s(r.section(scales_id)?, section_name(scales_id))?;
            if scales.len() != num_paths {
                return Err(format!(
                    "{} holds {} scales for {num_paths} paths",
                    section_name(scales_id),
                    scales.len()
                ));
            }
            for (p, &s) in scales.iter().enumerate() {
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!(
                        "{} scale for path {p} is {s}, not a positive finite value",
                        section_name(scales_id)
                    ));
                }
            }
            // The offsets end at the key count (checked before this
            // call); one byte per key keeps every slice below in bounds.
            let num_keys = offsets[num_paths] as usize;
            if bytes.len() != num_keys {
                return Err(format!(
                    "{what} holds {} entries for {num_keys} keys",
                    bytes.len()
                ));
            }
            let mut out = Vec::with_capacity(bytes.len());
            for p in 0..num_paths {
                let (s, e) = (offsets[p] as usize, offsets[p + 1] as usize);
                for &q in &bytes[s..e] {
                    out.push(f32::from(q as i8) * scales[p]);
                }
            }
            out
        }
    };
    Ok(weights)
}

/// Checks one CSR offsets array: starts at 0, monotone, and ends at
/// `num_entries`.
fn check_offsets(offsets: &[u32], num_entries: usize, what: &str) -> Result<(), String> {
    if offsets.is_empty() || offsets[0] != 0 {
        return Err(format!("{what} must start with offset 0"));
    }
    for w in offsets.windows(2) {
        if w[1] < w[0] {
            return Err(format!("{what} is not monotone"));
        }
    }
    if *offsets.last().expect("non-empty checked above") as usize != num_entries {
        return Err(format!(
            "{what} ends at {}, but the table holds {num_entries} entries",
            offsets.last().expect("non-empty checked above")
        ));
    }
    Ok(())
}

/// Checks per-path key slices are strictly increasing (the binary
/// search the engine runs requires it; equal keys would be the binary
/// form of the duplicate-entry corruption the JSON loader rejects).
fn check_sorted_keys(offsets: &[u32], keys: &[u64], what: &str) -> Result<(), String> {
    for p in 0..offsets.len() - 1 {
        let slice = &keys[offsets[p] as usize..offsets[p + 1] as usize];
        for w in slice.windows(2) {
            if w[1] <= w[0] {
                return Err(format!(
                    "{what}: keys for path {p} are not strictly increasing \
                     (duplicate or unsorted entry)"
                ));
            }
        }
    }
    Ok(())
}

/// Decodes one weight table's offsets, keys and (dequantized) weights,
/// checking its CSR structure.
fn decode_weight_table(
    r: &Reader,
    [offsets_id, keys_id, weights_id, scales_id]: [u32; 4],
) -> Result<PackedWeights, String> {
    let offsets = decode_u32s(r.section(offsets_id)?, section_name(offsets_id))?;
    let keys = decode_u64s(r.section(keys_id)?, section_name(keys_id))?;
    check_offsets(&offsets, keys.len(), section_name(offsets_id))?;
    check_sorted_keys(&offsets, &keys, section_name(keys_id))?;
    let weights = decode_weights(r, weights_id, scales_id, offsets.len() - 1, &offsets)?;
    if weights.len() != keys.len() {
        return Err(format!(
            "{} holds {} entries for {} keys",
            section_name(weights_id),
            weights.len(),
            keys.len()
        ));
    }
    Ok(PackedWeights {
        offsets,
        keys,
        weights,
    })
}

/// Encodes `model`'s packed tables plus facade metadata and
/// vocabularies into a complete artifact.
///
/// # Errors
///
/// When the model carries non-finite weights, or a weight exceeds the
/// `f16` range under `Quant::F16`.
pub fn write_artifact(
    meta: &ArtifactMeta,
    labels: &[String],
    features: &[String],
    model: &CrfModel,
    quant: Quant,
) -> Result<Vec<u8>, String> {
    let mut w = Writer::new();
    let mut meta_bytes = encode_strings([
        meta.language.as_str(),
        meta.target.as_str(),
        meta.abstraction.as_str(),
    ]);
    let mut meta_nums = vec![
        meta.max_length,
        meta.max_width,
        u32::from(meta.semi_paths),
        meta.top_k,
    ];
    if meta.dataflow_contexts {
        meta_nums.push(1);
    }
    meta_bytes.extend_from_slice(&encode_u32s(&meta_nums));
    w.section(SEC_META, meta_bytes);
    w.section(
        SEC_LABELS,
        encode_strings(labels.iter().map(String::as_str)),
    );
    w.section(
        SEC_FEATURES,
        encode_strings(features.iter().map(String::as_str)),
    );
    let shared = &model.shared;
    w.section(SEC_LABEL_COUNTS, encode_u32s(&shared.label_counts));
    w.section(
        SEC_GLOBAL_CANDIDATES,
        encode_u32s(&shared.global_candidates),
    );
    let pair = &model.pair;
    w.section(SEC_PAIR_OFFSETS, encode_u32s(&pair.offsets));
    w.section(SEC_PAIR_KEYS, encode_u64s(&pair.keys));
    encode_weights(&mut w, SEC_PAIR_WEIGHTS, SEC_PAIR_SCALES, pair, quant)?;
    let unary = &model.unary;
    w.section(SEC_UNARY_OFFSETS, encode_u32s(&unary.offsets));
    w.section(SEC_UNARY_KEYS, encode_u64s(&unary.keys));
    encode_weights(&mut w, SEC_UNARY_WEIGHTS, SEC_UNARY_SCALES, unary, quant)?;
    let cands = &shared.cands;
    w.section(SEC_CAND_OFFSETS, encode_u32s(&cands.offsets));
    let mut entry_bytes = Vec::with_capacity(cands.entries.len() * 16);
    for &(key, start, len) in &cands.entries {
        entry_bytes.extend_from_slice(&key.to_le_bytes());
        entry_bytes.extend_from_slice(&start.to_le_bytes());
        entry_bytes.extend_from_slice(&len.to_le_bytes());
    }
    w.section(SEC_CAND_ENTRIES, entry_bytes);
    w.section(SEC_CAND_LABELS, encode_u32s(&cands.labels));
    w.section(
        SEC_CAPS,
        encode_u64s(&[shared.max_candidates as u64, shared.max_passes as u64]),
    );
    Ok(w.finish(quant))
}

/// Decodes and fully validates an artifact produced by
/// [`write_artifact`].
///
/// # Errors
///
/// A message naming the first problem found, at any layer: container
/// (magic/version/bounds/checksums), section shape, CSR structure, or a
/// [`CrfModel::validate`] issue (id ranges against the shipped
/// vocabularies, non-finite weights, out-of-bounds inference caps).
/// Never panics on arbitrary input (fuzzed in `tests/artifact.rs`).
pub fn read_artifact(bytes: &[u8]) -> Result<ModelArtifact, String> {
    let r = Reader::parse(bytes)?;
    if r.kind() != KIND_MODEL {
        return Err(format!(
            "container holds a {} (kind {}), not a compiled model",
            kind_name(r.kind()),
            r.kind()
        ));
    }

    let meta_bytes = r.section(SEC_META)?;
    let (meta_strings, meta_rest) = decode_strings(meta_bytes, "meta")?;
    let [language, target, abstraction]: [String; 3] = meta_strings
        .try_into()
        .map_err(|_| "meta section must hold exactly 3 strings".to_string())?;
    let meta_nums = decode_u32s(meta_rest, "meta")?;
    // 4 numbers is the original layout; a 5th (data-flow contexts) is
    // appended only when the flag is set, keeping knob-off artifacts
    // byte-identical to files written before the flag existed.
    let [max_length, max_width, semi_paths, top_k, dataflow_contexts] = match meta_nums[..] {
        [a, b, c, d] => [a, b, c, d, 0],
        [a, b, c, d, e] => [a, b, c, d, e],
        _ => {
            return Err(format!(
                "meta section must hold 4 or 5 numeric fields, got {}",
                meta_nums.len()
            ))
        }
    };
    let meta = ArtifactMeta {
        language,
        target,
        abstraction,
        max_length,
        max_width,
        semi_paths: semi_paths != 0,
        top_k,
        dataflow_contexts: dataflow_contexts != 0,
    };

    let (labels, rest) = decode_strings(r.section(SEC_LABELS)?, "labels")?;
    if !rest.is_empty() {
        return Err("labels section has trailing bytes".into());
    }
    let (features, rest) = decode_strings(r.section(SEC_FEATURES)?, "features")?;
    if !rest.is_empty() {
        return Err("features section has trailing bytes".into());
    }
    let label_counts = decode_u32s(r.section(SEC_LABEL_COUNTS)?, "label-counts")?;
    let global_candidates = decode_u32s(r.section(SEC_GLOBAL_CANDIDATES)?, "global-candidates")?;
    let caps = decode_u64s(r.section(SEC_CAPS)?, "caps")?;
    let [max_candidates, max_passes]: [u64; 2] = caps
        .try_into()
        .map_err(|_| "caps section must hold exactly 2 fields".to_string())?;
    let pair = decode_weight_table(
        &r,
        [
            SEC_PAIR_OFFSETS,
            SEC_PAIR_KEYS,
            SEC_PAIR_WEIGHTS,
            SEC_PAIR_SCALES,
        ],
    )?;
    let unary = decode_weight_table(
        &r,
        [
            SEC_UNARY_OFFSETS,
            SEC_UNARY_KEYS,
            SEC_UNARY_WEIGHTS,
            SEC_UNARY_SCALES,
        ],
    )?;

    // Candidate index.
    let cand_offsets = decode_u32s(r.section(SEC_CAND_OFFSETS)?, "cand-offsets")?;
    let entry_bytes = r.section(SEC_CAND_ENTRIES)?;
    if !entry_bytes.len().is_multiple_of(16) {
        return Err(format!(
            "cand-entries section length {} is not a multiple of 16",
            entry_bytes.len()
        ));
    }
    let cand_entries: Vec<(u64, u32, u32)> = entry_bytes
        .chunks_exact(16)
        .map(|c| {
            let mut k = [0u8; 8];
            k.copy_from_slice(&c[0..8]);
            (
                u64::from_le_bytes(k),
                u32::from_le_bytes([c[8], c[9], c[10], c[11]]),
                u32::from_le_bytes([c[12], c[13], c[14], c[15]]),
            )
        })
        .collect();
    let cand_labels = decode_u32s(r.section(SEC_CAND_LABELS)?, "cand-labels")?;
    check_offsets(&cand_offsets, cand_entries.len(), "cand-offsets")?;
    let entry_keys: Vec<u64> = cand_entries.iter().map(|&(k, _, _)| k).collect();
    check_sorted_keys(&cand_offsets, &entry_keys, "cand-entries")?;
    for &(key, start, len) in &cand_entries {
        if u64::from(start) + u64::from(len) > cand_labels.len() as u64 {
            return Err(format!(
                "candidate entry with key {key} points at labels {start}..{} \
                 beyond the {}-entry label pool",
                u64::from(start) + u64::from(len),
                cand_labels.len()
            ));
        }
    }

    let model = CrfModel::from_parts(
        pair,
        unary,
        PackedCandidates {
            offsets: cand_offsets,
            entries: cand_entries,
            labels: cand_labels,
            counts: Vec::new(),
        },
        label_counts,
        global_candidates,
        max_candidates as usize,
        max_passes as usize,
    );
    model
        .validate(features.len(), labels.len())
        .map_err(|issue| issue.to_string())?;
    Ok(ModelArtifact {
        meta,
        labels,
        features,
        quant: r.quant(),
        model,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f16_round_trip_is_exact_for_every_half_value() {
        for h in 0..=u16::MAX {
            let f = f16_to_f32(h);
            if f.is_finite() {
                assert_eq!(f32_to_f16(f), h, "half bits {h:#06x} drifted");
            }
        }
    }

    #[test]
    fn f16_conversion_matches_known_values() {
        assert_eq!(f16_to_f32(0x3c00), 1.0);
        assert_eq!(f16_to_f32(0xc000), -2.0);
        assert_eq!(f16_to_f32(0x7bff), 65504.0);
        assert_eq!(f32_to_f16(0.5), 0x3800);
        assert_eq!(f32_to_f16(0.0), 0x0000);
        assert!(!f16_to_f32(f32_to_f16(1e9)).is_finite(), "overflow → inf");
    }

    #[test]
    fn pow2_scale_pins_quantized_max_into_range() {
        for max_abs in [1e-6f32, 0.03, 0.5, 1.0, 127.0, 127.6, 1e4] {
            let p = pow2_scale(max_abs);
            let q = (max_abs / p).round();
            assert!(q <= 127.0, "max_abs {max_abs}: q {q} overflows");
            assert!(
                q >= 64.0,
                "max_abs {max_abs}: q {q} below re-derivation floor"
            );
            // The scale is a power of two: one mantissa bit.
            assert_eq!(p.to_bits() & 0x007f_ffff, 0, "scale {p} not a power of two");
        }
    }

    #[test]
    fn string_table_round_trips() {
        let bytes = encode_strings(["", "a", "länger"]);
        let (strings, rest) = decode_strings(&bytes, "test").unwrap();
        assert_eq!(strings, vec!["", "a", "länger"]);
        assert!(rest.is_empty());
    }

    #[test]
    fn writer_output_parses_and_exposes_sections() {
        let mut w = Writer::new();
        w.section(SEC_META, vec![1, 2, 3]);
        w.section(SEC_CAPS, encode_u64s(&[4, 5]));
        let bytes = w.finish(Quant::F32);
        let r = Reader::parse(&bytes).unwrap();
        assert_eq!(r.section(SEC_META).unwrap(), &[1, 2, 3]);
        assert_eq!(r.section(SEC_CAPS).unwrap().len(), 16);
        assert!(r.section(SEC_LABELS).is_err());
        // Payloads are 8-byte aligned.
        for s in r.sections() {
            assert_eq!(s.offset % 8, 0, "section {} misaligned", s.name);
        }
    }

    #[test]
    fn any_single_byte_flip_is_detected() {
        let mut w = Writer::new();
        w.section(SEC_META, vec![7; 13]);
        let bytes = w.finish(Quant::F32);
        assert!(Reader::parse(&bytes).is_ok());
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0xff;
            assert!(Reader::parse(&bad).is_err(), "flip at byte {i} not caught");
        }
    }
}
