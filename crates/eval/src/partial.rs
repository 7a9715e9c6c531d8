//! Training partials (`.pgnc`, container kind `partial`), their
//! deterministic merge, and the one vocabulary [`replay`] behind every
//! trainer.
//!
//! Training extracts each document on its own into a [`DocPartial`]:
//! its **local vocabularies** (label and feature strings in
//! first-intern order) and its CRF instance in doc-local ids. [`replay`]
//! interns those tables in global document order, which reproduces one
//! shared interner exactly: in training mode the graph builder's intern
//! sequence depends only on the document itself. Single-process training
//! replays its documents in memory; a shard worker stores them in a
//! partial, and [`merge_partials`] replays every shard's in shard order.
//! Statistics come from the replayed instances and candidate truncation
//! runs only after the full replay, so `pigeon merge` is byte-identical
//! to single-process `pigeon train` for any shard count.
//!
//! The file reuses the `.pgnc` container of [`pigeon_crf::artifact`]
//! (magic, versioned checksummed section table, kind tag
//! [`KIND_PARTIAL`]); decoding trusts nothing and never
//! panics on truncated or bit-flipped input. A partial holds exactly
//! its shard's documents, so one relabelled to another shard is refused
//! when it is decoded, not when it is merged.

use pigeon_crf::artifact::{
    decode_strings, decode_u64s, encode_strings, encode_u32s, encode_u64s, kind_name, section_name,
    ArtifactMeta, Quant, Reader, Writer, KIND_PARTIAL, SEC_PT_DOCS, SEC_PT_DOCS_V1, SEC_PT_META,
};
use pigeon_crf::{CrfConfig, Instance, Node, PairFactor, RawStatistics, UnaryFactor};
use pigeon_telemetry as telemetry;
use std::time::Instant;

use crate::graph::Vocabs;

/// The extraction + training configuration a partial was built under,
/// plus its shard coordinates. Merging refuses partials whose
/// configuration knobs differ — mixed-config statistics would be
/// silently wrong.
#[derive(Debug, Clone, PartialEq)]
pub struct PartialMeta {
    /// The predictor settings every model file and artifact persists
    /// too; the merged model inherits them.
    pub header: ArtifactMeta,
    /// Path-context keep probability (per-document derived seeds make
    /// this reproducible across any sharding).
    pub keep_prob: f64,
    /// CRF hyper-parameters. `jobs` is ignored (and stored as zero):
    /// the model is invariant to it.
    pub crf: CrfConfig,
    /// This shard's index, `0..shard_count`.
    pub shard_index: u32,
    /// Total number of shards in the run.
    pub shard_count: u32,
    /// Total documents across all shards.
    pub total_docs: u32,
}

/// One training document, the record every trainer's per-document
/// stage produces and [`replay`] consumes: its position in the corpus,
/// its local vocabularies in first-intern order (the replay key), and
/// its instance in those local ids. A partial stores exactly these
/// records; the merge derives everything else from them.
#[derive(Debug, Clone)]
pub struct DocPartial {
    /// Position of this document in the full corpus.
    pub global_index: u32,
    /// Doc-local label vocabulary, first-intern order.
    pub labels: Vec<String>,
    /// Doc-local feature vocabulary, first-intern order.
    pub features: Vec<String>,
    /// The document's CRF instance, ids into the local vocabularies.
    pub instance: Instance,
}

/// A decoded partial file: shard metadata plus its documents.
#[derive(Debug, Clone)]
pub struct TrainPartial {
    /// Configuration fingerprint and shard coordinates.
    pub meta: PartialMeta,
    /// This shard's documents: exactly `shard_range(total_docs,
    /// shard_index, shard_count)`, in order.
    pub docs: Vec<DocPartial>,
}

/// The output of [`merge_partials`]: the reassembled single-process
/// training inputs.
#[derive(Debug)]
pub struct MergedTraining {
    /// The shared configuration (shard coordinates are shard 0's).
    pub meta: PartialMeta,
    /// Global vocabularies, identical to a single-process build.
    pub vocabs: Vocabs,
    /// All instances in global ids, corpus order.
    pub instances: Vec<Instance>,
    /// Statistics of `instances` over the global label space.
    pub stats: RawStatistics,
}

/// Registers the shard-merge metric family on the current telemetry
/// sink, so rendered families are stable whether or not a merge ran.
pub fn register_metrics() {
    telemetry::describe(
        "pigeon_shard_merge_micros",
        "Time to merge training partials into training inputs, microseconds",
    );
    telemetry::histogram("pigeon_shard_merge_micros", &[], telemetry::PHASE_BOUNDS);
}

/// The deterministic contiguous 1/`count` slice of `total` documents
/// assigned to shard `index` — the same `div_ceil` chunking the CRF
/// statistics pass uses, so shard boundaries never depend on worker
/// scheduling.
///
/// # Panics
///
/// Panics when `count` is zero or `index >= count`.
pub fn shard_range(total: usize, index: usize, count: usize) -> std::ops::Range<usize> {
    assert!(count > 0, "shard count must be at least 1");
    assert!(index < count, "shard index {index} out of range {count}");
    let chunk = total.div_ceil(count).max(1);
    let start = (index * chunk).min(total);
    let end = (start + chunk).min(total);
    start..end
}

/// Number of `u64` numeric fields trailing the meta string table.
const META_NUMS: usize = 17;

/// Serialises a partial. Byte-stable: documents are written in order.
pub fn encode_partial(partial: &TrainPartial) -> Vec<u8> {
    let m = &partial.meta;
    let h = &m.header;
    let mut meta = encode_strings([
        h.language.as_str(),
        h.target.as_str(),
        h.abstraction.as_str(),
    ]);
    let nums: [u64; META_NUMS] = [
        u64::from(h.max_length),
        u64::from(h.max_width),
        u64::from(h.semi_paths),
        u64::from(h.top_k),
        m.keep_prob.to_bits(),
        m.crf.epochs as u64,
        u64::from(m.crf.learning_rate.to_bits()),
        m.crf.max_passes as u64,
        m.crf.max_candidates as u64,
        m.crf.global_candidates as u64,
        m.crf.suggestions_per_key as u64,
        u64::from(m.crf.use_unary),
        m.crf.seed,
        u64::from(m.shard_index),
        u64::from(m.shard_count),
        u64::from(m.total_docs),
        u64::from(h.dataflow_contexts),
    ];
    meta.extend_from_slice(&encode_u64s(&nums));

    let mut docs = encode_u32s(&[partial.docs.len() as u32]);
    for doc in &partial.docs {
        docs.extend_from_slice(&doc.global_index.to_le_bytes());
        docs.extend_from_slice(&encode_strings(doc.labels.iter().map(String::as_str)));
        docs.extend_from_slice(&encode_strings(doc.features.iter().map(String::as_str)));
        let inst = &doc.instance;
        docs.extend_from_slice(&(inst.nodes.len() as u32).to_le_bytes());
        for node in &inst.nodes {
            docs.extend_from_slice(&node.label.to_le_bytes());
            docs.extend_from_slice(&u32::from(node.known).to_le_bytes());
        }
        docs.extend_from_slice(&(inst.pairwise.len() as u32).to_le_bytes());
        for pf in &inst.pairwise {
            docs.extend_from_slice(&(pf.a as u32).to_le_bytes());
            docs.extend_from_slice(&(pf.b as u32).to_le_bytes());
            docs.extend_from_slice(&pf.path.to_le_bytes());
        }
        docs.extend_from_slice(&(inst.unary.len() as u32).to_le_bytes());
        for uf in &inst.unary {
            docs.extend_from_slice(&(uf.node as u32).to_le_bytes());
            docs.extend_from_slice(&uf.path.to_le_bytes());
        }
    }

    let mut w = Writer::new();
    w.section(SEC_PT_META, meta);
    w.section(SEC_PT_DOCS, docs);
    w.finish_kind(Quant::F32, KIND_PARTIAL)
}

/// A bounds-checked little-endian cursor over the docs section.
struct Cursor<'a> {
    rest: &'a [u8],
}

impl<'a> Cursor<'a> {
    fn u32(&mut self, what: &str) -> Result<u32, String> {
        if self.rest.len() < 4 {
            return Err(format!("pt-docs is truncated reading {what}"));
        }
        let (head, tail) = self.rest.split_at(4);
        self.rest = tail;
        Ok(u32::from_le_bytes([head[0], head[1], head[2], head[3]]))
    }

    /// A `u32` count bounded so a corrupted value cannot drive a
    /// pathological allocation: each counted record consumes at least
    /// `min_record` bytes of the remainder.
    fn count(&mut self, min_record: usize, what: &str) -> Result<usize, String> {
        let n = self.u32(what)? as usize;
        if n > self.rest.len() / min_record.max(1) {
            return Err(format!(
                "pt-docs claims {n} {what}, more than the file holds"
            ));
        }
        Ok(n)
    }

    fn strings(&mut self, what: &str) -> Result<Vec<String>, String> {
        let (strings, rest) = decode_strings(self.rest, what)?;
        self.rest = rest;
        Ok(strings)
    }
}

/// Decodes and fully validates a partial file.
///
/// # Errors
///
/// A message naming the first problem found — container level
/// (magic/version/bounds/checksums), wrong kind, a partial in the layout
/// of an older build, malformed section, inconsistent content (ids out
/// of range, duplicate vocabulary entries, self-loop factors), or
/// documents other than exactly the shard's own. Never panics on
/// arbitrary input.
pub fn decode_partial(bytes: &[u8]) -> Result<TrainPartial, String> {
    let r = Reader::parse(bytes)?;
    if r.kind() != KIND_PARTIAL {
        return Err(format!(
            "container holds a {} (kind {}), not a training partial",
            kind_name(r.kind()),
            r.kind()
        ));
    }
    if r.section(SEC_PT_DOCS_V1).is_ok() {
        return Err(format!(
            "partial was written by an older build: its documents are in the retired \
             `{}` layout; rebuild the shard with this build",
            section_name(SEC_PT_DOCS_V1)
        ));
    }

    let (meta_strings, meta_rest) = decode_strings(r.section(SEC_PT_META)?, "pt-meta")?;
    let [language, target, abstraction]: [String; 3] = meta_strings
        .try_into()
        .map_err(|_| "pt-meta must hold exactly 3 strings".to_string())?;
    let nums = decode_u64s(meta_rest, "pt-meta")?;
    let nums: [u64; META_NUMS] = nums.try_into().map_err(|n: Vec<u64>| {
        format!(
            "pt-meta must hold {META_NUMS} numeric fields, got {}",
            n.len()
        )
    })?;
    let [max_length, max_width, semi_paths, top_k, keep_prob_bits, epochs, lr_bits, max_passes, max_candidates, global_candidates, suggestions_per_key, use_unary, seed, shard_index, shard_count, total_docs, dataflow_contexts] =
        nums;
    let as_u32 = |v: u64, what: &str| {
        u32::try_from(v).map_err(|_| format!("pt-meta {what} {v} overflows u32"))
    };
    for (flag, what) in [
        (semi_paths, "semi_paths"),
        (use_unary, "use_unary"),
        (dataflow_contexts, "dataflow_contexts"),
    ] {
        if flag > 1 {
            return Err(format!("pt-meta {what} flag is {flag}, expected 0 or 1"));
        }
    }
    let keep_prob = f64::from_bits(keep_prob_bits);
    if !(keep_prob > 0.0 && keep_prob <= 1.0) {
        return Err(format!("pt-meta keep_prob {keep_prob} outside (0, 1]"));
    }
    let learning_rate = f32::from_bits(
        u32::try_from(lr_bits).map_err(|_| "pt-meta learning rate overflows f32".to_owned())?,
    );
    if !learning_rate.is_finite() {
        return Err("pt-meta learning rate is not finite".into());
    }
    let meta = PartialMeta {
        header: ArtifactMeta {
            language,
            target,
            abstraction,
            max_length: as_u32(max_length, "max_length")?,
            max_width: as_u32(max_width, "max_width")?,
            semi_paths: semi_paths == 1,
            top_k: as_u32(top_k, "top_k")?,
            dataflow_contexts: dataflow_contexts == 1,
        },
        keep_prob,
        crf: CrfConfig {
            epochs: epochs as usize,
            learning_rate,
            max_passes: max_passes as usize,
            max_candidates: max_candidates as usize,
            global_candidates: global_candidates as usize,
            suggestions_per_key: suggestions_per_key as usize,
            use_unary: use_unary == 1,
            seed,
            jobs: 0,
        },
        shard_index: as_u32(shard_index, "shard_index")?,
        shard_count: as_u32(shard_count, "shard_count")?,
        total_docs: as_u32(total_docs, "total_docs")?,
    };

    let mut cur = Cursor {
        rest: r.section(SEC_PT_DOCS)?,
    };
    let n_docs = cur.count(4, "documents")?;
    let mut docs = Vec::with_capacity(n_docs);
    for _ in 0..n_docs {
        let global_index = cur.u32("global index")?;
        let labels = cur.strings("pt-docs labels")?;
        let features = cur.strings("pt-docs features")?;
        for (what, table) in [("label", &labels), ("feature", &features)] {
            let mut seen = std::collections::HashSet::new();
            if !table.iter().all(|s| seen.insert(s.as_str())) {
                return Err(format!(
                    "pt-docs document {global_index} has a duplicate {what} entry"
                ));
            }
        }
        let n_labels = labels.len() as u32;
        let n_features = features.len() as u32;

        let n_nodes = cur.count(8, "nodes")?;
        let mut nodes = Vec::with_capacity(n_nodes);
        for _ in 0..n_nodes {
            let label = cur.u32("node label")?;
            let known = cur.u32("node flag")?;
            if label >= n_labels {
                return Err(format!(
                    "pt-docs node label {label} out of range {n_labels}"
                ));
            }
            if known > 1 {
                return Err(format!("pt-docs node flag is {known}, expected 0 or 1"));
            }
            nodes.push(Node {
                label,
                known: known == 1,
            });
        }
        let n_pairs = cur.count(12, "pair factors")?;
        let mut pairwise = Vec::with_capacity(n_pairs);
        for _ in 0..n_pairs {
            let a = cur.u32("pair endpoint")? as usize;
            let b = cur.u32("pair endpoint")? as usize;
            let path = cur.u32("pair path")?;
            if a >= n_nodes || b >= n_nodes || a == b || path >= n_features {
                return Err(format!(
                    "pt-docs pair factor ({a}, {b}, path {path}) is out of range"
                ));
            }
            pairwise.push(PairFactor { a, b, path });
        }
        let n_unary = cur.count(8, "unary factors")?;
        let mut unary = Vec::with_capacity(n_unary);
        for _ in 0..n_unary {
            let node = cur.u32("unary node")? as usize;
            let path = cur.u32("unary path")?;
            if node >= n_nodes || path >= n_features {
                return Err(format!(
                    "pt-docs unary factor (node {node}, path {path}) is out of range"
                ));
            }
            unary.push(UnaryFactor { node, path });
        }

        docs.push(DocPartial {
            global_index,
            labels,
            features,
            instance: Instance {
                nodes,
                pairwise,
                unary,
            },
        });
    }
    if !cur.rest.is_empty() {
        return Err("pt-docs has trailing bytes".into());
    }
    let partial = TrainPartial { meta, docs };
    check_shard_documents(&partial)?;
    Ok(partial)
}

/// The range rule: a partial holds exactly the documents of its shard,
/// `shard_range(total_docs, shard_index, shard_count)`, in corpus order
/// (an empty range holds none). The stored global indices are the only
/// link between a partial's documents and the shard it claims, so
/// [`decode_partial`] and [`merge_partials`] both run this check.
fn check_shard_documents(partial: &TrainPartial) -> Result<(), String> {
    let m = &partial.meta;
    if m.shard_count == 0 || m.shard_index >= m.shard_count {
        return Err(format!(
            "shard index {} out of range {}",
            m.shard_index, m.shard_count
        ));
    }
    let range = shard_range(
        m.total_docs as usize,
        m.shard_index as usize,
        m.shard_count as usize,
    );
    if !partial
        .docs
        .iter()
        .map(|d| d.global_index as usize)
        .eq(range.clone())
    {
        return Err(format!(
            "shard {}/{} must hold documents {}..{} of {} in order",
            m.shard_index, m.shard_count, range.start, range.end, m.total_docs
        ));
    }
    Ok(())
}

/// Every configuration knob a partial carries — the knobs
/// [`merge_partials`] requires to agree, with values for error
/// messages. Public so the distributed-training ingest path validates an
/// uploaded partial against a job's expected configuration by the same
/// table (naming the offending knob in its 400) and fingerprints cache
/// keys over it.
pub fn config_knobs(m: &PartialMeta) -> [(&'static str, String); 17] {
    let h = &m.header;
    [
        ("language", h.language.clone()),
        ("target", h.target.clone()),
        ("abstraction", h.abstraction.clone()),
        ("max_length", h.max_length.to_string()),
        ("max_width", h.max_width.to_string()),
        ("semi_paths", h.semi_paths.to_string()),
        ("dataflow_contexts", h.dataflow_contexts.to_string()),
        ("top_k", h.top_k.to_string()),
        ("keep_prob", format!("{}", m.keep_prob)),
        ("crf.epochs", m.crf.epochs.to_string()),
        ("crf.learning_rate", format!("{}", m.crf.learning_rate)),
        ("crf.max_passes", m.crf.max_passes.to_string()),
        ("crf.max_candidates", m.crf.max_candidates.to_string()),
        ("crf.global_candidates", m.crf.global_candidates.to_string()),
        (
            "crf.suggestions_per_key",
            m.crf.suggestions_per_key.to_string(),
        ),
        ("crf.use_unary", m.crf.use_unary.to_string()),
        ("crf.seed", format!("{:#x}", m.crf.seed)),
    ]
}

/// The first knob of [`config_knobs`] on which `a` and `b` disagree,
/// with `a`'s and `b`'s values — the one comparison both the merge and
/// the coordinator's ingest run.
pub fn knob_mismatch(a: &PartialMeta, b: &PartialMeta) -> Option<(&'static str, String, String)> {
    config_knobs(a)
        .into_iter()
        .zip(config_knobs(b))
        .find(|((_, x), (_, y))| x != y)
        .map(|((knob, x), (_, y))| (knob, x, y))
}

/// Merges decoded partials back into single-process training inputs:
/// validates configuration equality, shard coverage and each partial's
/// range, [`replay`]s the shards in index order (which is global
/// document order, whatever order the partials came in), and collects
/// statistics from the replayed instances.
///
/// # Errors
///
/// Partials built under different configurations (the message names
/// the differing knob), an incomplete or overlapping shard set, or a
/// partial whose documents are not exactly its shard's range.
pub fn merge_partials(partials: &[TrainPartial]) -> Result<MergedTraining, String> {
    let start = Instant::now();
    register_metrics();
    let _span = telemetry::span("shard_merge");
    let first = partials
        .first()
        .ok_or_else(|| "no partials to merge".to_owned())?;

    // Every configuration knob must agree; name the first that differs.
    for p in &partials[1..] {
        if let Some((knob, a, b)) = knob_mismatch(&first.meta, &p.meta) {
            return Err(format!(
                "partials disagree on {knob}: shard {} has {a}, shard {} has {b}",
                first.meta.shard_index, p.meta.shard_index
            ));
        }
        if p.meta.shard_count != first.meta.shard_count {
            return Err(format!(
                "partials disagree on shard count: {} vs {}",
                first.meta.shard_count, p.meta.shard_count
            ));
        }
        if p.meta.total_docs != first.meta.total_docs {
            return Err(format!(
                "partials disagree on total document count: {} vs {}",
                first.meta.total_docs, p.meta.total_docs
            ));
        }
    }

    // Shard coverage: exactly the set {0, …, shard_count-1}, each
    // holding its own range — so the shards in index order hold every
    // document once, in corpus order.
    let shard_count = first.meta.shard_count as usize;
    let mut by_shard: Vec<Option<&TrainPartial>> = vec![None; shard_count];
    for p in partials {
        check_shard_documents(p)?;
        let i = p.meta.shard_index as usize;
        if by_shard[i].replace(p).is_some() {
            return Err(format!("shard {i} appears twice in the merge set"));
        }
    }
    if let Some(missing) = by_shard.iter().position(Option::is_none) {
        return Err(format!(
            "shard {missing} of {shard_count} is missing from the merge set"
        ));
    }

    let mut vocabs = Vocabs::new();
    let instances = replay(
        &mut vocabs,
        by_shard.into_iter().flatten().flat_map(|p| &p.docs),
    );
    let stats = RawStatistics::collect(&instances, vocabs.labels.len() as u32);

    telemetry::observe(
        "pigeon_shard_merge_micros",
        &[],
        start.elapsed().as_micros() as u64,
    );
    Ok(MergedTraining {
        meta: first.meta.clone(),
        vocabs,
        instances,
        stats,
    })
}

/// The one vocabulary replay behind every trainer: interns each
/// document's local `(labels, features)` tables, in order, into `vocabs`
/// and returns its instance remapped into the shared ids. An
/// incremental update replays into the base model's vocabularies.
pub fn replay<'a>(
    vocabs: &mut Vocabs,
    docs: impl IntoIterator<Item = &'a DocPartial>,
) -> Vec<Instance> {
    let _span = telemetry::span("replay");
    docs.into_iter()
        .map(|doc| {
            let (label_map, feature_map) = vocabs.intern_tables(&doc.labels, &doc.features);
            doc.instance.remap(&label_map, &feature_map)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_header() -> ArtifactMeta {
        ArtifactMeta {
            language: "JavaScript".into(),
            target: "variables".into(),
            abstraction: "full".into(),
            max_length: 4,
            max_width: 3,
            semi_paths: false,
            top_k: 8,
            dataflow_contexts: false,
        }
    }

    fn sample_meta() -> PartialMeta {
        PartialMeta {
            header: sample_header(),
            keep_prob: 1.0,
            crf: CrfConfig {
                jobs: 0,
                ..CrfConfig::default()
            },
            shard_index: 0,
            shard_count: 1,
            total_docs: 2,
        }
    }

    fn sample_doc(global_index: u32) -> DocPartial {
        let mut instance = Instance::new(vec![Node::unknown(0), Node::known(1)]);
        instance.add_pair(0, 1, 0);
        instance.add_unary(0, 1);
        DocPartial {
            global_index,
            labels: vec![format!("var{global_index}"), "known".into()],
            features: vec!["p0".into(), "p1".into()],
            instance,
        }
    }

    #[test]
    fn round_trip_is_exact_and_byte_stable() {
        let partial = TrainPartial {
            meta: sample_meta(),
            docs: vec![sample_doc(0), sample_doc(1)],
        };
        let bytes = encode_partial(&partial);
        assert_eq!(
            pigeon_crf::artifact::container_kind(&bytes),
            Some(KIND_PARTIAL)
        );
        let back = decode_partial(&bytes).unwrap();
        assert_eq!(back.meta, partial.meta);
        assert_eq!(back.docs.len(), 2);
        assert_eq!(back.docs[0].labels, partial.docs[0].labels);
        assert_eq!(encode_partial(&back), bytes);
    }

    #[test]
    fn dataflow_flag_roundtrips_in_the_fixed_meta() {
        let on = TrainPartial {
            meta: PartialMeta {
                header: ArtifactMeta {
                    dataflow_contexts: true,
                    ..sample_header()
                },
                ..sample_meta()
            },
            docs: vec![sample_doc(0), sample_doc(1)],
        };
        let bytes = encode_partial(&on);
        let back = decode_partial(&bytes).unwrap();
        assert!(back.meta.header.dataflow_contexts);
        assert_eq!(encode_partial(&back), bytes);

        // The meta always holds all 17 numbers: the knob is a value,
        // not a layout.
        let off = TrainPartial {
            meta: sample_meta(),
            docs: vec![sample_doc(0), sample_doc(1)],
        };
        let off_bytes = encode_partial(&off);
        assert_eq!(off_bytes.len(), bytes.len());
        assert!(
            !decode_partial(&off_bytes)
                .unwrap()
                .meta
                .header
                .dataflow_contexts
        );
    }

    #[test]
    fn merge_rejects_mismatched_configs_naming_the_knob() {
        let a = TrainPartial {
            meta: PartialMeta {
                shard_count: 2,
                ..sample_meta()
            },
            docs: vec![sample_doc(0)],
        };
        let b = TrainPartial {
            meta: PartialMeta {
                shard_index: 1,
                shard_count: 2,
                header: ArtifactMeta {
                    max_length: 7,
                    ..sample_header()
                },
                ..sample_meta()
            },
            docs: vec![sample_doc(1)],
        };
        let err = merge_partials(&[a, b]).unwrap_err();
        assert!(
            err.contains("max_length"),
            "error must name the knob: {err}"
        );
        assert!(err.contains('4') && err.contains('7'), "values: {err}");
    }

    #[test]
    fn merge_names_top_k_and_the_candidate_caps() {
        let shard = |index: u32, meta: PartialMeta| TrainPartial {
            meta: PartialMeta {
                shard_index: index,
                shard_count: 2,
                ..meta
            },
            docs: vec![sample_doc(index)],
        };
        let crf = sample_meta().crf;
        for (knob, other) in [
            (
                "top_k",
                PartialMeta {
                    header: ArtifactMeta {
                        top_k: 3,
                        ..sample_header()
                    },
                    ..sample_meta()
                },
            ),
            (
                "crf.global_candidates",
                PartialMeta {
                    crf: CrfConfig {
                        global_candidates: 1,
                        ..crf
                    },
                    ..sample_meta()
                },
            ),
            (
                "crf.suggestions_per_key",
                PartialMeta {
                    crf: CrfConfig {
                        suggestions_per_key: 1,
                        ..crf
                    },
                    ..sample_meta()
                },
            ),
        ] {
            let err = merge_partials(&[shard(0, sample_meta()), shard(1, other)]).unwrap_err();
            assert!(err.contains(knob), "error must name {knob}: {err}");
        }
    }

    #[test]
    fn merge_rejects_missing_and_duplicate_shards() {
        let shard = |index: u32| TrainPartial {
            meta: PartialMeta {
                shard_index: index,
                shard_count: 2,
                ..sample_meta()
            },
            docs: vec![sample_doc(index)],
        };
        let err = merge_partials(&[shard(0)]).unwrap_err();
        assert!(err.contains("missing"), "{err}");
        let err = merge_partials(&[shard(0), shard(0)]).unwrap_err();
        assert!(err.contains("twice"), "{err}");
    }

    #[test]
    fn partials_hold_exactly_their_shards_documents() {
        let shard = |index: u32, docs: Vec<DocPartial>| TrainPartial {
            meta: PartialMeta {
                shard_index: index,
                shard_count: 2,
                ..sample_meta()
            },
            docs,
        };
        // A repeated, missing, foreign (shard 0's document relabelled as
        // shard 1's) or reordered document breaks the range rule, on
        // decode and on merge alike.
        for bad in [
            shard(0, vec![sample_doc(0), sample_doc(0)]),
            shard(0, vec![]),
            shard(1, vec![sample_doc(0)]),
            TrainPartial {
                meta: sample_meta(),
                docs: vec![sample_doc(1), sample_doc(0)],
            },
        ] {
            let err = decode_partial(&encode_partial(&bad)).unwrap_err();
            assert!(err.contains("must hold documents"), "{err}");
            let err = merge_partials(&[bad]).unwrap_err();
            assert!(err.contains("must hold documents"), "{err}");
        }
    }

    #[test]
    fn corruption_is_a_coded_error_never_a_panic() {
        let bytes = encode_partial(&TrainPartial {
            meta: sample_meta(),
            docs: vec![sample_doc(0), sample_doc(1)],
        });
        for len in [0, 3, 16, 31, 32, 63, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_partial(&bytes[..len]).is_err(), "len {len}");
        }
        for i in (0..bytes.len()).step_by(5) {
            let mut bad = bytes.clone();
            bad[i] ^= 0x20;
            assert!(decode_partial(&bad).is_err(), "flip at {i}");
        }
    }

    #[test]
    fn shard_range_partitions_exactly() {
        for total in [0usize, 1, 5, 16, 17, 100] {
            for count in [1usize, 2, 4, 7] {
                let mut covered = Vec::new();
                for i in 0..count {
                    covered.extend(shard_range(total, i, count));
                }
                assert_eq!(covered, (0..total).collect::<Vec<_>>());
            }
        }
    }
}
