//! Sanity lints over trained models.
//!
//! A model file can be syntactically valid JSON and still be junk: a
//! NaN that crept in through a degenerate learning rate, weight tables
//! that are entirely zero because training never ran, candidate tables
//! that can never propose a label, or ids pointing outside the
//! vocabularies it ships with. Each lint here catches one of those
//! failure shapes. Findings over large tables are aggregated — one
//! diagnostic per failure shape with a count and a smallest-key example
//! — so the output stays deterministic regardless of hash-map iteration
//! order.

use crate::diag::{Diagnostic, Severity};
use pigeon_crf::{artifact, CrfModel};
use pigeon_word2vec::SgnsModel;

/// Lints a trained CRF model against the vocabularies it is deployed
/// with (`num_features` / `num_labels` are the vocabulary sizes).
pub fn lint_crf(
    unit: &str,
    model: &CrfModel,
    num_features: usize,
    num_labels: usize,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();

    if let Err(issue) = model.validate(num_features, num_labels) {
        diags.push(Diagnostic::new(
            issue.code,
            Severity::Error,
            unit,
            issue.message,
        ));
    }

    // Weight health: non-finite entries are errors; an all-zero or
    // empty table means the model never learned anything.
    let mut non_finite = 0usize;
    let mut non_finite_example: Option<(u32, u32, u32)> = None;
    let mut total = 0usize;
    let mut non_zero = 0usize;
    for (path, a, b, w) in model.pair_weight_entries() {
        total += 1;
        if !w.is_finite() {
            non_finite += 1;
            let key = (path, a, b);
            if non_finite_example.is_none_or(|e| key < e) {
                non_finite_example = Some(key);
            }
        } else if w != 0.0 {
            non_zero += 1;
        }
    }
    for (path, l, w) in model.unary_weight_entries() {
        total += 1;
        if !w.is_finite() {
            non_finite += 1;
            let key = (path, l, u32::MAX);
            if non_finite_example.is_none_or(|e| key < e) {
                non_finite_example = Some(key);
            }
        } else if w != 0.0 {
            non_zero += 1;
        }
    }
    if non_finite > 0 {
        let (path, a, b) = non_finite_example.expect("example recorded with count");
        diags.push(Diagnostic::new(
            "model-nonfinite-weight",
            Severity::Error,
            unit,
            format!(
                "{non_finite} of {total} weights are NaN or infinite \
                 (first by key: path {path}, labels {a}/{b})"
            ),
        ));
    }
    if total == 0 {
        diags.push(Diagnostic::new(
            "model-dead-table",
            Severity::Warning,
            unit,
            "model has no weights at all",
        ));
    } else if non_zero == 0 && non_finite == 0 {
        diags.push(Diagnostic::new(
            "model-dead-table",
            Severity::Warning,
            unit,
            format!("all {total} weights are exactly zero"),
        ));
    }

    // Label statistics: an all-zero frequency table cannot seed
    // candidates or priors.
    let labels_seen = model.label_count_table().iter().filter(|&&c| c > 0).count();
    if !model.label_count_table().is_empty() && labels_seen == 0 {
        diags.push(Diagnostic::new(
            "model-dead-labels",
            Severity::Warning,
            unit,
            "every label has training frequency zero",
        ));
    }

    // Candidate tables: inference proposes labels from these; an empty
    // global fallback means unknown nodes can never be labeled.
    if model.max_candidates() == 0 {
        diags.push(Diagnostic::new(
            "model-empty-candidates",
            Severity::Error,
            unit,
            "max_candidates is zero: inference can propose nothing",
        ));
    }
    if model.global_candidate_labels().is_empty() && num_labels > 0 {
        diags.push(Diagnostic::new(
            "model-empty-candidates",
            Severity::Error,
            unit,
            "global candidate list is empty",
        ));
    }
    let empty_lists = model
        .candidate_entries()
        .filter(|(_, labels, _)| labels.is_empty())
        .count();
    if empty_lists > 0 {
        diags.push(Diagnostic::new(
            "model-empty-candidates",
            Severity::Warning,
            unit,
            format!("{empty_lists} candidate entries carry no suggestions"),
        ));
    }

    // Vocabulary coverage: ids referenced by the weight tables, as a
    // fraction of the shipped vocabularies. Low coverage is not wrong —
    // training legitimately skips features seen only between known
    // nodes — but a collapsed value is worth a look.
    if num_features > 0 && total > 0 {
        let mut feature_used = vec![false; num_features];
        let mut label_used = vec![false; num_labels];
        let mark = |slot: &mut Vec<bool>, id: u32| {
            if let Some(s) = slot.get_mut(id as usize) {
                *s = true;
            }
        };
        for (path, a, b, _) in model.pair_weight_entries() {
            mark(&mut feature_used, path);
            mark(&mut label_used, a);
            mark(&mut label_used, b);
        }
        for (path, l, _) in model.unary_weight_entries() {
            mark(&mut feature_used, path);
            mark(&mut label_used, l);
        }
        let feature_coverage =
            feature_used.iter().filter(|&&u| u).count() as f64 / num_features as f64;
        let label_coverage = if num_labels == 0 {
            1.0
        } else {
            label_used.iter().filter(|&&u| u).count() as f64 / num_labels as f64
        };
        if feature_coverage < 0.5 {
            diags.push(Diagnostic::new(
                "model-vocab-coverage",
                Severity::Info,
                unit,
                format!(
                    "weights reference {:.0}% of the {num_features}-entry feature vocabulary",
                    feature_coverage * 100.0
                ),
            ));
        }
        if label_coverage < 0.5 {
            diags.push(Diagnostic::new(
                "model-vocab-coverage",
                Severity::Info,
                unit,
                format!(
                    "weights reference {:.0}% of the {num_labels}-entry label vocabulary",
                    label_coverage * 100.0
                ),
            ));
        }
    }

    diags
}

/// Lints a compiled binary model artifact (`.pgnc`).
///
/// Container integrity — magic, version, section bounds, checksums,
/// CSR structure, id ranges, weight finiteness, cap bounds — is
/// enforced by the decoder itself; any violation surfaces here as one
/// `artifact-format` error naming the problem. A file that decodes
/// cleanly then gets the same health lints as a JSON model (dead
/// tables, dead labels, candidate coverage) via [`lint_crf`], plus an
/// informational section-layout summary.
pub fn lint_artifact(unit: &str, bytes: &[u8]) -> Vec<Diagnostic> {
    let art = match artifact::read_artifact(bytes) {
        Ok(art) => art,
        Err(message) => {
            return vec![Diagnostic::new(
                "artifact-format",
                Severity::Error,
                unit,
                message,
            )];
        }
    };
    let mut diags = Vec::new();
    // The reader re-verifies checksums, so reaching this point means
    // every section is intact; summarise the layout for the report.
    if let Ok(reader) = artifact::Reader::parse(bytes) {
        let sections = reader.sections();
        let payload: u64 = sections.iter().map(|s| s.len).sum();
        diags.push(Diagnostic::new(
            "artifact-layout",
            Severity::Info,
            unit,
            format!(
                "{} quantization, {} sections, {payload} payload bytes in a \
                 {}-byte file, all checksums verified",
                art.quant.name(),
                sections.len(),
                bytes.len()
            ),
        ));
    }
    diags.extend(lint_crf(
        unit,
        &art.model,
        art.features.len(),
        art.labels.len(),
    ));
    diags
}

/// Lints a trained SGNS embedding model: table shapes, non-finite
/// entries, and dead statistics.
pub fn lint_sgns(unit: &str, model: &SgnsModel) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let dim = model.dim();
    let words = model.num_words();
    let contexts = model.num_contexts();

    if words == 0 || dim == 0 {
        diags.push(Diagnostic::new(
            "model-dead-table",
            Severity::Warning,
            unit,
            format!("embedding table is degenerate ({words} words × {dim} dims)"),
        ));
    }
    for (label, table, rows) in [
        ("word", model.word_table(), words),
        ("context", model.ctx_table(), contexts),
    ] {
        if table.len() != rows * dim {
            diags.push(Diagnostic::new(
                "model-table-shape",
                Severity::Error,
                unit,
                format!(
                    "{label} table holds {} floats, expected {rows} rows × {dim} dims",
                    table.len()
                ),
            ));
        }
        let non_finite = table.iter().filter(|v| !v.is_finite()).count();
        if non_finite > 0 {
            diags.push(Diagnostic::new(
                "model-nonfinite-weight",
                Severity::Error,
                unit,
                format!(
                    "{non_finite} of {} {label} embedding entries are NaN or infinite",
                    table.len()
                ),
            ));
        }
    }
    if words > 0 && model.word_count_table().iter().all(|&c| c == 0) {
        diags.push(Diagnostic::new(
            "model-dead-labels",
            Severity::Warning,
            unit,
            "every word has recorded frequency zero",
        ));
    }
    diags
}
