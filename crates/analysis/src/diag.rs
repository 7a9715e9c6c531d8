//! The diagnostic vocabulary shared by every audit pass.
//!
//! All four analyses — well-formedness, scope cross-check, corpus
//! integrity, model lint — speak in [`Diagnostic`] values collected into
//! a [`Report`]. The report owns rendering (human text and a versioned
//! JSON schema) and the `--deny` gating arithmetic, so passes never
//! print or exit themselves.

use pigeon_corpus::Language;
use serde_json::{json, Value};

/// How bad a finding is. The ordering (`Info < Warning < Error`) is the
/// `--deny` contract: denying a level denies everything at or above it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Observations worth surfacing (duplication rates, shadowing) that
    /// are expected even on healthy corpora.
    Info,
    /// Suspicious but survivable: dead weight tables, empty candidate
    /// lists, childless nonterminals outside the grammar's allowlist.
    Warning,
    /// Invariant violations: corrupt trees, resolver/extractor
    /// disagreement, split leakage, non-finite weights.
    Error,
}

impl Severity {
    /// The lowercase name used by `--deny` and the JSON output.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }

    /// Parses a `--deny` argument.
    pub fn from_name(name: &str) -> Option<Severity> {
        match name {
            "info" => Some(Severity::Info),
            "warning" => Some(Severity::Warning),
            "error" => Some(Severity::Error),
            _ => None,
        }
    }
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One audit finding, anchored to the unit (file, corpus, or model) it
/// was observed in and, when meaningful, a preorder node index.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable machine-readable code, e.g. `ast-parent-link`. Codes are
    /// documented in the README and never reused for a different check.
    pub code: &'static str,
    pub severity: Severity,
    /// The frontend the finding concerns, when it concerns one.
    pub language: Option<Language>,
    /// File path, corpus label, or model path the finding is about.
    pub unit: String,
    /// Preorder index of the offending node, for tree-level findings.
    pub node: Option<u32>,
    pub message: String,
}

impl Diagnostic {
    pub fn new(
        code: &'static str,
        severity: Severity,
        unit: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            code,
            severity,
            language: None,
            unit: unit.into(),
            node: None,
            message: message.into(),
        }
    }

    pub fn with_language(mut self, language: Language) -> Self {
        self.language = Some(language);
        self
    }

    pub fn with_node(mut self, node: u32) -> Self {
        self.node = Some(node);
        self
    }

    /// `error[ast-parent-link] doc00003.js node 17: ...` — one line of
    /// the text renderer.
    pub fn render_text(&self) -> String {
        let mut line = format!("{}[{}] {}", self.severity, self.code, self.unit);
        if let Some(node) = self.node {
            line.push_str(&format!(" node {node}"));
        }
        line.push_str(": ");
        line.push_str(&self.message);
        line
    }

    fn to_value(&self) -> Value {
        json!({
            "code": self.code,
            "severity": self.severity.name(),
            "language": self.language.map(|l| l.name().to_string()),
            "unit": self.unit.as_str(),
            "node": self.node,
            "message": self.message.as_str(),
        })
    }
}

/// Every stable diagnostic code the audit surfaces can emit, with a
/// one-line description — the source of truth behind
/// `pigeon audit --list-codes`. Sorted by code; codes are append-only
/// and never reused for a different check.
pub fn code_catalog() -> Vec<(&'static str, &'static str)> {
    let mut codes = vec![
        ("parse-error", "source fails to parse under its frontend"),
        (
            "ast-arity",
            "node kind requires a fixed child count it does not have",
        ),
        (
            "ast-child-index",
            "stored child index disagrees with the node's position",
        ),
        ("ast-depth", "stored depth disagrees with the parent's"),
        (
            "ast-duplicate-child",
            "node appears in more than one child list",
        ),
        (
            "ast-empty-nonterminal",
            "interior node kind has no children",
        ),
        (
            "ast-ident-shape",
            "identifier value violates the frontend's token shape",
        ),
        (
            "ast-kind-class",
            "terminal/nonterminal kind used in the wrong class",
        ),
        ("ast-orphan", "node is unreachable from the root"),
        (
            "ast-parent-link",
            "stored parent disagrees with the actual parent",
        ),
        ("ast-root-is-child", "root appears in a child list"),
        ("ast-terminal-children", "terminal node carries children"),
        (
            "scope-cross-check",
            "independent scope resolver disagrees with the extractor's element grouping",
        ),
        (
            "scope-occurrence-duplicated",
            "one occurrence resolved into more than one element group",
        ),
        (
            "scope-occurrence-missing",
            "resolved occurrence missing from the extractor's grouping",
        ),
        ("scope-shadowing", "inner binding shadows an outer one"),
        (
            "corpus-duplicate",
            "file duplicates an earlier one under alpha-renaming",
        ),
        (
            "corpus-near-duplicate",
            "MinHash sketches estimate near-duplicate similarity",
        ),
        ("split-leak", "train/test splits share a program"),
        ("model-load", "model file failed to load"),
        (
            "model-dead-labels",
            "labels that no training factor can produce",
        ),
        ("model-dead-table", "weight table with no entries"),
        (
            "model-empty-candidates",
            "prediction candidate set is empty",
        ),
        ("model-nonfinite-weight", "weight is NaN or infinite"),
        ("model-table-shape", "weight table shape is inconsistent"),
        (
            "model-vocab-coverage",
            "weight ids outside the shipped vocabularies",
        ),
        ("partial-load", "training partial failed to decode"),
        ("partial-info", "training partial summary"),
        ("checkpoint-load", "SGD checkpoint failed to decode"),
        ("checkpoint-info", "SGD checkpoint summary"),
    ];
    codes.extend(crate::dataflow::LINT_CODES);
    codes.sort_unstable_by_key(|&(code, _)| code);
    codes
}

/// Corpus-level duplication measurements, reported alongside the
/// diagnostics because the *rate* matters even when no finding fires.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DuplicationSummary {
    /// Units that parsed and were fingerprinted.
    pub files: usize,
    /// Distinct alpha-renaming-normalized fingerprints among them.
    pub distinct_fingerprints: usize,
    /// Files that share a fingerprint with an earlier file.
    pub duplicate_files: usize,
    /// `duplicate_files / files` (0.0 for an empty corpus).
    pub duplication_rate: f64,
    /// Pairs of non-identical files whose path-bag MinHash sketches
    /// estimate a Jaccard similarity at or above the near-dup threshold.
    pub near_duplicate_pairs: usize,
}

/// The outcome of an audit: every diagnostic plus the corpus-level
/// summary, with deterministic ordering guaranteed by construction
/// (units are processed via `parallel_map_indexed`, which preserves
/// input order for any `--jobs` value).
#[derive(Debug, Default)]
pub struct Report {
    pub diagnostics: Vec<Diagnostic>,
    /// Units examined (source files plus any model files).
    pub units_audited: usize,
    /// Present when the audit fingerprinted a corpus.
    pub duplication: Option<DuplicationSummary>,
}

impl Report {
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// How many diagnostics are at or above `level` — nonzero means a
    /// `--deny level` run fails.
    pub fn denied_count(&self, level: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity >= level)
            .count()
    }

    /// The human-readable rendering: one line per diagnostic, then a
    /// summary block.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.render_text());
            out.push('\n');
        }
        out.push_str(&format!(
            "audited {} unit(s): {} error(s), {} warning(s), {} info(s)\n",
            self.units_audited,
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Info),
        ));
        if let Some(dup) = &self.duplication {
            out.push_str(&format!(
                "duplication: {}/{} files duplicated ({:.1}%), {} distinct fingerprint(s), {} near-duplicate pair(s)\n",
                dup.duplicate_files,
                dup.files,
                dup.duplication_rate * 100.0,
                dup.distinct_fingerprints,
                dup.near_duplicate_pairs,
            ));
        }
        out
    }

    /// The machine-readable rendering, schema `pigeon-audit/1`. Object
    /// keys are emitted sorted (the serde shim's `Map` is a `BTreeMap`),
    /// so the output is byte-stable.
    pub fn render_json(&self) -> String {
        let duplication = match &self.duplication {
            Some(d) => json!({
                "files": d.files,
                "distinct_fingerprints": d.distinct_fingerprints,
                "duplicate_files": d.duplicate_files,
                "duplication_rate": d.duplication_rate,
                "near_duplicate_pairs": d.near_duplicate_pairs,
            }),
            None => Value::Null,
        };
        let value = json!({
            "schema": "pigeon-audit/1",
            "summary": json!({
                "units_audited": self.units_audited,
                "errors": self.count(Severity::Error),
                "warnings": self.count(Severity::Warning),
                "infos": self.count(Severity::Info),
                "duplication": duplication,
            }),
            "diagnostics": Value::Array(
                self.diagnostics.iter().map(|d| d.to_value()).collect()
            ),
        });
        serde_json::to_string(&value).expect("audit report serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_catalog_is_sorted_unique_and_covers_the_dataflow_lints() {
        let catalog = code_catalog();
        let codes: Vec<&str> = catalog.iter().map(|&(c, _)| c).collect();
        let mut sorted = codes.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(codes, sorted, "catalog must be sorted and duplicate-free");
        for (code, _) in crate::dataflow::LINT_CODES {
            assert!(codes.contains(&code), "missing dataflow lint {code}");
        }
        assert!(catalog.iter().all(|&(_, d)| !d.is_empty()));
    }

    #[test]
    fn severity_orders_for_deny() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
        assert_eq!(Severity::from_name("warning"), Some(Severity::Warning));
        assert_eq!(Severity::from_name("fatal"), None);
    }

    #[test]
    fn denied_count_includes_level_and_above() {
        let mut report = Report::default();
        report
            .diagnostics
            .push(Diagnostic::new("a", Severity::Info, "u", "m"));
        report
            .diagnostics
            .push(Diagnostic::new("b", Severity::Warning, "u", "m"));
        report
            .diagnostics
            .push(Diagnostic::new("c", Severity::Error, "u", "m"));
        assert_eq!(report.denied_count(Severity::Info), 3);
        assert_eq!(report.denied_count(Severity::Warning), 2);
        assert_eq!(report.denied_count(Severity::Error), 1);
    }

    #[test]
    fn text_rendering_includes_node_and_code() {
        let d = Diagnostic::new("ast-parent-link", Severity::Error, "a.js", "broken").with_node(7);
        assert_eq!(
            d.render_text(),
            "error[ast-parent-link] a.js node 7: broken"
        );
    }

    #[test]
    fn json_rendering_is_schema_tagged() {
        let mut report = Report {
            units_audited: 2,
            ..Report::default()
        };
        report
            .diagnostics
            .push(Diagnostic::new("x", Severity::Warning, "u", "m"));
        let json = report.render_json();
        assert!(json.contains("\"schema\":\"pigeon-audit/1\""));
        assert!(json.contains("\"warnings\":1"));
    }
}
