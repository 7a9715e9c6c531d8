//! Input representations under comparison (§5.3).
//!
//! The paper's central experiment holds the learning algorithm fixed and
//! swaps only the representation of the relation between two program
//! elements. Every representation here reduces to the same shape — a set
//! of `(leaf, leaf, feature)` triples — so the CRF builder downstream is
//! shared verbatim across AST paths and all baselines:
//!
//! * [`Representation::AstPaths`] — the paper's contribution, at any
//!   abstraction level of §5.6;
//! * [`Representation::NoPaths`] — the "bag of near identifiers"
//!   baseline: relations exist but are indistinguishable;
//! * [`Representation::NGram`] — token-proximity factors (the paper's
//!   CRFs + n-grams baseline for Java);
//! * [`Representation::Relations`] — hand-crafted-style relations that
//!   never cross a statement boundary, approximating UnuglifyJS, whose
//!   relations "span only a single statement" (§6). This is what makes
//!   the paper's Fig. 3 pair indistinguishable.

use pigeon_ast::{Ast, Kind, NodeId};
use pigeon_core::{shape_path, visit_leaf_pairs, Abstraction, AstPath, ExtractionConfig, ShapeMap};
use pigeon_corpus::Language;

/// A relation between two leaves, rendered as an opaque feature string.
/// Rendered strings keep every representation in one vocabulary type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeFeature {
    /// The left (source-order first) leaf.
    pub a: NodeId,
    /// The right leaf.
    pub b: NodeId,
    /// The rendered relation feature.
    pub feature: String,
}

/// A single-leaf feature: a semi-path from the leaf to one of its
/// ancestors (§5 of the paper, "semi-paths provide more generalization").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeFeature {
    /// The leaf the semi-path starts at.
    pub leaf: NodeId,
    /// The rendered semi-path feature.
    pub feature: String,
}

/// Extracts semi-path features for every leaf, under `rep`'s abstraction
/// when `rep` is path-based (baselines have no notion of a semi-path and
/// yield nothing).
pub fn extract_node_features(
    ast: &Ast,
    rep: Representation,
    cfg: &ExtractionConfig,
) -> Vec<NodeFeature> {
    let abstraction = match rep {
        Representation::AstPaths(a) => a,
        _ => return Vec::new(),
    };
    pigeon_core::semi_path_contexts(ast, cfg)
        .into_iter()
        .map(|c| NodeFeature {
            leaf: c.start_node,
            feature: format!("semi:{}", abstraction.apply(&c.path)),
        })
        .collect()
}

/// The program-element representation fed to the CRF.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Representation {
    /// AST paths under the given abstraction (α_id for the headline rows).
    AstPaths(Abstraction),
    /// All relations collapse to one feature ("bag of near identifiers").
    NoPaths,
    /// Token-window factors: leaves within `window` positions relate by
    /// their distance alone. `window = 3` matches the paper's 4-grams.
    NGram {
        /// Maximal token distance considered.
        window: usize,
    },
    /// Full paths, but only within a single statement (UnuglifyJS-style).
    Relations,
}

impl Representation {
    /// Display name used in experiment reports.
    pub fn name(self) -> String {
        match self {
            Representation::AstPaths(a) => format!("AST paths ({a})"),
            Representation::NoPaths => "no-paths".to_owned(),
            Representation::NGram { window } => format!("{}-grams", window + 1),
            Representation::Relations => "relations (UnuglifyJS-style)".to_owned(),
        }
    }
}

/// Statement-level node kinds per language, used by
/// [`Representation::Relations`] to reject cross-statement paths.
fn statement_kinds(language: Language) -> Vec<Kind> {
    let names: &[&str] = match language {
        Language::JavaScript => &[
            "Toplevel", "Block", "If", "While", "Do", "For", "ForIn", "ForOf", "Switch", "Case",
            "Default", "Try", "Catch", "Finally", "Defun", "Function", "Arrow",
        ],
        Language::Java => &[
            "CompilationUnit",
            "ClassDecl",
            "InterfaceDecl",
            "Block",
            "If",
            "While",
            "Do",
            "For",
            "ForEach",
            "Switch",
            "Case",
            "Default",
            "Try",
            "Catch",
            "Finally",
            "MethodDecl",
            "ConstructorDecl",
        ],
        Language::Python => &[
            "Module",
            "FunctionDef",
            "ClassDef",
            "If",
            "While",
            "For",
            "With",
            "Try",
            "ExceptHandler",
            "Finally",
            "Body",
            "OrElse",
        ],
        Language::CSharp => &[
            "CompilationUnit",
            "NamespaceDeclaration",
            "ClassDeclaration",
            "Block",
            "IfStatement",
            "WhileStatement",
            "DoStatement",
            "ForStatement",
            "ForEachStatement",
            "SwitchStatement",
            "TryStatement",
            "CatchClause",
            "FinallyClause",
            "MethodDeclaration",
            "ConstructorDeclaration",
        ],
    };
    names.iter().map(|n| Kind::new(n)).collect()
}

/// Extracts the `(leaf, leaf, feature)` triples of `rep` from one tree.
pub fn extract_edge_features(
    language: Language,
    ast: &Ast,
    rep: Representation,
    cfg: &ExtractionConfig,
) -> Vec<EdgeFeature> {
    match rep {
        Representation::AstPaths(Abstraction::NoPath) => {
            extract_edge_features(language, ast, Representation::NoPaths, cfg)
        }
        Representation::AstPaths(abstraction) => shape_features(
            ast,
            cfg,
            |_| true,
            |path| abstraction.apply(path).to_string(),
        ),
        Representation::NoPaths => {
            let mut out = Vec::new();
            visit_leaf_pairs(ast, cfg, |a, b, _, _| {
                // The paper's no-path baseline is a *bag* of near
                // identifiers: the relation carries no direction. Emitting
                // both orientations makes the CRF feature symmetric, so
                // source order cannot leak through factor orientation.
                for (a, b) in [(a, b), (b, a)] {
                    out.push(EdgeFeature {
                        a,
                        b,
                        feature: NO_PATH_FEATURE.to_owned(),
                    });
                }
            });
            out
        }
        Representation::NGram { window } => {
            let leaves = ast.leaves();
            let mut out = Vec::new();
            for (i, &a) in leaves.iter().enumerate() {
                for (d, &b) in leaves[i + 1..].iter().take(window).enumerate() {
                    out.push(EdgeFeature {
                        a,
                        b,
                        feature: format!("gram:{}", d + 1),
                    });
                }
            }
            out
        }
        Representation::Relations => {
            let stmts = statement_kinds(language);
            shape_features(
                ast,
                cfg,
                // Interior nodes only: a path that climbs through a
                // statement-level construct relates two different
                // statements and is out of reach for single-statement
                // relation extractors.
                |kinds| kinds[1..kinds.len() - 1].iter().all(|k| !stmts.contains(k)),
                AstPath::to_string,
            )
        }
    }
}

/// The feature every leaf pair carries under the no-path baseline, in
/// both orientations.
pub const NO_PATH_FEATURE: &str = "rel";

/// One feature per leaf pair whose kind sequence passes `keep`, its
/// path rendered by `render` once per distinct shape: a document's pairs
/// repeat a few shapes many times over, and formatting those repeats
/// was most of the cost of extraction.
fn shape_features(
    ast: &Ast,
    cfg: &ExtractionConfig,
    keep: impl Fn(&[Kind]) -> bool,
    render: impl Fn(&AstPath) -> String,
) -> Vec<EdgeFeature> {
    let mut rendered: ShapeMap<String> = ShapeMap::default();
    let mut out = Vec::new();
    visit_leaf_pairs(ast, cfg, |a, b, up, kinds| {
        if keep(kinds) {
            let feature = rendered
                .get_or_insert_with(kinds, up, || render(&shape_path(kinds, up)))
                .clone();
            out.push(EdgeFeature { a, b, feature });
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pigeon_core::leaf_pair_contexts;

    fn js_ast(src: &str) -> Ast {
        pigeon_js::parse(src).unwrap()
    }

    fn cfg() -> ExtractionConfig {
        ExtractionConfig::with_limits(8, 4)
    }

    /// The paper's Fig. 3: UnuglifyJS-style relations cannot tell the
    /// looping program from the flattened one, AST paths can.
    #[test]
    fn fig3_discriminability() {
        let looping = js_ast(
            "var d = false; while (!d) { doSomething(); if (someCondition()) { d = true; } }",
        );
        let flat = js_ast("someCondition(); doSomething(); var d = false; d = true;");

        let feature_set = |ast: &Ast, rep| {
            let mut fs: Vec<String> = extract_edge_features(Language::JavaScript, ast, rep, &cfg())
                .into_iter()
                .filter(|e| {
                    ast.value(e.a).unwrap().as_str() == "d"
                        || ast.value(e.b).unwrap().as_str() == "d"
                })
                .map(|e| {
                    format!(
                        "{}|{}|{}",
                        ast.value(e.a).unwrap(),
                        e.feature,
                        ast.value(e.b).unwrap()
                    )
                })
                .collect();
            fs.sort();
            fs.dedup();
            fs
        };

        let rel_a = feature_set(&looping, Representation::Relations);
        let rel_b = feature_set(&flat, Representation::Relations);
        assert_eq!(
            rel_a, rel_b,
            "single-statement relations must see the two programs identically"
        );

        let paths_a = feature_set(&looping, Representation::AstPaths(Abstraction::Full));
        let paths_b = feature_set(&flat, Representation::AstPaths(Abstraction::Full));
        assert_ne!(paths_a, paths_b, "AST paths must distinguish them");
    }

    #[test]
    fn no_paths_collapses_features() {
        let ast = js_ast("var a = b + c;");
        let feats =
            extract_edge_features(Language::JavaScript, &ast, Representation::NoPaths, &cfg());
        assert!(!feats.is_empty());
        assert!(feats.iter().all(|e| e.feature == "rel"));
    }

    #[test]
    fn ngram_features_encode_distance_only() {
        let ast = js_ast("f(a, b, c, d);");
        let feats = extract_edge_features(
            Language::JavaScript,
            &ast,
            Representation::NGram { window: 3 },
            &cfg(),
        );
        assert!(feats.iter().all(|e| e.feature.starts_with("gram:")));
        // 5 leaves (f a b c d): pairs at distance <= 3.
        let d1 = feats.iter().filter(|e| e.feature == "gram:1").count();
        assert_eq!(d1, 4);
        let d3 = feats.iter().filter(|e| e.feature == "gram:3").count();
        assert_eq!(d3, 2);
    }

    #[test]
    fn ast_path_features_render_paths() {
        let ast = js_ast("d = true;");
        let feats = extract_edge_features(
            Language::JavaScript,
            &ast,
            Representation::AstPaths(Abstraction::Full),
            &cfg(),
        );
        assert_eq!(feats.len(), 1);
        assert_eq!(feats[0].feature, "SymbolRef ↑ Assign= ↓ True");
    }

    #[test]
    fn abstraction_changes_the_rendered_feature() {
        let ast = js_ast("d = true;");
        let full = extract_edge_features(
            Language::JavaScript,
            &ast,
            Representation::AstPaths(Abstraction::Full),
            &cfg(),
        );
        let fl = extract_edge_features(
            Language::JavaScript,
            &ast,
            Representation::AstPaths(Abstraction::FirstLast),
            &cfg(),
        );
        assert_ne!(full[0].feature, fl[0].feature);
        assert_eq!(fl[0].feature, "SymbolRef True");
    }

    /// Rendering each distinct path once changes no feature: for every
    /// abstraction in every language, the features are exactly the
    /// per-context renderings, in context order.
    #[test]
    fn rendering_each_path_once_equals_rendering_every_context() {
        use pigeon_corpus::{generate, CorpusConfig};
        for language in Language::ALL {
            let corpus = generate(language, &CorpusConfig::default().with_files(3));
            for doc in &corpus.docs {
                let ast = language.parse(&doc.source).unwrap();
                let contexts = leaf_pair_contexts(&ast, &cfg());
                let mut distinct: Vec<_> = contexts.iter().map(|c| &c.path).collect();
                distinct.sort_by_key(|p| p.to_string());
                distinct.dedup();
                assert!(distinct.len() < contexts.len(), "no path repeats");
                for abstraction in Abstraction::ALL {
                    let rep = Representation::AstPaths(abstraction);
                    let features: Vec<(NodeId, NodeId, String)> =
                        extract_edge_features(language, &ast, rep, &cfg())
                            .into_iter()
                            .map(|e| (e.a, e.b, e.feature))
                            .collect();
                    let expected: Vec<(NodeId, NodeId, String)> = match abstraction {
                        Abstraction::NoPath => contexts
                            .iter()
                            .flat_map(|c| {
                                let rel = "rel".to_owned();
                                [
                                    (c.start_node, c.end_node, rel.clone()),
                                    (c.end_node, c.start_node, rel),
                                ]
                            })
                            .collect(),
                        _ => contexts
                            .iter()
                            .map(|c| {
                                let feature = abstraction.apply(&c.path).to_string();
                                (c.start_node, c.end_node, feature)
                            })
                            .collect(),
                    };
                    assert_eq!(features, expected, "{} {abstraction}", language.name());
                }
            }
        }
    }

    #[test]
    fn representation_names_are_informative() {
        assert_eq!(Representation::NGram { window: 3 }.name(), "4-grams");
        assert!(Representation::AstPaths(Abstraction::Full)
            .name()
            .contains("full"));
    }
}
