//! An independent lexical scope and binding resolver, cross-checked
//! against the evaluation layer's element classification.
//!
//! The resolver builds an explicit scope tree in one preorder pass
//! (every function-level node opens a scope; everything else inherits
//! its parent's), collects declaration sites per scope, and groups each
//! identifier occurrence with the binding of its exact enclosing scope —
//! names never declared as variables group file-wide, mirroring the
//! Nice2Predict protocol the paper evaluates under. This is a second,
//! structurally different implementation of the grouping contract in
//! `pigeon_eval::classify_elements`; [`cross_check`] diffs the two and
//! any disagreement is a **hard error**, because a silent divergence
//! between what the resolver binds and what the learner trains on is
//! exactly the class of bug that corrupts reported accuracy.

use crate::diag::{Diagnostic, Severity};
use pigeon_ast::{Ast, NodeId};
use pigeon_corpus::Language;
use pigeon_eval::{Element, ElementClass};
use std::collections::{BTreeMap, BTreeSet};

/// The scope tree of one AST: a root scope plus one scope per
/// function-level node, each knowing its lexical parent.
#[derive(Debug)]
pub struct ScopeTree {
    /// For every node (by preorder index), the index into `scopes` of
    /// the scope that governs it.
    governing: Vec<usize>,
    /// Scopes in preorder of their opening node; index 0 is the root.
    scopes: Vec<Scope>,
}

/// One lexical scope.
#[derive(Debug)]
pub struct Scope {
    /// The node that opens this scope (root, or a function node).
    pub node: NodeId,
    /// Index of the enclosing scope in the tree; `None` for the root.
    pub parent: Option<usize>,
}

/// Function-level kinds, per frontend: the units that open scopes.
pub(crate) fn scope_opening_kinds(language: Language) -> &'static [&'static str] {
    match language {
        Language::JavaScript => &["Arrow", "Defun", "Function"],
        Language::Java => &["ConstructorDecl", "MethodDecl"],
        Language::Python => &["FunctionDef", "Lambda"],
        Language::CSharp => &["ConstructorDeclaration", "MethodDeclaration"],
    }
}

/// Whether `leaf` declares a local variable, parameter or catch binding.
pub(crate) fn declares_variable(language: Language, ast: &Ast, leaf: NodeId) -> bool {
    let kind = ast.kind(leaf).as_str();
    match language {
        Language::JavaScript => matches!(kind, "SymbolCatch" | "SymbolFunarg" | "SymbolVar"),
        Language::Java => matches!(kind, "NameParam" | "NameVar"),
        Language::Python => {
            matches!(kind, "NameParam" | "NameStore")
                && ast.value(leaf).is_some_and(|v| v != "self")
        }
        Language::CSharp => {
            if kind != "Identifier" {
                return false;
            }
            let Some(parent) = ast.parent(leaf) else {
                return false;
            };
            let parent_kind = ast.kind(parent).as_str();
            matches!(
                parent_kind,
                "CatchClause" | "ForEachStatement" | "Parameter"
            ) || (parent_kind == "VariableDeclarator"
                && ast
                    .parent(parent)
                    .is_some_and(|gp| ast.kind(gp).as_str() == "VariableDeclaration"))
        }
    }
}

/// Whether `leaf` declares a method or function name.
fn declares_method(language: Language, ast: &Ast, leaf: NodeId) -> bool {
    let kind = ast.kind(leaf).as_str();
    match language {
        Language::JavaScript => matches!(kind, "SymbolDefun" | "SymbolLambda"),
        Language::Java => kind == "NameMethod",
        Language::Python => kind == "NameFunc",
        Language::CSharp => {
            kind == "Identifier"
                && ast
                    .parent(leaf)
                    .is_some_and(|p| ast.kind(p).as_str() == "MethodDeclaration")
        }
    }
}

impl ScopeTree {
    /// Builds the scope tree in one preorder pass: a node opened by a
    /// function kind starts a new scope whose parent is the scope
    /// governing the function node itself.
    pub fn build(language: Language, ast: &Ast) -> ScopeTree {
        let opening = scope_opening_kinds(language);
        let mut governing = vec![0usize; ast.len()];
        // The scope each function node opens, once its first child is
        // reached.
        let mut opened = vec![usize::MAX; ast.len()];
        let mut scopes = vec![Scope {
            node: ast.root(),
            parent: None,
        }];
        // Preorder guarantees parents are visited before children, so
        // `governing[parent]` is final when a child is reached.
        for id in ast.preorder() {
            let here = match ast.parent(id) {
                None => 0,
                Some(parent) => {
                    if opening.contains(&ast.kind(parent).as_str()) {
                        // The parent node opens a scope; find or create it.
                        if opened[parent.index()] == usize::MAX {
                            opened[parent.index()] = scopes.len();
                            scopes.push(Scope {
                                node: parent,
                                parent: Some(governing[parent.index()]),
                            });
                        }
                        opened[parent.index()]
                    } else {
                        governing[parent.index()]
                    }
                }
            };
            governing[id.index()] = here;
        }
        ScopeTree { governing, scopes }
    }

    /// The scope governing `id` (for a function node: the *enclosing*
    /// scope, not the one it opens).
    pub fn scope_of(&self, id: NodeId) -> usize {
        self.governing[id.index()]
    }

    pub fn scopes(&self) -> &[Scope] {
        &self.scopes
    }
}

/// One resolved binding group: every occurrence of `name` bound
/// together, with the scope (for variables) it binds in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolvedGroup {
    pub name: String,
    /// Index into the scope tree for variable bindings; `None` for
    /// file-wide (non-variable) groups.
    pub scope: Option<usize>,
    pub class: ElementClass,
    /// Occurrence leaves, in leaf order.
    pub occurrences: Vec<NodeId>,
}

/// The resolver output: binding groups plus shadowing observations.
#[derive(Debug)]
pub struct Resolution {
    pub groups: Vec<ResolvedGroup>,
    /// `(name, scope-opening node)` pairs where a declaration shadows
    /// an enclosing scope's declaration of the same name.
    pub shadowed: Vec<(String, NodeId)>,
}

/// Resolves every identifier occurrence in `ast` to a binding group.
pub fn resolve(language: Language, ast: &Ast) -> Resolution {
    resolve_in(language, ast, &ScopeTree::build(language, ast))
}

/// [`resolve`] against an already-built scope tree of `ast`.
pub(crate) fn resolve_in(language: Language, ast: &Ast, tree: &ScopeTree) -> Resolution {
    // Declaration sites per (name, scope), in deterministic name order.
    let mut declared: BTreeMap<&str, BTreeSet<usize>> = BTreeMap::new();
    for &leaf in ast.leaves() {
        if declares_variable(language, ast, leaf) {
            if let Some(name) = ast.value(leaf) {
                declared
                    .entry(name)
                    .or_default()
                    .insert(tree.scope_of(leaf));
            }
        }
    }

    // Group occurrences: variables by exact governing scope, the rest
    // into one file-wide residual group per name.
    let mut variable_groups: BTreeMap<(&str, usize), Vec<NodeId>> = BTreeMap::new();
    let mut residual_groups: BTreeMap<&str, Vec<NodeId>> = BTreeMap::new();
    for &leaf in ast.leaves() {
        let Some(name) = ast.value(leaf) else {
            continue;
        };
        let scope = tree.scope_of(leaf);
        match declared.get(name) {
            Some(scopes) if scopes.contains(&scope) => {
                variable_groups.entry((name, scope)).or_default().push(leaf);
            }
            _ => residual_groups.entry(name).or_default().push(leaf),
        }
    }

    let mut groups = Vec::new();
    for ((name, scope), occurrences) in variable_groups {
        groups.push(ResolvedGroup {
            name: name.to_string(),
            scope: Some(scope),
            class: ElementClass::Variable,
            occurrences,
        });
    }
    for (name, occurrences) in residual_groups {
        let class = if occurrences
            .iter()
            .any(|&l| declares_method(language, ast, l))
        {
            ElementClass::Method
        } else {
            ElementClass::Other
        };
        groups.push(ResolvedGroup {
            name: name.to_string(),
            scope: None,
            class,
            occurrences,
        });
    }

    // Shadowing: a declaration whose enclosing scopes also declare the
    // same name.
    let mut shadowed = Vec::new();
    for (name, scopes) in &declared {
        for &scope in scopes {
            let mut up = tree.scopes[scope].parent;
            while let Some(ancestor) = up {
                if scopes.contains(&ancestor) {
                    shadowed.push((name.to_string(), tree.scopes[scope].node));
                    break;
                }
                up = tree.scopes[ancestor].parent;
            }
        }
    }

    Resolution { groups, shadowed }
}

/// A canonical, comparable form of a binding group: name, class tag,
/// and the sorted occurrence indices.
fn canonical(name: &str, class: ElementClass, occurrences: &[NodeId]) -> (String, u8, Vec<u32>) {
    let tag = match class {
        ElementClass::Variable => 0,
        ElementClass::Method => 1,
        ElementClass::Other => 2,
    };
    let mut occ: Vec<u32> = occurrences.iter().map(|&n| n.index() as u32).collect();
    occ.sort_unstable();
    (name.to_string(), tag, occ)
}

/// Diffs the resolver's binding groups against the evaluation layer's
/// `classify_elements` output for the same tree. Any disagreement —
/// missing occurrences, duplicated occurrences, or differently-shaped
/// groups — is an error: the two implementations encode the same
/// contract and must agree exactly.
pub fn cross_check(
    language: Language,
    unit: &str,
    ast: &Ast,
    elements: &[Element],
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();

    // Every leaf must be covered by the elements exactly once.
    let mut covered = vec![0usize; ast.len()];
    for element in elements {
        for &leaf in &element.occurrences {
            covered[leaf.index()] += 1;
        }
    }
    for &leaf in ast.leaves() {
        match covered[leaf.index()] {
            1 => {}
            0 => diags.push(
                Diagnostic::new(
                    "scope-occurrence-missing",
                    Severity::Error,
                    unit,
                    format!(
                        "leaf {:?} is in no element group",
                        ast.value(leaf).unwrap_or_default()
                    ),
                )
                .with_language(language)
                .with_node(leaf.index() as u32),
            ),
            n => diags.push(
                Diagnostic::new(
                    "scope-occurrence-duplicated",
                    Severity::Error,
                    unit,
                    format!(
                        "leaf {:?} appears in {n} element groups",
                        ast.value(leaf).unwrap_or_default()
                    ),
                )
                .with_language(language)
                .with_node(leaf.index() as u32),
            ),
        }
    }

    // Group-shape agreement, compared in canonical form.
    let resolution = resolve(language, ast);
    let ours: BTreeSet<(String, u8, Vec<u32>)> = resolution
        .groups
        .iter()
        .map(|g| canonical(&g.name, g.class, &g.occurrences))
        .collect();
    let theirs: BTreeSet<(String, u8, Vec<u32>)> = elements
        .iter()
        .map(|e| canonical(&e.name, e.class, &e.occurrences))
        .collect();
    for (name, _, occ) in ours.difference(&theirs) {
        diags.push(
            Diagnostic::new(
                "scope-cross-check",
                Severity::Error,
                unit,
                format!(
                    "resolver binds {name:?} as one group of {} occurrence(s) but the element \
                     classifier groups it differently",
                    occ.len()
                ),
            )
            .with_language(language),
        );
    }
    for (name, _, occ) in theirs.difference(&ours) {
        diags.push(
            Diagnostic::new(
                "scope-cross-check",
                Severity::Error,
                unit,
                format!(
                    "element classifier groups {name:?} as one group of {} occurrence(s) but the \
                     resolver binds it differently",
                    occ.len()
                ),
            )
            .with_language(language),
        );
    }

    // Shadowing is legitimate code, but worth surfacing.
    for (name, scope_node) in &resolution.shadowed {
        diags.push(
            Diagnostic::new(
                "scope-shadowing",
                Severity::Info,
                unit,
                format!("declaration of {name:?} shadows a declaration in an enclosing scope"),
            )
            .with_language(language)
            .with_node(scope_node.index() as u32),
        );
    }

    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use pigeon_eval::classify_elements;

    fn check_language(language: Language, source: &str) {
        let ast = language.parse(source).unwrap();
        let elements = classify_elements(language, &ast);
        let diags = cross_check(language, "u", &ast, &elements);
        let errors: Vec<_> = diags
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .collect();
        assert!(errors.is_empty(), "{language:?}: {errors:?}");
    }

    #[test]
    fn agrees_with_classifier_on_handwritten_sources() {
        check_language(
            Language::JavaScript,
            "function send(url, req) { var done = false; req.open('GET', url, done); }",
        );
        check_language(
            Language::Java,
            "class A { int count(List<Integer> values) { int count = 0; return count; } }",
        );
        check_language(
            Language::Python,
            "class H:\n    def handle(self, request):\n        data = request.body\n        return data\n",
        );
        check_language(
            Language::CSharp,
            "class A { public int Sum(int[] xs) { int total = 0; foreach (var x in xs) { total += x; } return total; } }",
        );
    }

    #[test]
    fn same_name_in_two_functions_is_two_groups() {
        let ast = Language::JavaScript
            .parse("function f(a) { return a; } function g(a) { return a; }")
            .unwrap();
        let resolution = resolve(Language::JavaScript, &ast);
        let a_groups: Vec<_> = resolution.groups.iter().filter(|g| g.name == "a").collect();
        assert_eq!(a_groups.len(), 2);
        assert!(a_groups.iter().all(|g| g.class == ElementClass::Variable));
    }

    #[test]
    fn tampered_grouping_is_detected() {
        // Merge two per-function variable elements into one: the
        // cross-check must flag the disagreement as an error.
        let ast = Language::JavaScript
            .parse("function f(a) { return a; } function g(a) { return a; }")
            .unwrap();
        let mut elements = classify_elements(Language::JavaScript, &ast);
        let mut merged: Vec<Element> = Vec::new();
        for e in elements.drain(..) {
            if e.name == "a" {
                match merged.iter_mut().find(|m| m.name == "a") {
                    Some(m) => m.occurrences.extend(e.occurrences),
                    None => merged.push(e),
                }
            } else {
                merged.push(e);
            }
        }
        let diags = cross_check(Language::JavaScript, "u", &ast, &merged);
        assert!(diags.iter().any(|d| d.code == "scope-cross-check"));
    }

    #[test]
    fn dropped_occurrence_is_detected() {
        let ast = Language::Python.parse("def f(x):\n    return x\n").unwrap();
        let mut elements = classify_elements(Language::Python, &ast);
        let victim = elements.iter_mut().find(|e| e.name == "x").unwrap();
        victim.occurrences.pop();
        let diags = cross_check(Language::Python, "u", &ast, &elements);
        assert!(diags.iter().any(|d| d.code == "scope-occurrence-missing"));
    }

    #[test]
    fn shadowing_is_reported_as_info() {
        // An inner function redeclares `x` declared in the outer one.
        let ast = Language::JavaScript
            .parse("function f() { var x = 1; var g = function (x) { return x; }; return g(x); }")
            .unwrap();
        let resolution = resolve(Language::JavaScript, &ast);
        assert!(resolution.shadowed.iter().any(|(name, _)| name == "x"));
        let elements = classify_elements(Language::JavaScript, &ast);
        let diags = cross_check(Language::JavaScript, "u", &ast, &elements);
        let shadow: Vec<_> = diags
            .iter()
            .filter(|d| d.code == "scope-shadowing")
            .collect();
        assert!(!shadow.is_empty());
        assert!(shadow.iter().all(|d| d.severity == Severity::Info));
    }

    #[test]
    fn agrees_on_generated_corpora_for_all_languages() {
        for language in Language::ALL {
            let corpus = pigeon_corpus::generate(
                language,
                &pigeon_corpus::CorpusConfig::default().with_files(10),
            );
            for (i, doc) in corpus.docs.iter().enumerate() {
                let ast = language.parse(&doc.source).unwrap();
                let elements = classify_elements(language, &ast);
                let diags = cross_check(language, &format!("doc{i}"), &ast, &elements);
                let errors: Vec<_> = diags
                    .iter()
                    .filter(|d| d.severity == Severity::Error)
                    .collect();
                assert!(errors.is_empty(), "{language:?} doc{i}: {errors:?}");
            }
        }
    }
}
