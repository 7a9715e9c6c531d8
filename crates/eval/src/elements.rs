//! Program-element classification per language.
//!
//! A *program element* is the set of leaves sharing one identifier. For
//! each prediction task some elements are unknown (stripped, to be
//! predicted) and the rest are given — exactly the protocol of the
//! paper: for variable naming, local variables and parameters are
//! unknown; for method naming "all the other names in the method are
//! given" (§1). Classification keys off each frontend's declaration-site
//! terminal kinds.

use pigeon_ast::{Ast, Kind, NodeId};
use pigeon_corpus::Language;

/// What a program element is, for task selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElementClass {
    /// A local variable, parameter or catch binding.
    Variable,
    /// A declared method/function name.
    Method,
    /// Anything else: literals, properties, API names, types, …
    Other,
}

impl ElementClass {
    /// The prediction-target name model files, artifacts and partials
    /// carry.
    pub fn name(self) -> &'static str {
        match self {
            ElementClass::Variable => "variables",
            ElementClass::Method => "methods",
            ElementClass::Other => "other",
        }
    }

    /// Parses a class from its [`name`](ElementClass::name).
    pub fn from_name(name: &str) -> Option<ElementClass> {
        [
            ElementClass::Variable,
            ElementClass::Method,
            ElementClass::Other,
        ]
        .into_iter()
        .find(|c| c.name() == name)
    }
}

/// Whether `leaf` is a declaration site of a local variable or parameter.
fn is_var_decl(language: Language, ast: &Ast, leaf: NodeId) -> bool {
    let kind = ast.kind(leaf).as_str();
    match language {
        Language::JavaScript => {
            matches!(kind, "SymbolVar" | "SymbolFunarg" | "SymbolCatch")
        }
        Language::Java => matches!(kind, "NameVar" | "NameParam"),
        Language::Python => {
            if kind != "NameStore" && kind != "NameParam" {
                return false;
            }
            // `self` is a convention, not a choice worth predicting.
            ast.value(leaf).is_some_and(|v| v != "self")
        }
        Language::CSharp => {
            if kind != "Identifier" {
                return false;
            }
            let Some(parent) = ast.parent(leaf) else {
                return false;
            };
            match ast.kind(parent).as_str() {
                "Parameter" | "ForEachStatement" | "CatchClause" => true,
                "VariableDeclarator" => ast
                    .parent(parent)
                    .is_some_and(|gp| ast.kind(gp).as_str() == "VariableDeclaration"),
                _ => false,
            }
        }
    }
}

/// Whether `leaf` is a declaration site of a method/function name.
fn is_method_decl(language: Language, ast: &Ast, leaf: NodeId) -> bool {
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

/// One grouped element with its class.
#[derive(Debug, Clone)]
pub struct Element {
    /// The shared identifier text.
    pub name: String,
    /// All leaves carrying it.
    pub occurrences: Vec<NodeId>,
    /// The element's classification.
    pub class: ElementClass,
}

/// Function-level node kinds: the scoping units for local variables.
fn function_kinds(language: Language) -> &'static [&'static str] {
    match language {
        Language::JavaScript => &["Defun", "Function", "Arrow"],
        Language::Java => &["MethodDecl", "ConstructorDecl"],
        Language::Python => &["FunctionDef", "Lambda"],
        Language::CSharp => &["MethodDeclaration", "ConstructorDeclaration"],
    }
}

/// The nearest enclosing function node of `leaf`, or the root.
fn scope_of(language: Language, ast: &Ast, leaf: NodeId) -> NodeId {
    let kinds = function_kinds(language);
    ast.ancestors(leaf)
        .find(|&a| kinds.contains(&ast.kind(a).as_str()))
        .unwrap_or_else(|| ast.root())
}

/// Groups the leaves of `ast` into classified elements.
///
/// Local variables are **scope-resolved**: a name declared as a variable
/// in a function forms one element per declaring function, binding the
/// occurrences of that name inside the same function. This mirrors
/// Nice2Predict, where CRF nodes come from scoped identifier resolution —
/// the same variable name in two functions is two independent prediction
/// targets. Names never declared as variables (method names, properties,
/// literals, API calls) group file-wide.
pub fn classify_elements(language: Language, ast: &Ast) -> Vec<Element> {
    let mut out = Vec::new();
    for (name, occurrences) in pigeon_core::element_occurrences(ast) {
        // Scopes in which this name is declared as a variable.
        let mut var_scopes: Vec<NodeId> = occurrences
            .iter()
            .filter(|&&l| is_var_decl(language, ast, l))
            .map(|&l| scope_of(language, ast, l))
            .collect();
        var_scopes.sort_unstable();
        var_scopes.dedup();

        let mut residual: Vec<NodeId> = Vec::new();
        let mut per_scope: Vec<(NodeId, Vec<NodeId>)> =
            var_scopes.iter().map(|&s| (s, Vec::new())).collect();
        for &leaf in &occurrences {
            let scope = scope_of(language, ast, leaf);
            // `per_scope` follows the sorted `var_scopes`.
            match per_scope.binary_search_by_key(&scope, |(s, _)| *s) {
                Ok(i) => per_scope[i].1.push(leaf),
                Err(_) => residual.push(leaf),
            }
        }
        for (_, bucket) in per_scope {
            out.push(Element {
                name: name.to_owned(),
                occurrences: bucket,
                class: ElementClass::Variable,
            });
        }
        if !residual.is_empty() {
            let is_method = residual.iter().any(|&l| is_method_decl(language, ast, l));
            out.push(Element {
                name: name.to_owned(),
                occurrences: residual,
                class: if is_method {
                    ElementClass::Method
                } else {
                    ElementClass::Other
                },
            });
        }
    }
    out
}

/// Finds the initializer expression node of the typed declaration of
/// `var` (for the full-type task): the second child of the
/// `VariableDeclarator` whose name leaf carries `var`.
pub fn find_initializer(ast: &Ast, var: &str) -> Option<NodeId> {
    let declarator_kind = Kind::new("VariableDeclarator");
    for &leaf in ast.leaves() {
        if ast.value(leaf) == Some(var) && ast.kind(leaf).as_str() == "NameVar" {
            let parent = ast.parent(leaf)?;
            if ast.kind(parent) == declarator_kind {
                let children = ast.children(parent);
                if children.len() >= 2 {
                    return Some(children[1]);
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_names_round_trip() {
        for class in [
            ElementClass::Variable,
            ElementClass::Method,
            ElementClass::Other,
        ] {
            assert_eq!(ElementClass::from_name(class.name()), Some(class));
        }
        assert_eq!(ElementClass::from_name("vars"), None);
        assert_eq!(ElementClass::from_name("garbage"), None);
    }

    fn classes(language: Language, src: &str) -> Vec<(String, ElementClass)> {
        let ast = language.parse(src).unwrap();
        classify_elements(language, &ast)
            .into_iter()
            .map(|e| (e.name, e.class))
            .collect()
    }

    fn class_of(v: &[(String, ElementClass)], name: &str) -> ElementClass {
        v.iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("{name} not found in {v:?}"))
            .1
    }

    #[test]
    fn js_classification() {
        let v = classes(
            Language::JavaScript,
            "function send(url, req) { var done = false; req.open('GET', url, done); }",
        );
        assert_eq!(class_of(&v, "send"), ElementClass::Method);
        assert_eq!(class_of(&v, "url"), ElementClass::Variable);
        assert_eq!(class_of(&v, "req"), ElementClass::Variable);
        assert_eq!(class_of(&v, "done"), ElementClass::Variable);
        assert_eq!(class_of(&v, "open"), ElementClass::Other);
        assert_eq!(class_of(&v, "GET"), ElementClass::Other);
    }

    #[test]
    fn java_classification() {
        let v = classes(
            Language::Java,
            "class A { int count(List<Integer> values) { int count = 0; for (int v : \
             values) { count++; } return count; } }",
        );
        // `count` is both a method name and a local: the variable wins.
        assert_eq!(class_of(&v, "count"), ElementClass::Variable);
        assert_eq!(class_of(&v, "values"), ElementClass::Variable);
        assert_eq!(class_of(&v, "v"), ElementClass::Variable);
        assert_eq!(class_of(&v, "A"), ElementClass::Other);
        assert_eq!(class_of(&v, "List"), ElementClass::Other);
    }

    #[test]
    fn python_classification_skips_self() {
        let v = classes(
            Language::Python,
            "class H:\n    def handle(self, request):\n        data = request.body\n        \
             return data\n",
        );
        assert_eq!(class_of(&v, "handle"), ElementClass::Method);
        assert_eq!(class_of(&v, "request"), ElementClass::Variable);
        assert_eq!(class_of(&v, "data"), ElementClass::Variable);
        assert_eq!(class_of(&v, "self"), ElementClass::Other);
        assert_eq!(class_of(&v, "body"), ElementClass::Other);
    }

    #[test]
    fn csharp_classification() {
        let v = classes(
            Language::CSharp,
            "class A { public int Sum(int[] xs) { int total = 0; foreach (var x in xs) { \
             total += x; } return total; } }",
        );
        assert_eq!(class_of(&v, "Sum"), ElementClass::Method);
        assert_eq!(class_of(&v, "total"), ElementClass::Variable);
        assert_eq!(class_of(&v, "x"), ElementClass::Variable);
        assert_eq!(class_of(&v, "xs"), ElementClass::Variable);
        assert_eq!(class_of(&v, "A"), ElementClass::Other);
    }

    #[test]
    fn csharp_fields_are_not_variables() {
        let v = classes(Language::CSharp, "class A { int count; }");
        assert_eq!(class_of(&v, "count"), ElementClass::Other);
    }

    #[test]
    fn find_initializer_locates_the_expression() {
        let ast = Language::Java
            .parse("class A { void f(String raw) { String message = raw.trim(); } }")
            .unwrap();
        let init = find_initializer(&ast, "message").expect("initializer exists");
        assert_eq!(ast.kind(init).as_str(), "MethodCall");
        assert_eq!(find_initializer(&ast, "absent"), None);
    }
}
