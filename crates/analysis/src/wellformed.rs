//! AST well-formedness: structural arena invariants plus per-frontend
//! grammar invariants.
//!
//! The structural pass re-derives parent links, child indices, depths
//! and reachability from the child lists alone and compares them with
//! the arena's stored redundant fields — the same ground `Ast`'s own
//! `check_invariants` covers, but reported as positioned diagnostics
//! instead of a single opaque string. The grammar pass knows, for each
//! language frontend, which kinds are terminals, which are interior
//! nodes, what arity the grammar forces on operator-like kinds, and what
//! shape identifier values must have. The tables below encode what the
//! parsers in `crates/{js,java,python,csharp}` can actually emit — they
//! deliberately do **not** encode the narrower shapes the synthetic
//! generators happen to produce, so hand-written source audits cleanly.

use crate::diag::{Diagnostic, Severity};
use pigeon_ast::{Ast, NodeId};
use pigeon_corpus::Language;

/// Whether the grammar tables recognise `kind` as a leaf kind, an
/// interior kind, or neither (unknown kinds are left unchecked so the
/// frontends can grow without breaking the audit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KindClass {
    Terminal,
    Nonterminal,
    Unknown,
}

/// Terminal kinds each frontend emits (`TreeNode::leaf` call sites).
fn terminal_kinds(language: Language) -> &'static [&'static str] {
    match language {
        Language::JavaScript => &[
            "False",
            "Null",
            "Number",
            "Property",
            "String",
            "SymbolCatch",
            "SymbolDefun",
            "SymbolFunarg",
            "SymbolLambda",
            "SymbolRef",
            "SymbolVar",
            "True",
        ],
        Language::Java => &[
            "BooleanLit",
            "IntLit",
            "NameCall",
            "NameClass",
            "NameField",
            "NameMethod",
            "NameParam",
            "NameRef",
            "NameVar",
            "NullLit",
            "PrimitiveType",
            "StringLit",
            "TypeName",
        ],
        Language::Python => &[
            "AttrName",
            "Name",
            "NameConstant",
            "NameFunc",
            "NameParam",
            "NameStore",
            "Num",
            "Str",
        ],
        Language::CSharp => &[
            "FalseLiteral",
            "Identifier",
            "IdentifierName",
            "Modifier",
            "Name",
            "NullLiteral",
            "NumericLiteral",
            "PredefinedType",
            "StringLiteral",
            "TrueLiteral",
            "TypeName",
        ],
    }
}

/// Interior kinds each frontend emits with a fixed, non-operator name
/// (`TreeNode::inner` call sites). Operator families with formatted
/// names (`Binary+`, `Assign-=`, …) are matched by prefix instead.
fn nonterminal_kinds(language: Language) -> &'static [&'static str] {
    match language {
        Language::JavaScript => &[
            "Array",
            "Arrow",
            "Block",
            "Call",
            "Case",
            "Catch",
            "Conditional",
            "Default",
            "Defun",
            "Do",
            "Dot",
            "Else",
            "Finally",
            "For",
            "ForIn",
            "ForOf",
            "Function",
            "If",
            "New",
            "Object",
            "ObjectProp",
            "Return",
            "Seq",
            "Sub",
            "Switch",
            "Throw",
            "Toplevel",
            "Try",
            "VarDef",
            "While",
        ],
        Language::Java => &[
            "ArrayAccess",
            "ArrayCreation",
            "ArrayType",
            "Block",
            "Case",
            "Cast",
            "ClassDecl",
            "ClassType",
            "CompilationUnit",
            "Conditional",
            "ConstructorDecl",
            "Default",
            "Do",
            "ExpressionStmt",
            "Extends",
            "FieldDecl",
            "Finally",
            "For",
            "If",
            "Implements",
            "InstanceOf",
            "LocalVar",
            "MethodCall",
            "MethodDecl",
            "ObjectCreation",
            "Parameter",
            "Return",
            "Switch",
            "Throw",
            "Throws",
            "Try",
            "TypeArgs",
            "VariableDeclarator",
            "While",
        ],
        Language::Python => &[
            "Assign",
            "Attribute",
            "Base",
            "Body",
            "Call",
            "ClassDef",
            "DefaultParam",
            "Delete",
            "Dict",
            "DictItem",
            "ExceptHandler",
            "ExceptType",
            "Expr",
            "Finally",
            "For",
            "FunctionDef",
            "Global",
            "If",
            "IfExp",
            "Import",
            "ImportFrom",
            "Lambda",
            "List",
            "Lower",
            "Module",
            "OrElse",
            "Raise",
            "Return",
            "Slice",
            "Subscript",
            "Try",
            "Tuple",
            "TupleStore",
            "Upper",
            "While",
            "With",
        ],
        Language::CSharp => &[
            "AccessorList",
            "Argument",
            "ArgumentList",
            "ArrowExpressionClause",
            "ArrayType",
            "AsExpression",
            "BaseList",
            "Block",
            "BracketedArgumentList",
            "CaseSwitchLabel",
            "CatchClause",
            "ClassDeclaration",
            "CoalesceExpression",
            "CompilationUnit",
            "ConstructorDeclaration",
            "DefaultSwitchLabel",
            "DoStatement",
            "ElementAccessExpression",
            "EqualsValueClause",
            "ExpressionStatement",
            "FieldDeclaration",
            "FinallyClause",
            "ForEachStatement",
            "ForStatement",
            "IfStatement",
            "InvocationExpression",
            "IsExpression",
            "LocalDeclarationStatement",
            "MethodDeclaration",
            "NamespaceDeclaration",
            "NullableType",
            "ObjectCreationExpression",
            "ParameterList",
            "Parameter",
            "PropertyDeclaration",
            "ReturnStatement",
            "SimpleMemberAccessExpression",
            "SwitchStatement",
            "ThrowStatement",
            "TryStatement",
            "TypeArgumentList",
            "VariableDeclaration",
            "VariableDeclarator",
            "WhileStatement",
        ],
    }
}

/// Formatted operator-kind prefixes that are always interior nodes.
fn nonterminal_prefixes(language: Language) -> &'static [&'static str] {
    match language {
        Language::JavaScript => &["Assign", "Binary", "UnaryPrefix", "UnaryPostfix"],
        Language::Java => &["Assign", "Binary", "UnaryPrefix", "UnaryPostfix"],
        Language::Python => &["AugAssign", "BinOp", "BoolOp", "Compare", "UnaryOp"],
        Language::CSharp => &[
            "AssignmentExpression",
            "BinaryExpression",
            "PrefixUnaryExpression",
            "PostfixUnaryExpression",
        ],
    }
}

fn classify_kind(language: Language, kind: &str) -> KindClass {
    if terminal_kinds(language).contains(&kind) {
        return KindClass::Terminal;
    }
    if nonterminal_kinds(language).contains(&kind)
        || nonterminal_prefixes(language)
            .iter()
            .any(|p| kind.starts_with(p))
    {
        return KindClass::Nonterminal;
    }
    KindClass::Unknown
}

/// Grammar-forced child-count bounds `(min, max)` for `kind`, or `None`
/// when the grammar admits any count. Only bounds the parser itself
/// cannot violate are listed; generator-specific narrower shapes are
/// intentionally excluded.
fn arity_bounds(language: Language, kind: &str) -> Option<(usize, Option<usize>)> {
    let exactly = |n: usize| Some((n, Some(n)));
    // Operator families are shared across languages: binary forms take
    // exactly two operands, unary forms exactly one.
    let binary_prefixes: &[&str] = match language {
        Language::JavaScript | Language::Java => &["Assign", "Binary"],
        Language::Python => &["AugAssign", "BinOp", "BoolOp", "Compare"],
        Language::CSharp => &["AssignmentExpression", "BinaryExpression"],
    };
    let unary_prefixes: &[&str] = match language {
        Language::JavaScript | Language::Java => &["UnaryPrefix", "UnaryPostfix"],
        Language::Python => &["UnaryOp"],
        Language::CSharp => &["PrefixUnaryExpression", "PostfixUnaryExpression"],
    };
    if binary_prefixes.iter().any(|p| kind.starts_with(p)) {
        return exactly(2);
    }
    if unary_prefixes.iter().any(|p| kind.starts_with(p)) {
        return exactly(1);
    }
    match language {
        Language::JavaScript => match kind {
            "Conditional" => exactly(3),
            "Dot" | "Sub" | "Do" => exactly(2),
            "Throw" => exactly(1),
            "VarDef" => Some((1, Some(2))),
            "Call" | "New" | "Seq" => Some((1, None)),
            _ => None,
        },
        Language::Java => match kind {
            "Conditional" => exactly(3),
            "ArrayAccess" | "ArrayCreation" | "Cast" | "Do" | "InstanceOf" | "Parameter"
            | "While" => exactly(2),
            "ExpressionStmt" | "Extends" | "Finally" | "Throw" => exactly(1),
            "VariableDeclarator" => Some((1, Some(2))),
            "LocalVar" | "FieldDecl" => Some((2, None)),
            _ => None,
        },
        Language::Python => match kind {
            "IfExp" => exactly(3),
            "Attribute" | "DefaultParam" | "DictItem" | "Subscript" => exactly(2),
            "Base" | "Delete" | "ExceptType" | "Expr" | "Lower" | "Upper" => exactly(1),
            "Assign" => Some((2, None)),
            "OrElse" | "Global" | "Import" => Some((1, None)),
            _ => None,
        },
        Language::CSharp => match kind {
            "AsExpression"
            | "CoalesceExpression"
            | "DoStatement"
            | "ElementAccessExpression"
            | "InvocationExpression"
            | "IsExpression"
            | "Parameter"
            | "SimpleMemberAccessExpression"
            | "WhileStatement" => exactly(2),
            "Argument"
            | "ArrowExpressionClause"
            | "ArrayType"
            | "BracketedArgumentList"
            | "EqualsValueClause"
            | "ExpressionStatement"
            | "FinallyClause"
            | "NullableType"
            | "ThrowStatement" => exactly(1),
            "VariableDeclarator" => Some((1, Some(2))),
            "VariableDeclaration" => Some((2, None)),
            _ => None,
        },
    }
}

/// Interior kinds the grammar allows to be childless (`[]`, `{}`,
/// `break;`, empty parameter lists, …). Any other childless interior
/// node is suspicious enough to warn about.
fn childless_ok(language: Language, kind: &str) -> bool {
    let list: &[&str] = match language {
        Language::JavaScript => &["Array", "Block", "Object", "Toplevel"],
        Language::Java => &["Block", "CompilationUnit"],
        Language::Python => &["Dict", "List", "Module", "Tuple"],
        Language::CSharp => &["ArgumentList", "Block", "CompilationUnit", "ParameterList"],
    };
    list.contains(&kind)
}

/// Kinds whose value must look like an identifier. The second set
/// additionally admits `.`-joined qualified names.
fn identifier_kinds(language: Language) -> (&'static [&'static str], &'static [&'static str]) {
    match language {
        Language::JavaScript => (
            &[
                "Property",
                "SymbolCatch",
                "SymbolDefun",
                "SymbolFunarg",
                "SymbolLambda",
                "SymbolRef",
                "SymbolVar",
            ],
            &[],
        ),
        Language::Java => (
            &[
                "NameCall",
                "NameClass",
                "NameField",
                "NameMethod",
                "NameParam",
                "NameRef",
                "NameVar",
            ],
            &["TypeName"],
        ),
        Language::Python => (
            &[
                "AttrName",
                "Name",
                "NameConstant",
                "NameFunc",
                "NameParam",
                "NameStore",
            ],
            &[],
        ),
        Language::CSharp => (
            &["Identifier", "IdentifierName", "Modifier"],
            &["Name", "TypeName"],
        ),
    }
}

fn is_identifier(value: &str, allow_dots: bool) -> bool {
    let mut chars = value.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    if !(first.is_ascii_alphabetic() || first == '_' || first == '$') {
        return false;
    }
    value
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '$' || (allow_dots && c == '.'))
}

/// Runs both well-formedness passes over `ast`, reporting findings
/// against `unit`.
pub fn check_ast(language: Language, unit: &str, ast: &Ast) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    check_structure(language, unit, ast, &mut diags);
    check_grammar(language, unit, ast, &mut diags);
    diags
}

/// Re-derives the arena's redundant structure from the child lists and
/// flags every disagreement.
fn check_structure(language: Language, unit: &str, ast: &Ast, diags: &mut Vec<Diagnostic>) {
    let mut err = |code: &'static str, node: NodeId, message: String| {
        diags.push(
            Diagnostic::new(code, Severity::Error, unit, message)
                .with_language(language)
                .with_node(node.index() as u32),
        );
    };
    let ids: Vec<NodeId> = ast.preorder().collect();
    let mut times_child = vec![0usize; ids.len()];
    for &id in &ids {
        for (pos, &child) in ast.children(id).iter().enumerate() {
            times_child[child.index()] += 1;
            if times_child[child.index()] > 1 {
                err(
                    "ast-duplicate-child",
                    child,
                    format!(
                        "node appears in more than one child list (again under node {})",
                        id.index()
                    ),
                );
                continue;
            }
            if ast.parent(child) != Some(id) {
                err(
                    "ast-parent-link",
                    child,
                    format!(
                        "stored parent {:?} disagrees with actual parent {}",
                        ast.parent(child).map(|p| p.index()),
                        id.index()
                    ),
                );
            }
            if ast.child_index(child) != pos {
                err(
                    "ast-child-index",
                    child,
                    format!(
                        "stored child index {} but node is child #{} of node {}",
                        ast.child_index(child),
                        pos,
                        id.index()
                    ),
                );
            }
            if ast.depth(child) != ast.depth(id) + 1 {
                err(
                    "ast-depth",
                    child,
                    format!(
                        "stored depth {} but parent {} has depth {}",
                        ast.depth(child),
                        id.index(),
                        ast.depth(id)
                    ),
                );
            }
        }
        if ast.is_terminal(id) && !ast.children(id).is_empty() {
            err(
                "ast-terminal-children",
                id,
                format!(
                    "terminal node (kind {}) has {} children",
                    ast.kind(id).as_str(),
                    ast.children(id).len()
                ),
            );
        }
    }
    let root = ast.root();
    if times_child[root.index()] > 0 {
        err(
            "ast-root-is-child",
            root,
            "root appears in a child list".to_string(),
        );
    }
    if ast.parent(root).is_some() {
        err(
            "ast-parent-link",
            root,
            "root has a stored parent".to_string(),
        );
    }
    for &id in &ids {
        if id != root && times_child[id.index()] == 0 {
            err(
                "ast-orphan",
                id,
                format!(
                    "node (kind {}) is unreachable from the root",
                    ast.kind(id).as_str()
                ),
            );
        }
    }
}

/// Checks the per-language grammar tables: kind classification, forced
/// arities, childless interior nodes and identifier value shape.
fn check_grammar(language: Language, unit: &str, ast: &Ast, diags: &mut Vec<Diagnostic>) {
    let (ident_plain, ident_dotted) = identifier_kinds(language);
    for id in ast.preorder() {
        let kind = ast.kind(id).as_str();
        let terminal = ast.is_terminal(id);
        match classify_kind(language, kind) {
            KindClass::Terminal if !terminal => diags.push(
                Diagnostic::new(
                    "ast-kind-class",
                    Severity::Error,
                    unit,
                    format!("kind {kind} is a {language:?} terminal but the node carries no value"),
                )
                .with_language(language)
                .with_node(id.index() as u32),
            ),
            KindClass::Nonterminal if terminal => diags.push(
                Diagnostic::new(
                    "ast-kind-class",
                    Severity::Error,
                    unit,
                    format!(
                        "kind {kind} is a {language:?} interior kind but the node carries value {:?}",
                        ast.value(id).unwrap_or_default()
                    ),
                )
                .with_language(language)
                .with_node(id.index() as u32),
            ),
            _ => {}
        }
        if !terminal {
            let n = ast.children(id).len();
            if let Some((min, max)) = arity_bounds(language, kind) {
                let bad = n < min || max.is_some_and(|m| n > m);
                if bad {
                    let expected = match max {
                        Some(m) if m == min => format!("{min}"),
                        Some(m) => format!("{min}..={m}"),
                        None => format!("at least {min}"),
                    };
                    diags.push(
                        Diagnostic::new(
                            "ast-arity",
                            Severity::Error,
                            unit,
                            format!("kind {kind} requires {expected} children, found {n}"),
                        )
                        .with_language(language)
                        .with_node(id.index() as u32),
                    );
                }
            } else if n == 0
                && classify_kind(language, kind) == KindClass::Nonterminal
                && !childless_ok(language, kind)
            {
                diags.push(
                    Diagnostic::new(
                        "ast-empty-nonterminal",
                        Severity::Warning,
                        unit,
                        format!("interior kind {kind} has no children"),
                    )
                    .with_language(language)
                    .with_node(id.index() as u32),
                );
            }
        } else if let Some(value) = ast.value(id) {
            let dotted = ident_dotted.contains(&kind);
            if (ident_plain.contains(&kind) || dotted) && !is_identifier(value, dotted) {
                diags.push(
                    Diagnostic::new(
                        "ast-ident-shape",
                        Severity::Error,
                        unit,
                        format!("kind {kind} carries non-identifier value {value:?}"),
                    )
                    .with_language(language)
                    .with_node(id.index() as u32),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pigeon_ast::AstBuilder;

    #[test]
    fn clean_tree_produces_no_diagnostics() {
        let ast = Language::JavaScript
            .parse("function f(a) { return a + 1; }")
            .unwrap();
        assert_eq!(check_ast(Language::JavaScript, "u", &ast), Vec::new());
    }

    #[test]
    fn corrupted_parent_link_is_reported() {
        let mut ast = Language::JavaScript
            .parse("function f(a) { return a; }")
            .unwrap();
        let victim = ast.preorder().nth(2).unwrap();
        ast.corrupt_parent_for_tests(victim, None);
        let diags = check_ast(Language::JavaScript, "u", &ast);
        assert!(diags.iter().any(|d| d.code == "ast-parent-link"));
    }

    #[test]
    fn corrupted_child_index_is_reported() {
        let mut ast = Language::Java
            .parse("class A { int f(int x) { return x; } }")
            .unwrap();
        let victim = ast.preorder().nth(3).unwrap();
        ast.corrupt_child_index_for_tests(victim, 99);
        let diags = check_ast(Language::Java, "u", &ast);
        assert!(diags.iter().any(|d| d.code == "ast-child-index"));
    }

    #[test]
    fn nonterminal_kind_with_value_is_reported() {
        // A `While` carrying a value is grammatically impossible output
        // for the JS frontend.
        let mut b = AstBuilder::new("Toplevel");
        b.token("While", "x");
        let ast = b.finish();
        let diags = check_ast(Language::JavaScript, "u", &ast);
        assert!(diags.iter().any(|d| d.code == "ast-kind-class"));
    }

    #[test]
    fn terminal_kind_without_value_is_reported() {
        let mut b = AstBuilder::new("Module");
        b.start_node("Name");
        b.finish_node();
        let ast = b.finish();
        let diags = check_ast(Language::Python, "u", &ast);
        assert!(diags.iter().any(|d| d.code == "ast-kind-class"));
    }

    #[test]
    fn binary_operator_with_one_child_is_reported() {
        let mut b = AstBuilder::new("Toplevel");
        b.start_node("Binary+");
        b.token("SymbolRef", "a");
        b.finish_node();
        let ast = b.finish();
        let diags = check_ast(Language::JavaScript, "u", &ast);
        assert!(diags.iter().any(|d| d.code == "ast-arity"));
    }

    #[test]
    fn childless_interior_node_is_a_warning() {
        let mut b = AstBuilder::new("CompilationUnit");
        b.start_node("IfStatement");
        b.finish_node();
        let ast = b.finish();
        let diags = check_ast(Language::CSharp, "u", &ast);
        let d = diags
            .iter()
            .find(|d| d.code == "ast-empty-nonterminal")
            .expect("warning fires");
        assert_eq!(d.severity, Severity::Warning);
    }

    #[test]
    fn malformed_identifier_value_is_reported() {
        let mut b = AstBuilder::new("Module");
        b.token("Name", "not an identifier!");
        let ast = b.finish();
        let diags = check_ast(Language::Python, "u", &ast);
        assert!(diags.iter().any(|d| d.code == "ast-ident-shape"));
    }

    #[test]
    fn all_languages_parse_their_own_corpora_cleanly() {
        for language in Language::ALL {
            let corpus = pigeon_corpus::generate(
                language,
                &pigeon_corpus::CorpusConfig::default().with_files(8),
            );
            for (i, doc) in corpus.docs.iter().enumerate() {
                let ast = language.parse(&doc.source).unwrap();
                let diags = check_ast(language, &format!("doc{i}"), &ast);
                assert!(diags.is_empty(), "{language:?} doc{i}: {diags:?}");
            }
        }
    }
}
