//! Golden tests: realistic JavaScript programs parse to stable shapes.

use pigeon_ast::pretty;

#[test]
fn paper_fig1a_full_pretty() {
    let ast = pigeon_js::parse("while (!d) { if (someCondition()) { d = true; } }").unwrap();
    assert_eq!(
        pretty(&ast),
        "Toplevel\n\
         \x20 While\n\
         \x20   UnaryPrefix!\n\
         \x20     SymbolRef \"d\"\n\
         \x20   If\n\
         \x20     Call\n\
         \x20       SymbolRef \"someCondition\"\n\
         \x20     Assign=\n\
         \x20       SymbolRef \"d\"\n\
         \x20       True \"true\"\n"
    );
}

#[test]
fn event_handler_module() {
    let src = r#"
var registry = {};

function on(name, handler) {
  var list = registry[name];
  if (!list) {
    list = [];
    registry[name] = list;
  }
  list.push(handler);
}

function emit(name, payload) {
  var handlers = registry[name];
  if (!handlers) {
    return 0;
  }
  for (var i = 0; i < handlers.length; i++) {
    try {
      handlers[i](payload);
    } catch (err) {
      console.error('handler failed: ' + err);
    }
  }
  return handlers.length;
}
"#;
    let ast = pigeon_js::parse(src).unwrap();
    ast.check_invariants().unwrap();
    // Structural spot-checks instead of a full dump.
    assert_eq!(ast.leaves_with_value("registry").len(), 4);
    assert_eq!(ast.leaves_with_value("handlers").len(), 5);
    let kinds: Vec<&str> = ast
        .preorder()
        .map(|n| ast.kind(n).as_str())
        .filter(|k| *k == "Defun")
        .collect();
    assert_eq!(kinds.len(), 2);
}

#[test]
fn promise_style_chains() {
    let src = "fetchUser(id).then(function (user) { return user.profile; })\
               .then(render, function (err) { log(err); });";
    let ast = pigeon_js::parse(src).unwrap();
    let text = pigeon_ast::sexp(&ast);
    assert!(text.contains("(Dot (Call (Dot (Call (SymbolRef fetchUser)"));
    assert!(text.contains("(Function (SymbolFunarg user)"));
}

#[test]
fn mixed_declaration_kinds() {
    let src = "const MAX = 10; let current = 0; var done = false;";
    let text = pigeon_ast::sexp(&pigeon_js::parse(src).unwrap());
    assert!(text.contains("(Const (VarDef (SymbolVar MAX) (Number 10)))"));
    assert!(text.contains("(Let (VarDef (SymbolVar current) (Number 0)))"));
    assert!(text.contains("(Var (VarDef (SymbolVar done) (False false)))"));
}

#[test]
fn nested_ternaries_and_sequences() {
    let src = "state = ready ? running ? 'both' : 'ready' : 'idle';";
    let text = pigeon_ast::sexp(&pigeon_js::parse(src).unwrap());
    assert!(text.contains(
        "(Conditional (SymbolRef ready) (Conditional (SymbolRef running) (String both) \
         (String ready)) (String idle))"
    ));
}

#[test]
fn else_branches_are_marked() {
    let src = "if (a) { f(); } else { g(); h(); }";
    let text = pigeon_ast::sexp(&pigeon_js::parse(src).unwrap());
    assert!(text.contains(
        "(If (SymbolRef a) (Call (SymbolRef f)) (Else (Call (SymbolRef g)) (Call \
         (SymbolRef h))))"
    ));
}

#[test]
fn deeply_nested_loops_keep_invariants() {
    let mut src = String::from("function f(m) {\n");
    for depth in 0..12 {
        src.push_str(&format!(
            "for (var i{depth} = 0; i{depth} < m; i{depth}++) {{\n"
        ));
    }
    src.push_str("touch();\n");
    for _ in 0..12 {
        src.push('}');
    }
    src.push_str("\n}\n");
    let ast = pigeon_js::parse(&src).unwrap();
    ast.check_invariants().unwrap();
    let max_depth = ast.preorder().map(|n| ast.depth(n)).max().unwrap();
    assert!(max_depth >= 13, "nesting depth preserved: {max_depth}");
}
