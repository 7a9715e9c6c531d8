//! Golden tests: realistic Python programs parse to stable shapes.

#[test]
fn paper_fig7_sh3_full_pipeline() {
    // The paper's Fig. 7 Popen wrapper (predicted names column).
    let src = "def sh3(cmd):\n    process = Popen(cmd, stdout=PIPE, stderr=PIPE, \
               shell=True)\n    out, err = process.communicate()\n    retcode = \
               process.returncode\n    if retcode:\n        raise \
               CalledProcessError(retcode, cmd)\n    else:\n        return out.rstrip(), \
               err.rstrip()\n";
    let ast = pigeon_python::parse(src).unwrap();
    ast.check_invariants().unwrap();
    let text = pigeon_ast::sexp(&ast);
    assert!(text.contains(
        "(Assign (TupleStore (NameStore out) (NameStore err)) (Call (Attribute (Name \
         process) (AttrName communicate))))"
    ));
    assert!(text.contains("(Raise (Call (Name CalledProcessError) (Name retcode) (Name cmd)))"));
    assert!(text.contains(
        "(Return (Tuple (Call (Attribute (Name out) (AttrName rstrip))) (Call \
         (Attribute (Name err) (AttrName rstrip)))))"
    ));
    assert_eq!(ast.leaves_with_value("process").len(), 3);
}

#[test]
fn class_with_state_machine() {
    let src = r#"
class Tokenizer:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def peek(self):
        if self.pos < len(self.text):
            return self.text[self.pos]
        return None

    def advance(self):
        ch = self.peek()
        if ch is not None:
            self.pos += 1
        return ch

def tokenize(text):
    scanner = Tokenizer(text)
    tokens = []
    while True:
        ch = scanner.advance()
        if ch is None:
            break
        if ch != ' ':
            tokens.append(ch)
    return tokens
"#;
    let ast = pigeon_python::parse(src).unwrap();
    ast.check_invariants().unwrap();
    let defs = ast
        .preorder()
        .filter(|&n| ast.kind(n).as_str() == "FunctionDef")
        .count();
    assert_eq!(defs, 4);
    let classes = ast
        .preorder()
        .filter(|&n| ast.kind(n).as_str() == "ClassDef")
        .count();
    assert_eq!(classes, 1);
}

#[test]
fn comprehension_free_loops_with_slices() {
    let src = "def window(xs, k):\n    out = []\n    for i in range(len(xs)):\n        \
               chunk = xs[i:i + k]\n        if len(chunk) == k:\n            \
               out.append(chunk)\n    return out\n";
    let text = pigeon_ast::sexp(&pigeon_python::parse(src).unwrap());
    assert!(text.contains(
        "(Subscript (Name xs) (Slice (Lower (Name i)) (Upper (BinOp+ (Name i) (Name \
         k)))))"
    ));
}

#[test]
fn chained_boolean_logic_keeps_shape() {
    let src = "ok = a and b or not c and d\n";
    let text = pigeon_ast::sexp(&pigeon_python::parse(src).unwrap());
    assert!(text.contains(
        "(BoolOpOr (BoolOpAnd (Name a) (Name b)) (BoolOpAnd (UnaryOpNot (Name c)) \
         (Name d)))"
    ));
}

#[test]
fn blank_lines_and_comments_between_blocks() {
    let src = "def f():\n    # setup\n    x = 1\n\n    # compute\n    return x\n\n\n# \
               trailing comment\ndef g():\n    return 2\n";
    let ast = pigeon_python::parse(src).unwrap();
    let defs = ast
        .preorder()
        .filter(|&n| ast.kind(n).as_str() == "FunctionDef")
        .count();
    assert_eq!(defs, 2);
}
