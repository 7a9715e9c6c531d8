//! Robustness: the frontend never panics, it returns `Err` on garbage.

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn parse_never_panics_on_printable_ascii(src in "[ -~\\n\\t]{0,200}") {
        let _ = pigeon_csharp::parse(&src);
    }
}

/// A named input shape, built for a given nesting depth.
type Shape = (&'static str, fn(usize) -> String);

/// Hostile nesting shapes inside a method body, each a function of its
/// depth.
const SHAPES: &[Shape] = &[
    ("parens", |n| {
        body(&format!("int a = {}1{};", "(".repeat(n), ")".repeat(n)))
    }),
    ("indexes", |n| {
        body(&format!("x = {}0{};", "a[".repeat(n), "]".repeat(n)))
    }),
    ("blocks", |n| {
        body(&format!("{}{}", "{".repeat(n), "}".repeat(n)))
    }),
    ("nots", |n| body(&format!("x = {}x;", "!".repeat(n)))),
    ("ternaries", |n| {
        body(&format!("x = {}c;", "a ? b : ".repeat(n)))
    }),
    ("coalesces", |n| {
        body(&format!("x = {}c;", "a ?? ".repeat(n)))
    }),
    ("assignments", |n| body(&format!("{}1;", "a = ".repeat(n)))),
    ("calls", |n| {
        body(&format!("{}x{};", "f(".repeat(n), ")".repeat(n)))
    }),
    ("lambdas", |n| body(&format!("f = {}x;", "x => ".repeat(n)))),
    ("paren lambdas", |n| {
        body(&format!("f = {}x;", "(x) => ".repeat(n)))
    }),
    ("generics", |n| {
        body(&format!("{}X{} x;", "List<".repeat(n), ">".repeat(n)))
    }),
    ("else ifs", |n| {
        body(&format!("{}{{}}", "if (a) {} else ".repeat(n)))
    }),
    ("sums", |n| body(&format!("x = a{};", " + a".repeat(n)))),
    ("members", |n| body(&format!("x = a{};", ".b".repeat(n)))),
    ("call chains", |n| {
        body(&format!("x = a{};", ".f()".repeat(n)))
    }),
    ("index chains", |n| {
        body(&format!("x = a{};", "[0]".repeat(n)))
    }),
    ("increments", |n| body(&format!("a{};", "++".repeat(n)))),
    ("array types", |n| {
        body(&format!("int{} x;", "[]".repeat(n)))
    }),
    ("nullable types", |n| {
        body(&format!("int{} x;", " ?".repeat(n)))
    }),
];

fn body(statements: &str) -> String {
    format!("class A {{ void M() {{ {statements} }} }}")
}

#[test]
fn nesting_100k_deep_ends_in_a_tree_or_a_parse_error() {
    for (name, shape) in SHAPES {
        let src = shape(100_000);
        if let Err(e) = pigeon_csharp::parse(&src) {
            assert!(e.offset as usize <= src.len(), "{name}: {e}");
        }
    }
}

#[test]
fn string_and_char_literals_keep_non_ascii_characters() {
    let ast = pigeon_csharp::parse("class A { string s = \"café\"; char c = 'é'; }").unwrap();
    let text = pigeon_ast::sexp(&ast);
    assert!(text.contains("(StringLiteral café)"), "{text}");
    assert!(text.contains("(CharacterLiteral é)"), "{text}");
}
