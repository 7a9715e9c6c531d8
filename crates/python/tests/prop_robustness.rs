//! Robustness: the frontend never panics, it returns `Err` on garbage.

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn parse_never_panics_on_printable_ascii(src in "[ -~\\n\\t]{0,200}") {
        let _ = pigeon_python::parse(&src);
    }
}

/// A named input shape, built for a given nesting depth.
type Shape = (&'static str, fn(usize) -> String);

/// Hostile nesting shapes, each a function of its depth.
const SHAPES: &[Shape] = &[
    ("parens", |n| {
        format!("a = {}1{}\n", "(".repeat(n), ")".repeat(n))
    }),
    ("lists", |n| {
        format!("a = {}1{}\n", "[".repeat(n), "]".repeat(n))
    }),
    ("dicts", |n| {
        format!("a = {}1{}\n", "{1: ".repeat(n), "}".repeat(n))
    }),
    ("nots", |n| format!("a = {}x\n", "not ".repeat(n))),
    ("negations", |n| format!("a = {}x\n", "-".repeat(n))),
    ("ternaries", |n| {
        format!("a = {}d\n", "b if c else ".repeat(n))
    }),
    ("assignments", |n| format!("{}1\n", "a = ".repeat(n))),
    ("calls", |n| {
        format!("{}x{}\n", "f(".repeat(n), ")".repeat(n))
    }),
    ("lambdas", |n| format!("f = {}x\n", "lambda: ".repeat(n))),
    ("elifs", |n| {
        format!("if a:\n    pass\n{}", "elif a:\n    pass\n".repeat(n))
    }),
    ("blocks", indented_blocks),
    ("sums", |n| format!("x = a{}\n", " + a".repeat(n))),
    ("comparisons", |n| format!("x = a{}\n", " < a".repeat(n))),
    ("ors", |n| format!("x = a{}\n", " or a".repeat(n))),
    ("attributes", |n| format!("x = a{}\n", ".b".repeat(n))),
    ("call chains", |n| format!("x = f{}\n", "()".repeat(n))),
    ("subscripts", |n| format!("x = a{}\n", "[0]".repeat(n))),
];

/// `if a:` blocks each indented one column deeper than the last.
fn indented_blocks(n: usize) -> String {
    let mut src = String::new();
    for depth in 0..n {
        src.push_str(&" ".repeat(depth));
        src.push_str("if a:\n");
    }
    src.push_str(&" ".repeat(n));
    src.push_str("pass\n");
    src
}

#[test]
fn nesting_100k_deep_ends_in_a_tree_or_a_parse_error() {
    for (name, shape) in SHAPES {
        // Indentation costs a column per level, so the blocks shape
        // goes just past the bound instead of 100 000 deep.
        let depth = if *name == "blocks" {
            pigeon_ast::syntax::MAX_NESTING + 8
        } else {
            100_000
        };
        let src = shape(depth);
        if let Err(e) = pigeon_python::parse(&src) {
            assert!(e.offset as usize <= src.len(), "{name}: {e}");
        }
    }
}

#[test]
fn string_literals_keep_non_ascii_characters() {
    let ast = pigeon_python::parse("s = \"café\"\n").unwrap();
    assert_eq!(
        pigeon_ast::sexp(&ast),
        "(Module (Assign (NameStore s) (Str café)))"
    );
}
