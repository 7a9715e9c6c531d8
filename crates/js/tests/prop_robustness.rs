//! Robustness: the frontend never panics, it returns `Err` on garbage.

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn parse_never_panics_on_printable_ascii(src in "[ -~\\n\\t]{0,200}") {
        let _ = pigeon_js::parse(&src);
    }

    #[test]
    fn parse_never_panics_on_token_soup(
        tokens in prop::collection::vec(
            prop_oneof![
                Just("var".to_owned()), Just("function".to_owned()),
                Just("if".to_owned()), Just("while".to_owned()),
                Just("(".to_owned()), Just(")".to_owned()),
                Just("{".to_owned()), Just("}".to_owned()),
                Just("=".to_owned()), Just(";".to_owned()),
                Just("=>".to_owned()), Just("++".to_owned()),
                "[a-z]{1,4}", "[0-9]{1,3}",
            ],
            0..40,
        )
    ) {
        let src = tokens.join(" ");
        let _ = pigeon_js::parse(&src);
    }

    #[test]
    fn valid_programs_round_trip_through_reparse(
        names in prop::collection::vec("vx[a-z]{0,4}", 1..5)
    ) {
        // Build a syntactically valid program from generated names; it
        // must parse, and the leaf values must contain every name.
        let body: String = names
            .iter()
            .map(|n| format!("var {n} = f({n}0);\n"))
            .collect();
        let ast = pigeon_js::parse(&body).unwrap();
        for n in &names {
            prop_assert!(ast
                .leaves()
                .iter()
                .any(|&l| ast.value(l).unwrap() == n));
        }
    }
}

/// A named input shape, built for a given nesting depth.
type Shape = (&'static str, fn(usize) -> String);

/// Hostile nesting shapes, each a function of its depth.
const SHAPES: &[Shape] = &[
    ("parens", |n| {
        format!("var a = {}1{};", "(".repeat(n), ")".repeat(n))
    }),
    ("brackets", |n| {
        format!("var a = {}1{};", "[".repeat(n), "]".repeat(n))
    }),
    ("objects", |n| {
        format!("var a = {}1{};", "{a: ".repeat(n), "}".repeat(n))
    }),
    ("blocks", |n| format!("{}{}", "{".repeat(n), "}".repeat(n))),
    ("functions", |n| {
        format!("{}{}", "function f() {".repeat(n), "}".repeat(n))
    }),
    ("nots", |n| format!("x = {}x;", "!".repeat(n))),
    ("ternaries", |n| format!("x = {}c;", "a ? b : ".repeat(n))),
    ("assignments", |n| format!("{}1;", "a = ".repeat(n))),
    ("calls", |n| {
        format!("{}x{};", "f(".repeat(n), ")".repeat(n))
    }),
    ("arrows", |n| format!("f = {}x;", "x => ".repeat(n))),
    ("paren arrows", |n| format!("f = {}x;", "(x) => ".repeat(n))),
    ("else ifs", |n| {
        format!("{}{{}}", "if (a) {} else ".repeat(n))
    }),
    ("sums", |n| format!("x = a{};", " + a".repeat(n))),
    ("members", |n| format!("x = a{};", ".b".repeat(n))),
    ("call chains", |n| format!("x = f{};", "()".repeat(n))),
    ("index chains", |n| format!("x = a{};", "[0]".repeat(n))),
];

#[test]
fn nesting_100k_deep_ends_in_a_tree_or_a_parse_error() {
    for (name, shape) in SHAPES {
        let src = shape(100_000);
        if let Err(e) = pigeon_js::parse(&src) {
            assert!(e.offset as usize <= src.len(), "{name}: {e}");
        }
    }
}

#[test]
fn string_literals_keep_non_ascii_characters() {
    let ast = pigeon_js::parse("s = \"café\";").unwrap();
    assert_eq!(
        pigeon_ast::sexp(&ast),
        "(Toplevel (Assign= (SymbolRef s) (String café)))"
    );
}
