//! Pins the four frontends' observable behaviour on generated corpora.
//!
//! Per language, one FNV-1a hash covers every token (kind, text, byte
//! offset) of about 200 generated files, the S-expression of every
//! parse, and for each file's truncations at every 97th byte either the
//! S-expression or the error offset. The constants were recorded before
//! the frontends moved onto the shared `pigeon_ast::syntax` scaffold; a
//! change to any token stream, tree shape or error position moves them.

use pigeon::{Pigeon, PigeonConfig};
use pigeon_ast::syntax::MAX_NESTING;
use pigeon_core::Fnv64;
use pigeon_corpus::{generate, CorpusConfig, Language};

const FILES: usize = 200;
const SEED: u64 = 0x5EED_F00D;
const TRUNCATION_STEP: usize = 97;

/// Absorbs one field followed by a byte that never occurs in UTF-8, so
/// adjacent fields cannot run together.
fn field(h: &mut Fnv64, bytes: &[u8]) {
    h.write(bytes);
    h.write(&[0xFF]);
}

macro_rules! frontend_hash {
    ($frontend:ident, $language:expr) => {{
        let corpus = generate(
            $language,
            &CorpusConfig::default().with_files(FILES).with_seed(SEED),
        );
        let mut h = Fnv64::new();
        for doc in &corpus.docs {
            let source = doc.source.as_str();
            for t in $frontend::tokenize(source).expect("generated files tokenize") {
                field(&mut h, format!("{:?}", t.kind).as_bytes());
                field(&mut h, t.text.as_bytes());
                h.write_u64(u64::from(t.offset));
            }
            let ast = $frontend::parse(source).expect("generated files parse");
            field(&mut h, pigeon_ast::sexp(&ast).as_bytes());
            for end in (0..source.len()).step_by(TRUNCATION_STEP) {
                if !source.is_char_boundary(end) {
                    continue;
                }
                match $frontend::parse(&source[..end]) {
                    Ok(ast) => field(&mut h, pigeon_ast::sexp(&ast).as_bytes()),
                    Err(e) => {
                        field(&mut h, b"error");
                        h.write_u64(u64::from(e.offset));
                    }
                }
            }
        }
        h.finish()
    }};
}

#[test]
fn javascript_frontend_output_is_pinned() {
    let got = frontend_hash!(pigeon_js, Language::JavaScript);
    assert_eq!(
        got, 0xbb29_5f14_56c2_9464,
        "javascript frontend hash {got:#018x}"
    );
}

#[test]
fn java_frontend_output_is_pinned() {
    let got = frontend_hash!(pigeon_java, Language::Java);
    assert_eq!(got, 0x5abf_4184_78a5_c4f9, "java frontend hash {got:#018x}");
}

#[test]
fn python_frontend_output_is_pinned() {
    let got = frontend_hash!(pigeon_python, Language::Python);
    assert_eq!(
        got, 0x454b_e7e6_eb22_94dd,
        "python frontend hash {got:#018x}"
    );
}

#[test]
fn csharp_frontend_output_is_pinned() {
    let got = frontend_hash!(pigeon_csharp, Language::CSharp);
    assert_eq!(
        got, 0x9742_de2a_9dfe_7303,
        "csharp frontend hash {got:#018x}"
    );
}

/// Hostile nesting shapes per language, each a function of its depth.
type Shape = (&'static str, fn(usize) -> String);

fn java_method(statements: &str) -> String {
    format!("class A {{ void m() {{ {statements} }} }}")
}

fn csharp_method(statements: &str) -> String {
    format!("class A {{ void M() {{ {statements} }} }}")
}

/// `if a:` blocks each indented one column deeper than the last.
fn python_blocks(n: usize) -> String {
    let mut src = String::new();
    for depth in 0..n {
        src.push_str(&" ".repeat(depth));
        src.push_str("if a:\n");
    }
    src.push_str(&" ".repeat(n));
    src.push_str("pass\n");
    src
}

fn shapes(language: Language) -> Vec<Shape> {
    match language {
        Language::JavaScript => vec![
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
        ],
        Language::Java => vec![
            ("parens", |n| {
                java_method(&format!("int a = {}1{};", "(".repeat(n), ")".repeat(n)))
            }),
            ("indexes", |n| {
                java_method(&format!("x = {}0{};", "a[".repeat(n), "]".repeat(n)))
            }),
            ("blocks", |n| {
                java_method(&format!("{}{}", "{".repeat(n), "}".repeat(n)))
            }),
            ("nots", |n| java_method(&format!("x = {}x;", "!".repeat(n)))),
            ("casts", |n| {
                java_method(&format!("x = {}x;", "(A) ".repeat(n)))
            }),
            ("ternaries", |n| {
                java_method(&format!("x = {}c;", "a ? b : ".repeat(n)))
            }),
            ("assignments", |n| {
                java_method(&format!("{}1;", "a = ".repeat(n)))
            }),
            ("calls", |n| {
                java_method(&format!("{}x{};", "f(".repeat(n), ")".repeat(n)))
            }),
            ("generics", |n| {
                java_method(&format!("{}X{} x;", "List<".repeat(n), ">".repeat(n)))
            }),
            ("else ifs", |n| {
                java_method(&format!("{}{{}}", "if (a) {} else ".repeat(n)))
            }),
            ("sums", |n| {
                java_method(&format!("x = a{};", " + a".repeat(n)))
            }),
            ("members", |n| {
                java_method(&format!("x = a{};", ".b".repeat(n)))
            }),
            ("call chains", |n| {
                java_method(&format!("x = a{};", ".f()".repeat(n)))
            }),
            ("index chains", |n| {
                java_method(&format!("x = a{};", "[0]".repeat(n)))
            }),
            ("increments", |n| {
                java_method(&format!("a{};", "++".repeat(n)))
            }),
            ("array types", |n| {
                java_method(&format!("int{} x;", "[]".repeat(n)))
            }),
        ],
        Language::Python => vec![
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
            ("calls", |n| {
                format!("{}x{}\n", "f(".repeat(n), ")".repeat(n))
            }),
            ("lambdas", |n| format!("f = {}x\n", "lambda: ".repeat(n))),
            ("elifs", |n| {
                format!("if a:\n    pass\n{}", "elif a:\n    pass\n".repeat(n))
            }),
            ("blocks", python_blocks),
            ("sums", |n| format!("x = a{}\n", " + a".repeat(n))),
            ("comparisons", |n| format!("x = a{}\n", " < a".repeat(n))),
            ("ors", |n| format!("x = a{}\n", " or a".repeat(n))),
            ("attributes", |n| format!("x = a{}\n", ".b".repeat(n))),
            ("call chains", |n| format!("x = f{}\n", "()".repeat(n))),
            ("subscripts", |n| format!("x = a{}\n", "[0]".repeat(n))),
        ],
        Language::CSharp => vec![
            ("parens", |n| {
                csharp_method(&format!("int a = {}1{};", "(".repeat(n), ")".repeat(n)))
            }),
            ("indexes", |n| {
                csharp_method(&format!("x = {}0{};", "a[".repeat(n), "]".repeat(n)))
            }),
            ("blocks", |n| {
                csharp_method(&format!("{}{}", "{".repeat(n), "}".repeat(n)))
            }),
            ("nots", |n| {
                csharp_method(&format!("x = {}x;", "!".repeat(n)))
            }),
            ("ternaries", |n| {
                csharp_method(&format!("x = {}c;", "a ? b : ".repeat(n)))
            }),
            ("coalesces", |n| {
                csharp_method(&format!("x = {}c;", "a ?? ".repeat(n)))
            }),
            ("assignments", |n| {
                csharp_method(&format!("{}1;", "a = ".repeat(n)))
            }),
            ("calls", |n| {
                csharp_method(&format!("{}x{};", "f(".repeat(n), ")".repeat(n)))
            }),
            ("lambdas", |n| {
                csharp_method(&format!("f = {}x;", "x => ".repeat(n)))
            }),
            ("paren lambdas", |n| {
                csharp_method(&format!("f = {}x;", "(x) => ".repeat(n)))
            }),
            ("generics", |n| {
                csharp_method(&format!("{}X{} x;", "List<".repeat(n), ">".repeat(n)))
            }),
            ("else ifs", |n| {
                csharp_method(&format!("{}{{}}", "if (a) {} else ".repeat(n)))
            }),
            ("sums", |n| {
                csharp_method(&format!("x = a{};", " + a".repeat(n)))
            }),
            ("members", |n| {
                csharp_method(&format!("x = a{};", ".b".repeat(n)))
            }),
            ("call chains", |n| {
                csharp_method(&format!("x = a{};", ".f()".repeat(n)))
            }),
            ("index chains", |n| {
                csharp_method(&format!("x = a{};", "[0]".repeat(n)))
            }),
            ("increments", |n| {
                csharp_method(&format!("a{};", "++".repeat(n)))
            }),
            ("array types", |n| {
                csharp_method(&format!("int{} x;", "[]".repeat(n)))
            }),
            ("nullable types", |n| {
                csharp_method(&format!("int{} x;", " ?".repeat(n)))
            }),
        ],
    }
}

/// The deepest `shape` input that still parses, searched up to four
/// times the nesting bound.
fn deepest_accepted(language: Language, shape: fn(usize) -> String) -> usize {
    let (mut ok, mut fails) = (1, 4 * MAX_NESTING);
    assert!(language.parse(&shape(ok)).is_ok());
    if language.parse(&shape(fails)).is_ok() {
        return fails;
    }
    while fails - ok > 1 {
        let mid = (ok + fails) / 2;
        if language.parse(&shape(mid)).is_ok() {
            ok = mid;
        } else {
            fails = mid;
        }
    }
    ok
}

/// The deepest input of every shape the frontends accept must run
/// through everything downstream — prediction with a data-flow model,
/// and the audit's well-formedness, scope and CFG passes — on a thread
/// with a default 2 MiB stack. This is the measurement `MAX_NESTING` is
/// sized by; run in an unoptimised build, whose frames are largest.
#[test]
fn the_deepest_accepted_inputs_fit_a_default_thread_stack() {
    for language in Language::ALL {
        let corpus: Vec<String> = generate(language, &CorpusConfig::default().with_files(30))
            .docs
            .into_iter()
            .map(|d| d.source)
            .collect();
        let refs: Vec<&str> = corpus.iter().map(String::as_str).collect();
        let config = PigeonConfig::builder()
            .dataflow_contexts(true)
            .build()
            .unwrap();
        let model = Pigeon::train_variable_namer(language, &refs, &config).unwrap();
        for (name, shape) in shapes(language) {
            let source = shape(deepest_accepted(language, shape));
            let model = &model;
            std::thread::scope(|scope| {
                std::thread::Builder::new()
                    .stack_size(2 << 20)
                    .spawn_scoped(scope, || {
                        model.predict(&source).unwrap();
                        let ast = language.parse(&source).unwrap();
                        pigeon::analysis::audit_ast(language, name, &ast);
                    })
                    .unwrap()
                    .join()
                    .unwrap_or_else(|_| panic!("{language} {name}"));
            });
        }
    }
}
