//! Property tests: every corpus the generator can produce parses with
//! its language's frontend and satisfies the ground-truth contracts.

use pigeon_corpus::{generate, generate_java_types, CorpusConfig, Language};
use proptest::prelude::*;

fn config_strategy() -> impl Strategy<Value = CorpusConfig> {
    (1usize..8, 1usize..4, 0.0f64..0.4, any::<u64>()).prop_map(|(files, max_fns, noise, seed)| {
        CorpusConfig {
            files,
            min_functions: 1,
            max_functions: max_fns,
            name_noise: noise,
            seed,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_generated_document_parses(cfg in config_strategy()) {
        for language in Language::ALL {
            let corpus = generate(language, &cfg);
            prop_assert_eq!(corpus.docs.len(), cfg.files);
            for doc in &corpus.docs {
                let ast = language
                    .parse(&doc.source)
                    .map_err(|e| TestCaseError::fail(format!("{language}: {e}\n{}", doc.source)))?;
                prop_assert!(ast.check_invariants().is_ok());
                // Every ground-truth name occurs in the tree.
                for v in &doc.truth.vars {
                    let found = ast.leaves().iter().any(|&l| ast.value(l) == Some(v.name.as_str()));
                    prop_assert!(found, "{}: `{}` missing", language, v.name);
                }
            }
        }
    }

    #[test]
    fn typed_documents_parse_and_declare_their_truths(cfg in config_strategy()) {
        let corpus = generate_java_types(&cfg);
        for doc in &corpus.docs {
            let ast = Language::Java
                .parse(&doc.source)
                .map_err(|e| TestCaseError::fail(format!("{e}\n{}", doc.source)))?;
            for t in &doc.truth.types {
                prop_assert!(
                    pigeon_eval_free_find(&ast, &t.var),
                    "typed var `{}` has no NameVar declaration",
                    t.var
                );
            }
        }
    }

    #[test]
    fn same_seed_same_corpus(cfg in config_strategy()) {
        for language in [Language::JavaScript, Language::CSharp] {
            let a = generate(language, &cfg);
            let b = generate(language, &cfg);
            for (x, y) in a.docs.iter().zip(&b.docs) {
                prop_assert_eq!(&x.source, &y.source);
            }
        }
    }
}

/// A declaration leaf named `var` exists (NameVar under a declarator) —
/// local re-implementation to keep this crate independent of pigeon-eval.
fn pigeon_eval_free_find(ast: &pigeon_ast::Ast, var: &str) -> bool {
    ast.leaves()
        .iter()
        .any(|&l| ast.kind(l).as_str() == "NameVar" && ast.value(l) == Some(var))
}
