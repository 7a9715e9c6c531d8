//! Document and corpus generation.

use crate::idiom::{IdiomInstance, IdiomKind};
use crate::names::{weighted_choice, NamePool};
use crate::render::{self, Helpers};
use crate::types::{sample_spec, TypeSpec};
use crate::{Document, FnTruth, GroundTruth, Language, TypeTruth, VarTruth};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Configuration for corpus generation.
#[derive(Debug, Clone, Copy)]
pub struct CorpusConfig {
    /// Number of documents (files) to generate.
    pub files: usize,
    /// Minimum functions per file.
    pub min_functions: usize,
    /// Maximum functions per file.
    pub max_functions: usize,
    /// Per-slot probability of drawing an off-role (noisy) name.
    pub name_noise: f64,
    /// RNG seed; equal configs generate identical corpora.
    pub seed: u64,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig {
            files: 600,
            min_functions: 1,
            max_functions: 3,
            name_noise: 0.05,
            seed: 0x9147_00D5,
        }
    }
}

impl CorpusConfig {
    /// Convenience: same config with a different file count.
    pub fn with_files(mut self, files: usize) -> Self {
        self.files = files;
        self
    }

    /// Convenience: same config with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// A name pool with the language's reserved words pre-blocked, so a role
/// like `ResultValue` (whose class contains `out`) never draws a keyword.
/// For Python the builtins the renderers call are blocked too: a local
/// named `len` shadows the builtin for the whole function body, so
/// `len = len(items)` is an `UnboundLocalError` at runtime (and a
/// `use-before-def` finding under `pigeon audit`).
fn keyword_safe_pool(language: Language) -> NamePool {
    let keywords: &[&str] = match language {
        Language::JavaScript => pigeon_js::KEYWORDS,
        Language::Java => pigeon_java::KEYWORDS,
        Language::Python => pigeon_python::KEYWORDS,
        Language::CSharp => pigeon_csharp::KEYWORDS,
    };
    let mut pool = NamePool::new();
    for kw in keywords {
        pool.reserve(kw);
    }
    if language == Language::Python {
        for builtin in ["len", "range", "str", "open", "print", "enumerate"] {
            pool.reserve(builtin);
        }
    }
    pool
}

const CLASS_NAMES: &[(&str, u32)] = &[
    ("Worker", 15),
    ("Processor", 15),
    ("Service", 12),
    ("Manager", 12),
    ("Handler", 12),
    ("Engine", 10),
    ("TaskRunner", 8),
    ("Helper", 8),
    ("Collector", 8),
];

/// Generates one document in `language`.
pub fn generate_document<R: Rng>(language: Language, cfg: &CorpusConfig, rng: &mut R) -> Document {
    let helpers = Helpers::sample(rng);
    let n_functions = rng.gen_range(cfg.min_functions..=cfg.max_functions);
    let mut truth = GroundTruth::default();
    let mut bodies = Vec::new();

    // Choose idioms and (unique) method names first, then draw each
    // function's locals from its own pool — local names recur freely
    // across functions, as in real code, and the scope-resolved element
    // grouping keeps them apart.
    let mut base_pool = keyword_safe_pool(language);
    for h in [
        &helpers.check,
        &helpers.consume,
        &helpers.log,
        &helpers.read,
        &helpers.init,
        &helpers.pred_prop,
        &helpers.id_prop,
    ] {
        base_pool.reserve(h);
    }
    let mut plans: Vec<(IdiomKind, String)> = Vec::new();
    for _ in 0..n_functions {
        let kind = IdiomKind::ALL[rng.gen_range(0..IdiomKind::ALL.len())];
        let mut fn_name = kind.sample_method_name(rng).to_owned();
        if language == Language::CSharp {
            fn_name = capitalize(&fn_name);
        }
        if language == Language::Python {
            fn_name = to_snake(&fn_name);
        }
        // Method names stay unique per file: they group file-wide.
        while plans.iter().any(|(_, n)| *n == fn_name) {
            fn_name.push('2');
        }
        base_pool.reserve(&fn_name);
        plans.push((kind, fn_name));
    }

    for (kind, fn_name) in &plans {
        let mut pool = base_pool.clone();
        let inst = IdiomInstance::generate(*kind, &mut pool, cfg.name_noise, rng);
        for (_, name, role) in &inst.bindings {
            truth.vars.push(VarTruth {
                name: name.clone(),
                role: *role,
            });
        }
        truth.functions.push(FnTruth {
            name: fn_name.clone(),
            idiom: *kind,
        });
        let mut body = match language {
            Language::JavaScript => render::js::function(fn_name, &inst, &helpers),
            Language::Java => render::java::method(fn_name, &inst, &helpers),
            Language::Python => render::python::function(fn_name, &inst, &helpers),
            Language::CSharp => render::csharp::method(fn_name, &inst, &helpers),
        };
        let params: Vec<String> = inst
            .bindings
            .iter()
            .filter(|(slot, _, _)| kind.param_slots().contains(slot))
            .map(|(_, name, _)| name.clone())
            .collect();
        let bound: Vec<String> = inst
            .bindings
            .iter()
            .map(|(_, name, _)| name.clone())
            .collect();
        insert_distractors(language, &mut body, &params, &bound, rng);
        bodies.push(body);
    }

    // With some probability, a driver function invokes the others. The
    // paper's method-name task uses "paths from invocations of the method
    // to the method name ... when available in the same file" (§5.3.2) —
    // these call sites are that external evidence. Call-site paths span
    // functions, which is why method naming needs much longer paths than
    // variable naming (the paper's lengths 12/10/6 vs 6–7).
    if rng.gen_bool(0.6) && !plans.is_empty() {
        bodies.push(render_driver(language, &plans, rng));
    }

    let source = wrap(language, &bodies, rng);
    Document { source, truth }
}

/// Statements that mention canonical role names next to the function's
/// real variables in *unrelated* syntactic positions (logging/telemetry
/// calls like `track(done, count)`). Every relation-blind representation
/// -- the no-path bag and the single-statement relations baseline -- sees
/// the misleading co-occurrence as if it were evidence; a path-based model
/// sees a distinctive call-argument path it can learn to discount. This is
/// the paper's Fig. 3 discriminability argument, installed in the data.
///
/// Only *parameters* appear next to the canonical name: they are defined
/// from function entry, so the prelude stays clean under the data-flow
/// lints (a local would be read before its declaration). For the same
/// reason a line is dropped when the drawn canonical name collides with
/// one of the function's own bindings (`bound`).
fn insert_distractors<R: Rng>(
    language: Language,
    body: &mut String,
    params: &[String],
    bound: &[String],
    rng: &mut R,
) {
    let n = rng.gen_range(0..=2);
    if n == 0 || params.is_empty() {
        return;
    }
    let mut lines = String::new();
    for _ in 0..n {
        let role = crate::names::Role::ALL[rng.gen_range(0..crate::names::Role::ALL.len())];
        let callee = crate::render::sample_callee(rng);
        let local = &params[rng.gen_range(0..params.len())];
        let name = role.canonical();
        if bound.iter().any(|b| b == name) {
            continue;
        }
        match language {
            Language::JavaScript => {
                lines.push_str(&format!("  {callee}({local}, {name});\n"));
            }
            Language::Java => {
                lines.push_str(&format!("        {callee}({local}, {name});\n"));
            }
            Language::CSharp => {
                let callee = capitalize(&callee);
                lines.push_str(&format!("        {callee}({local}, {name});\n"));
            }
            Language::Python => {
                lines.push_str(&format!("    {callee}({local}, {name})\n"));
            }
        }
    }
    // Insert at the start of the function body.
    let anchor = match language {
        Language::JavaScript | Language::Java | Language::CSharp => body.find("{\n"),
        Language::Python => body.find(":\n"),
    };
    if let Some(pos) = anchor {
        body.insert_str(pos + 2, &lines);
    }
}

const DRIVER_NAMES: &[(&str, u32)] = &[
    ("main", 40),
    ("start", 20),
    ("bootstrap", 15),
    ("launch", 15),
    ("entry", 10),
];

/// Renders a driver function that calls each planned function with
/// plausible (canonically named, undeclared) arguments.
fn render_driver<R: Rng>(language: Language, plans: &[(IdiomKind, String)], rng: &mut R) -> String {
    let driver = weighted_choice(DRIVER_NAMES, rng).to_owned();
    let calls: Vec<String> = plans
        .iter()
        .map(|(kind, fn_name)| {
            let args: Vec<&str> = kind
                .slots()
                .iter()
                .filter(|(slot, _)| kind.param_slots().contains(slot))
                .map(|&(_, role)| role.canonical())
                .collect();
            (fn_name.clone(), args.join(", "))
        })
        .map(|(f, a)| match language {
            Language::Python => format!("    {f}({a})\n"),
            Language::Java | Language::CSharp => format!("        {f}({a});\n"),
            Language::JavaScript => format!("  {f}({a});\n"),
        })
        .collect();
    match language {
        Language::JavaScript => {
            format!("function {driver}() {{\n{}}}\n", calls.concat())
        }
        Language::Python => format!("def {driver}():\n{}", calls.concat()),
        Language::Java => format!("    void {driver}() {{\n{}    }}\n", calls.concat()),
        Language::CSharp => format!(
            "    public void {}() {{\n{}    }}\n",
            capitalize(&driver),
            calls.concat()
        ),
    }
}

/// Wraps rendered functions in the language's compilation-unit shape.
fn wrap<R: Rng>(language: Language, bodies: &[String], rng: &mut R) -> String {
    match language {
        Language::JavaScript | Language::Python => bodies.join("\n"),
        Language::Java => {
            let class = weighted_choice(CLASS_NAMES, rng);
            format!("class {class} {{\n{}}}\n", bodies.join("\n"))
        }
        Language::CSharp => {
            let class = weighted_choice(CLASS_NAMES, rng);
            format!(
                "namespace App {{\nclass {class} {{\n{}}}\n}}\n",
                bodies.join("\n")
            )
        }
    }
}

/// Generates a corpus of `cfg.files` documents in `language`.
pub fn generate(language: Language, cfg: &CorpusConfig) -> crate::Corpus {
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ language as u64);
    let docs = (0..cfg.files)
        .map(|_| generate_document(language, cfg, &mut rng))
        .collect();
    crate::Corpus { language, docs }
}

const TYPE_METHOD_NAMES: &[(&str, u32)] = &[
    ("process", 20),
    ("run", 20),
    ("build", 15),
    ("prepare", 15),
    ("execute", 15),
    ("handle", 15),
];

/// Generates one typed-Java document for the full-type task, recording a
/// [`TypeTruth`] per declaration.
pub fn generate_type_document<R: Rng>(cfg: &CorpusConfig, rng: &mut R) -> Document {
    let n_methods = rng.gen_range(cfg.min_functions..=cfg.max_functions);
    let mut pool = keyword_safe_pool(Language::Java);
    let mut truth = GroundTruth::default();
    let mut bodies = Vec::new();

    for m in 0..n_methods {
        let n_decls = rng.gen_range(2..=4);
        let specs: Vec<&TypeSpec> = (0..n_decls).map(|_| sample_spec(rng)).collect();

        // Merge the parameter dependencies of all specs, first wins.
        let mut deps: Vec<(&str, &str)> = Vec::new();
        for spec in &specs {
            for &(name, ty) in spec.deps {
                if !deps.iter().any(|&(n, _)| n == name) {
                    deps.push((name, ty));
                }
            }
        }
        let params = deps
            .iter()
            .map(|&(n, t)| format!("{t} {n}"))
            .collect::<Vec<_>>()
            .join(", ");
        let method_name = format!("{}{m}", weighted_choice(TYPE_METHOD_NAMES, rng));
        let mut body = format!("    void {method_name}({params}) {{\n");
        for spec in &specs {
            let var = pool.draw(spec.role, rng);
            let first_dep = spec.deps.first().map(|&(n, _)| n).unwrap_or("raw");
            // With some probability the initialiser is an erased factory
            // lookup that carries no type evidence — for ambiguous surface
            // names, only the follow-up uses can then disambiguate, which
            // keeps the task from being trivially solvable.
            let init = if rng.gen_bool(0.35) {
                format!("({}) registry.lookup(slot)", spec.surface)
            } else {
                spec.init.replace("$P", first_dep)
            };
            body.push_str(&format!("        {} {var} = {init};\n", spec.surface));
            // Characteristic uses are the disambiguating evidence; some
            // declarations get none, and some only a generic use that any
            // type could have — both cap the achievable accuracy, like
            // the locally-undecidable expressions of the real task.
            match rng.gen_range(0..10) {
                0..=2 => {}
                3..=4 => {
                    body.push_str(&format!("        log({var});\n"));
                }
                n => {
                    let n_uses = if n >= 8 { 2.min(spec.uses.len()) } else { 1 };
                    for u in spec.uses.iter().take(n_uses) {
                        let stmt = u.replace("$V", &var).replace("$P", first_dep);
                        body.push_str(&format!("        {stmt}\n"));
                    }
                }
            }
            truth.types.push(TypeTruth {
                var,
                fqn: spec.fqn.to_owned(),
            });
        }
        body.push_str("    }\n");
        bodies.push(body);
        truth.functions.push(FnTruth {
            name: method_name,
            idiom: IdiomKind::ReadConfig,
        });
    }

    let class = {
        let mut rng2 = SmallRng::seed_from_u64(rng.gen());
        weighted_choice(CLASS_NAMES, &mut rng2)
    };
    Document {
        source: format!("class {class} {{\n{}}}\n", bodies.join("\n")),
        truth,
    }
}

/// Generates a typed-Java corpus for the full-type task.
pub fn generate_java_types(cfg: &CorpusConfig) -> crate::Corpus {
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x00A1_1CE5);
    let docs = (0..cfg.files)
        .map(|_| generate_type_document(cfg, &mut rng))
        .collect();
    crate::Corpus {
        language: Language::Java,
        docs,
    }
}

fn capitalize(s: &str) -> String {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) => c.to_uppercase().collect::<String>() + chars.as_str(),
        None => String::new(),
    }
}

/// Converts a camelCase method name to Python's snake_case convention.
fn to_snake(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 4);
    for c in s.chars() {
        if c.is_ascii_uppercase() {
            out.push('_');
            out.push(c.to_ascii_lowercase());
        } else {
            out.push(c);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn documents_parse_in_every_language() {
        let cfg = CorpusConfig::default().with_files(25);
        for language in Language::ALL {
            let corpus = generate(language, &cfg);
            assert_eq!(corpus.docs.len(), 25);
            for doc in &corpus.docs {
                language.parse(&doc.source).unwrap_or_else(|e| {
                    panic!("{language:?} doc failed to parse: {e}\n{}", doc.source)
                });
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = CorpusConfig::default().with_files(5);
        let a = generate(Language::JavaScript, &cfg);
        let b = generate(Language::JavaScript, &cfg);
        for (x, y) in a.docs.iter().zip(&b.docs) {
            assert_eq!(x.source, y.source);
        }
    }

    #[test]
    fn different_languages_get_different_streams() {
        let cfg = CorpusConfig::default().with_files(3);
        let js = generate(Language::JavaScript, &cfg);
        let py = generate(Language::Python, &cfg);
        assert_ne!(js.docs[0].source, py.docs[0].source);
    }

    #[test]
    fn truth_names_appear_in_source() {
        let cfg = CorpusConfig::default().with_files(10);
        for language in Language::ALL {
            let corpus = generate(language, &cfg);
            for doc in &corpus.docs {
                for v in &doc.truth.vars {
                    assert!(
                        doc.source.contains(&v.name),
                        "{language:?}: `{}` missing from source",
                        v.name
                    );
                }
                for f in &doc.truth.functions {
                    assert!(doc.source.contains(&f.name));
                }
            }
        }
    }

    #[test]
    fn method_names_are_unique_per_file() {
        let cfg = CorpusConfig {
            files: 20,
            min_functions: 3,
            max_functions: 4,
            ..CorpusConfig::default()
        };
        let corpus = generate(Language::JavaScript, &cfg);
        for doc in &corpus.docs {
            let mut names: Vec<_> = doc.truth.functions.iter().map(|f| &f.name).collect();
            names.sort();
            let before = names.len();
            names.dedup();
            assert_eq!(names.len(), before);
        }
    }

    #[test]
    fn type_documents_parse_and_carry_type_truth() {
        let cfg = CorpusConfig::default().with_files(30);
        let corpus = generate_java_types(&cfg);
        let mut total_types = 0;
        for doc in &corpus.docs {
            pigeon_java::parse(&doc.source)
                .unwrap_or_else(|e| panic!("type doc failed to parse: {e}\n{}", doc.source));
            assert!(!doc.truth.types.is_empty());
            total_types += doc.truth.types.len();
            for t in &doc.truth.types {
                assert!(doc.source.contains(&t.var));
                assert!(t.fqn.contains('.'));
            }
        }
        assert!(total_types > 100);
    }

    #[test]
    fn type_truth_vars_are_unique_per_file() {
        let cfg = CorpusConfig::default().with_files(20);
        let corpus = generate_java_types(&cfg);
        for doc in &corpus.docs {
            let mut vars: Vec<_> = doc.truth.types.iter().map(|t| &t.var).collect();
            vars.sort();
            let before = vars.len();
            vars.dedup();
            assert_eq!(vars.len(), before, "duplicate typed var in one file");
        }
    }

    #[test]
    fn snake_case_conversion() {
        assert_eq!(to_snake("buildMessage"), "build_message");
        assert_eq!(to_snake("sum"), "sum");
    }
}
