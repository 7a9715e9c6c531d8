//! Extraction hot path: AST path-contexts with the data-flow knob off
//! vs on, plus the component costs (parse, AST paths, CFG + fixed
//! point, flow path-contexts). Every path is timed once per iteration,
//! back to back, with the two sides of each ratio adjacent; the
//! end-to-end pair (`extract_off`, `extract_on`) is timed file by
//! file, off then on, and summed over the corpus.
//!
//! Writes `BENCH_EXTRACT.json` at the repo root (override the path
//! with `PIGEON_BENCH_OUT`) with median/p95 per path and the
//! dimensionless overhead ratios CI gates at ±15%. Each ratio is the
//! median of the per-iteration ratios: the two paths of one iteration
//! ran back to back (the end-to-end pair a file at a time), so their
//! quotient cancels what the host did at that moment.

use pigeon::ast::Ast;
use pigeon::core::{Abstraction, ExtractionConfig};
use pigeon::corpus::{generate, CorpusConfig, Language};
use pigeon::eval::{extract_edge_features, Representation};
use pigeon_bench::{bench_files, median_ratio, summarize, time, Section};

const ITERATIONS: usize = 20;

fn main() {
    let files = bench_files(300);
    let language = Language::JavaScript;
    let extraction = ExtractionConfig::default();
    let rep = Representation::AstPaths(Abstraction::Full);
    let section = Section::begin("Extraction: AST paths vs + data-flow contexts");

    let corpus = generate(language, &CorpusConfig::default().with_files(files));
    let sources: Vec<&str> = corpus.docs.iter().map(|d| d.source.as_str()).collect();
    let asts: Vec<Ast> = sources
        .iter()
        .map(|s| language.parse(s).expect("generated corpus parses"))
        .collect();
    let ast_paths = |ast: &Ast| extract_edge_features(language, ast, rep, &extraction).len();
    let flow_contexts = |ast: &Ast| {
        pigeon::dataflow_edge_features(language, ast, &extraction, Abstraction::Full).len()
    };

    // Component costs over pre-parsed trees, each timed over the whole
    // corpus. Each ratio's two paths are neighbours in this list.
    let components: [(&str, &dyn Fn() -> usize); 4] = [
        ("parse", &|| {
            for s in &sources {
                std::hint::black_box(language.parse(s).expect("parses"));
            }
            sources.len()
        }),
        ("dataflow_edges", &|| {
            asts.iter()
                .map(|ast| pigeon::analysis::flow_edges(language, ast).len())
                .sum()
        }),
        ("ast_paths", &|| asts.iter().map(ast_paths).sum()),
        ("dataflow_contexts", &|| {
            asts.iter().map(flow_contexts).sum()
        }),
    ];
    // End to end: what one training worker does per file, knob off vs
    // on. The two run back to back on each file, so a host slowdown
    // lasting longer than one file hits both sides alike.
    let extract_off = |s: &str| ast_paths(&language.parse(s).expect("parses"));
    let extract_on = |s: &str| {
        let ast = language.parse(s).expect("parses");
        ast_paths(&ast) + flow_contexts(&ast)
    };
    let names: Vec<&str> = components
        .iter()
        .map(|(name, _)| *name)
        .chain(["extract_off", "extract_on"])
        .collect();
    let mut times: [Vec<f64>; 6] = Default::default();
    for _ in 0..ITERATIONS {
        for ((_, path), t) in components.iter().zip(&mut times) {
            t.push(time(path));
        }
        let (mut off, mut on) = (0.0, 0.0);
        for s in &sources {
            off += time(|| extract_off(s));
            on += time(|| extract_on(s));
        }
        times[4].push(off);
        times[5].push(on);
    }
    let timings = |name: &str| {
        let i = names.iter().position(|n| *n == name);
        &times[i.expect("path measured above")]
    };
    let ratio = |num: &str, den: &str| median_ratio(timings(num), timings(den));
    let on_vs_off = ratio("extract_on", "extract_off");
    let dataflow_vs_ast_paths = ratio("dataflow_contexts", "ast_paths");
    let rows: Vec<(&str, f64, f64)> = names
        .iter()
        .zip(&times)
        .map(|(name, t)| {
            let (median, p95) = summarize(t.clone());
            (*name, median, p95)
        })
        .collect();

    println!(
        "{:<20} {:>14} {:>14}",
        "Path (whole corpus)", "Median (µs)", "p95 (µs)"
    );
    for (name, median, p95) in &rows {
        println!("{name:<20} {median:>14.1} {p95:>14.1}");
    }
    println!("\ndataflow on/off overhead: {on_vs_off:.2}×");
    println!("dataflow vs AST paths:    {dataflow_vs_ast_paths:.2}×");

    let entries: Vec<String> = rows
        .iter()
        .map(|(name, median, p95)| {
            format!("    \"{name}\": {{\"median_micros\": {median:.1}, \"p95_micros\": {p95:.1}}}")
        })
        .collect();
    // Absolute timings are informational; CI gates only the host-free
    // ratios (see perf_gate).
    let report = format!(
        "{{\n  \"bench\": \"extract\",\n  \"language\": \"js\",\n  \"corpus_files\": {files},\n  \
         \"iterations\": {ITERATIONS},\n  \"host\": {{\"os\": \"{}\", \"arch\": \"{}\", \
         \"cores\": {}}},\n  \"paths\": {{\n{}\n  }},\n  \"ratios\": {{\n    \
         \"dataflow_on_vs_off\": {on_vs_off:.3},\n    \
         \"dataflow_vs_ast_paths\": {dataflow_vs_ast_paths:.3}\n  }}\n}}\n",
        std::env::consts::OS,
        std::env::consts::ARCH,
        std::thread::available_parallelism().map_or(0, usize::from),
        entries.join(",\n")
    );
    let out = std::env::var("PIGEON_BENCH_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_EXTRACT.json").to_owned()
    });
    std::fs::write(&out, report).expect("writes snapshot");
    println!("\nwrote {out}");
    section.end();
}
