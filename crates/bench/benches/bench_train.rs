//! Training-path performance: full CRF training at two corpus sizes,
//! the shard-merge path (`pigeon merge` over training partials),
//! checkpoint resume, and incremental updates vs full retraining. The
//! small-corpus paths the ratios compare are timed interleaved, one of
//! each per iteration.
//!
//! Writes `BENCH_TRAIN.json` at the repo root (override the path with
//! `PIGEON_BENCH_OUT`) with median/p95 per path, host metadata, and the
//! dimensionless ratios the CI perf gate tracks (`perf_gate` compares
//! ratios, which cancel host speed, at ±15%; absolute medians only
//! under `PIGEON_BENCH_STRICT=1`). Each ratio is the median of the
//! per-iteration ratios: the two paths of one iteration ran back to
//! back, so their quotient cancels what the host did at that moment.

use pigeon::corpus::{generate, CorpusConfig, Language};
use pigeon::crf::checkpoint::{decode_checkpoint, encode_checkpoint};
use pigeon::crf::TrainControl;
use pigeon::eval::ElementClass;
use pigeon::{Pigeon, PigeonConfig, TrainRun};
use pigeon_bench::{bench_files, median_ratio, summarize, time, Section};

fn sources_of(corpus: &pigeon::corpus::Corpus) -> Vec<&str> {
    corpus.docs.iter().map(|d| d.source.as_str()).collect()
}

const SMALL_ITERS: usize = 21;
const MEDIUM_ITERS: usize = 5;
const SHARDS: usize = 4;

fn main() {
    let small_files = bench_files(40);
    let medium_files = small_files * 3;
    let section = Section::begin("Training paths: full, shard-merge, resume, incremental");
    let config = PigeonConfig::default();

    let small = generate(
        Language::JavaScript,
        &CorpusConfig::default().with_files(small_files),
    );
    let small_refs = sources_of(&small);
    let medium = generate(
        Language::JavaScript,
        &CorpusConfig::default().with_files(medium_files),
    );
    let medium_refs = sources_of(&medium);

    let train = |refs: &[&str]| {
        Pigeon::train_variable_namer(Language::JavaScript, refs, &config).expect("trains")
    };

    let medium_stats = summarize(
        (0..MEDIUM_ITERS)
            .map(|_| time(|| train(&medium_refs)))
            .collect(),
    );

    // Shard-merge path: partials are produced once (that cost is the
    // workers' extraction, measured by crf_train_*); the merge path is
    // decode + replay + statistics sum + the finishing SGD run.
    let parts: Vec<Vec<u8>> = (0..SHARDS)
        .map(|i| {
            Pigeon::build_training_partial(
                Language::JavaScript,
                ElementClass::Variable,
                &small_refs,
                i,
                SHARDS,
                &config,
            )
            .expect("builds partial")
        })
        .collect();

    // Resume path: snapshot at the halfway epoch once, then measure
    // checkpoint decode + the remaining epochs.
    let halfway = config.crf.epochs / 2;
    let mut snapshot: Option<Vec<u8>> = None;
    let mut on_checkpoint = |state: &pigeon::crf::TrainState| {
        snapshot = Some(encode_checkpoint(state));
    };
    let run = Pigeon::train_namer_resumable(
        Language::JavaScript,
        ElementClass::Variable,
        &small_refs,
        &config,
        TrainControl {
            checkpoint_every: halfway,
            on_checkpoint: Some(&mut on_checkpoint),
            ..TrainControl::default()
        },
    )
    .expect("trains");
    assert!(matches!(run, TrainRun::Completed(_)));
    let snapshot = snapshot.expect("halfway checkpoint fired");
    let resume = || {
        let state = decode_checkpoint(&snapshot).expect("decodes");
        let resumed = Pigeon::train_namer_resumable(
            Language::JavaScript,
            ElementClass::Variable,
            &small_refs,
            &config,
            TrainControl {
                resume: Some(state),
                ..TrainControl::default()
            },
        )
        .expect("resumes");
        assert!(matches!(resumed, TrainRun::Completed(_)));
    };

    // Incremental update vs full retrain over the same final corpus.
    let base = train(&small_refs);
    let extra = generate(
        Language::JavaScript,
        &CorpusConfig::default()
            .with_files(small_files / 4)
            .with_seed(0x1CA0),
    );
    let extra_refs = sources_of(&extra);
    let mut combined = small_refs.clone();
    combined.extend(&extra_refs);

    // The small-corpus paths run interleaved: each iteration times every
    // one of them back to back, so host drift over the run lands on all
    // of them alike and cancels in the ratios instead of skewing them.
    let mut small_times: [Vec<f64>; 5] = Default::default();
    for _ in 0..SMALL_ITERS {
        let [small_t, merge_t, resume_t, update_t, retrain_t] = &mut small_times;
        small_t.push(time(|| train(&small_refs)));
        merge_t.push(time(|| Pigeon::from_partials(&parts).expect("merges")));
        resume_t.push(time(resume));
        update_t.push(time(|| base.update(&extra_refs).expect("updates")));
        retrain_t.push(time(|| train(&combined)));
    }
    let [small_t, merge_t, resume_t, update_t, retrain_t] = &small_times;
    let merge_ratio = median_ratio(merge_t, small_t);
    let resume_ratio = median_ratio(resume_t, small_t);
    let incremental_speedup = median_ratio(retrain_t, update_t);
    let [small_stats, merge_stats, resume_stats, update_stats, retrain_stats] =
        small_times.map(summarize);

    let rows = [
        ("crf_train_small", small_stats),
        ("crf_train_medium", medium_stats),
        ("shard_merge", merge_stats),
        ("resume", resume_stats),
        ("incremental_update", update_stats),
        ("full_retrain", retrain_stats),
    ];
    println!("{:<20} {:>14} {:>14}", "Path", "Median (µs)", "p95 (µs)");
    for (name, (median, p95)) in &rows {
        println!("{name:<20} {median:>14.1} {p95:>14.1}");
    }
    println!(
        "\nshard_merge/train {merge_ratio:.2}  resume/train {resume_ratio:.2}  \
         incremental speedup {incremental_speedup:.2}×"
    );

    let entries: Vec<String> = rows
        .iter()
        .map(|(name, (median, p95))| {
            format!("    \"{name}\": {{\"median_micros\": {median:.1}, \"p95_micros\": {p95:.1}}}")
        })
        .collect();
    let report = format!(
        "{{\n  \"bench\": \"train\",\n  \"corpus_files\": {{\"small\": {small_files}, \
         \"medium\": {medium_files}, \"incremental_added\": {}}},\n  \
         \"iterations\": {{\"small\": {SMALL_ITERS}, \"medium\": {MEDIUM_ITERS}}},\n  \
         \"shards\": {SHARDS},\n  \"host\": {{\"os\": \"{}\", \"arch\": \"{}\", \"cores\": {}}},\n  \
         \"paths\": {{\n{}\n  }},\n  \"ratios\": {{\n    \
         \"shard_merge_vs_train_small\": {merge_ratio:.3},\n    \
         \"resume_vs_train_small\": {resume_ratio:.3},\n    \
         \"incremental_speedup_vs_full\": {incremental_speedup:.3}\n  }}\n}}\n",
        extra_refs.len(),
        std::env::consts::OS,
        std::env::consts::ARCH,
        std::thread::available_parallelism().map_or(0, usize::from),
        entries.join(",\n")
    );
    let out = std::env::var("PIGEON_BENCH_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_TRAIN.json").to_owned()
    });
    std::fs::write(&out, report).expect("writes snapshot");
    println!("\nwrote {out}");
    section.end();
}
