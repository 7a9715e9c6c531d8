//! Memory that requests leave behind: a program's names live in its own
//! tree, so predicting programs with names never seen before must not
//! grow the process once it is warm.
//!
//! This binary holds one test on purpose: it reads the resident set size
//! of the whole process, which a second test running beside it would
//! disturb.

/// The resident set size of this process in bytes, from
/// `/proc/self/status`.
#[cfg(target_os = "linux")]
fn rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("reads /proc/self/status");
    let kb: u64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse().ok())
        .expect("VmRSS line in kB");
    kb * 1024
}

#[cfg(target_os = "linux")]
#[test]
fn distinct_names_leave_no_memory_behind() {
    use pigeon::corpus::{generate, CorpusConfig, Language};
    use pigeon::{Pigeon, PigeonConfig};

    const NAME_LEN: usize = 1_000;
    const PROGRAMS: usize = 5_000;

    let corpus = generate(
        Language::JavaScript,
        &CorpusConfig::default().with_files(40),
    );
    let sources: Vec<&str> = corpus.docs.iter().map(|d| d.source.as_str()).collect();
    let model =
        Pigeon::train_variable_namer(Language::JavaScript, &sources, &PigeonConfig::default())
            .expect("training corpus parses");

    // A valid identifier of exactly `NAME_LEN` bytes, distinct per `i`.
    let name = |i: usize| format!("v{i:0>width$}", width = NAME_LEN - 1);
    let program = |name: &str| {
        format!("function f(a) {{ var {name} = a + 1; if ({name} > a) {{ {name} = a; }} return {name}; }}")
    };
    let predict = |i: usize| {
        let predictions = model.predict(&program(&name(i))).expect("parses");
        assert_eq!(predictions.len(), 2, "a and the long name are predicted");
    };

    // Warm up on one repeated name, so every lazily built table and
    // allocator arena exists before the measurement starts.
    for _ in 0..PROGRAMS / 5 {
        predict(0);
    }
    let before = rss_bytes();
    for i in 1..=PROGRAMS {
        predict(i);
    }
    let grown = rss_bytes().saturating_sub(before);

    // A process-wide table of values would keep at least `NAME_LEN`
    // bytes per name; allow a quarter of that for allocator noise.
    let bound = (PROGRAMS * NAME_LEN / 4) as u64;
    assert!(
        grown < bound,
        "{PROGRAMS} programs of distinct {NAME_LEN}-byte names grew RSS by {grown} bytes \
         (bound {bound}): values outlive their requests"
    );
}
