//! The worker side of multi-box distributed training.
//!
//! `pigeon work --coordinator URL` runs [`run_worker`]: a poll loop that
//! leases one shard at a time from the coordinator (`POST /v1/leases`),
//! checks the content-addressed partial cache before doing any work
//! (`GET /v1/partials/<key>`), and otherwise extracts the shard locally
//! — the same `build_training_partial` the sharded CLI path uses — and
//! uploads the `.pgnc` partial (`POST /v1/partials`). The coordinator
//! runs the finishing merge once coverage is exact, so the resulting
//! model is byte-identical to a single-process `pigeon train` over the
//! same corpus.
//!
//! Every exchange is one `Connection: close` request through
//! [`crate::http::request`], the framing the server uses too.

use std::time::Duration;

use pigeon_corpus::Language;
use pigeon_crf::artifact::ArtifactMeta;
use pigeon_crf::CrfConfig;
use pigeon_eval::ElementClass;

use crate::http;
use crate::{Pigeon, PigeonConfig, PigeonError};

/// The on-disk file extension for each language's sources — shared by
/// the CLI's corpus scans and the coordinator/worker corpus listing.
pub fn language_ext(language: Language) -> &'static str {
    match language {
        Language::JavaScript => "js",
        Language::Java => "java",
        Language::Python => "py",
        Language::CSharp => "cs",
    }
}

/// Lists a corpus directory exactly the way `pigeon train --dir` does:
/// regular files with the language's extension, sorted by path, read in
/// full. Returns `(file_name, contents)` pairs — the names feed the
/// shard content addresses, the contents feed extraction. The
/// coordinator and every worker run this same listing, which is what
/// makes their independently derived cache keys agree.
///
/// # Errors
///
/// Returns a message when the directory cannot be read or holds no
/// matching files.
pub fn list_corpus(language: Language, dir: &str) -> Result<Vec<(String, String)>, String> {
    let ext = language_ext(language);
    let entries = std::fs::read_dir(dir).map_err(|e| format!("cannot read {dir}: {e}"))?;
    let mut paths: Vec<std::path::PathBuf> = entries
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.is_file() && p.extension().and_then(|e| e.to_str()) == Some(ext))
        .collect();
    if paths.is_empty() {
        return Err(format!("no .{ext} files in {dir}"));
    }
    paths.sort();
    paths
        .into_iter()
        .map(|path| {
            let name = path
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or_default()
                .to_owned();
            std::fs::read_to_string(&path)
                .map(|source| (name, source))
                .map_err(|e| format!("cannot read {}: {e}", path.display()))
        })
        .collect()
}

fn http_json(
    coordinator: &str,
    method: &str,
    path: &str,
    request: &serde_json::Value,
) -> Result<(u16, serde_json::Value), String> {
    let body = serde_json::to_string(request).map_err(|e| e.to_string())?;
    let response = http::request(
        coordinator,
        method,
        path,
        "application/json",
        body.as_bytes(),
    )?;
    let text = String::from_utf8_lossy(&response.body);
    let value = serde_json::from_str(&text)
        .map_err(|e| format!("coordinator sent invalid JSON for {method} {path}: {e}: {text}"))?;
    Ok((response.status, value))
}

/// Configuration of one [`run_worker`] loop.
pub struct WorkerOptions {
    /// Coordinator base URL (`http://host:port`).
    pub coordinator: String,
    /// Worker name reported on leases (shows up in job status).
    pub name: String,
    /// Poll interval while the coordinator says `wait`.
    pub poll: Duration,
    /// Artificial delay before each upload — straggler injection for
    /// the reassignment tests; zero in real use.
    pub throttle: Duration,
    /// Extraction fan-out inside this worker; `0` uses all cores.
    pub jobs: usize,
    /// Exit once the coordinator has no work (after a few idle polls);
    /// `false` polls forever, picking up jobs as they are created.
    pub exit_when_idle: bool,
}

/// How many consecutive `idle` polls (no running job anywhere) before
/// an `exit_when_idle` worker goes home.
const IDLE_POLLS_BEFORE_EXIT: u32 = 3;

/// How many consecutive connection failures to tolerate before giving
/// up — rides out a coordinator restart mid-job.
const MAX_CONNECT_FAILURES: u32 = 30;

/// Renders a JSON value for error messages.
fn render(v: &serde_json::Value) -> String {
    serde_json::to_string(v).unwrap_or_else(|_| "<unrenderable JSON>".to_owned())
}

fn field_str<'a>(v: &'a serde_json::Value, field: &str) -> Result<&'a str, String> {
    v.get(field)
        .and_then(|s| s.as_str())
        .ok_or_else(|| format!("lease is missing `{field}`: {}", render(v)))
}

fn field_u64(v: &serde_json::Value, field: &str) -> Result<u64, String> {
    v.get(field)
        .and_then(|n| n.as_u64())
        .ok_or_else(|| format!("lease is missing `{field}`: {}", render(v)))
}

/// Resolves the settings a lease carries — the job's header plus its
/// `keep_prob` — through [`crate::resolve_header`], as every model loader
/// does, so a worker builds its partial under the job's exact settings.
///
/// # Errors
///
/// [`crate::ErrorKind::ModelFormat`] naming the missing field or the
/// header's problem.
pub fn lease_config(
    lease: &serde_json::Value,
) -> Result<(Language, ElementClass, PigeonConfig), PigeonError> {
    let err = |m: &str| PigeonError::model_format(format!("lease: {m}"));
    let header = ArtifactMeta::from_json(lease).map_err(|m| err(&m))?;
    let keep_prob = lease
        .get("keep_prob")
        .and_then(|n| n.as_f64())
        .ok_or_else(|| err("missing field `keep_prob`"))?;
    crate::resolve_header(&header, CrfConfig::default(), keep_prob).map_err(|e| err(e.message()))
}

/// Extracts and uploads one leased shard and reports it; returns `true`
/// when the partial was already in the coordinator's cache.
fn work_one_lease(opts: &WorkerOptions, lease: &serde_json::Value) -> Result<bool, String> {
    let job = field_u64(lease, "job")?;
    let shard_index = field_u64(lease, "shard_index")? as usize;
    let shard_count = field_u64(lease, "shard_count")? as usize;
    let key = field_str(lease, "cache_key")?;

    // Cache pre-flight: if any worker (or a previous run) already
    // produced this exact shard under this exact configuration, re-post
    // the cached bytes instead of extracting anything.
    let cached = http::request(
        &opts.coordinator,
        "GET",
        &format!("/v1/partials/{key}"),
        "application/json",
        b"",
    )?;
    let partial = if cached.status == 200 {
        cached.body
    } else {
        let (language, target, config) = lease_config(lease).map_err(|e| e.to_string())?;
        let config = PigeonConfig {
            jobs: opts.jobs,
            ..config
        };
        let files = list_corpus(language, field_str(lease, "corpus_dir")?)?;
        let sources: Vec<&str> = files.iter().map(|(_, s)| s.as_str()).collect();
        Pigeon::build_training_partial(
            language,
            target,
            &sources,
            shard_index,
            shard_count,
            &config,
        )
        .map_err(|e| e.to_string())?
    };
    if !opts.throttle.is_zero() {
        std::thread::sleep(opts.throttle);
    }
    let response = http::request(
        &opts.coordinator,
        "POST",
        "/v1/partials",
        "application/octet-stream",
        &partial,
    )?;
    if response.status != 200 {
        return Err(format!(
            "coordinator rejected shard {shard_index}/{shard_count} of job {job}: {}",
            String::from_utf8_lossy(&response.body)
        ));
    }
    let from_cache = cached.status == 200;
    println!(
        "pigeon work: {} shard {shard_index}/{shard_count} of job {job} ({})",
        opts.name,
        if from_cache { "cached" } else { "extracted" }
    );
    Ok(from_cache)
}

/// The worker loop: lease, work, repeat. Connection errors are retried
/// with the poll delay (up to a bound) so a coordinator restart mid-job
/// does not kill the fleet; shard-level failures are reported and the
/// loop moves on (the lease expires and the shard is reassigned).
///
/// # Errors
///
/// Returns a message when the coordinator stays unreachable past the
/// retry budget.
pub fn run_worker(opts: &WorkerOptions) -> Result<(), String> {
    let mut idle_polls = 0u32;
    let mut connect_failures = 0u32;
    let mut done = 0u64;
    let mut cached = 0u64;
    loop {
        let lease = match http_json(
            &opts.coordinator,
            "POST",
            "/v1/leases",
            &serde_json::json!({ "worker": opts.name }),
        ) {
            Ok((200, value)) => value,
            Ok((status, value)) => {
                return Err(format!(
                    "coordinator refused the lease poll ({status}): {}",
                    render(&value)
                ));
            }
            Err(e) => {
                connect_failures += 1;
                if connect_failures >= MAX_CONNECT_FAILURES {
                    return Err(format!(
                        "pigeon work: giving up after {connect_failures} failed polls: {e}"
                    ));
                }
                eprintln!("pigeon work: poll failed ({e}); retrying");
                std::thread::sleep(opts.poll.max(Duration::from_millis(50)));
                continue;
            }
        };
        connect_failures = 0;
        match lease.get("status").and_then(|s| s.as_str()) {
            Some("assigned") => {
                idle_polls = 0;
                match work_one_lease(opts, &lease) {
                    Ok(from_cache) => {
                        done += 1;
                        cached += u64::from(from_cache);
                    }
                    Err(e) => {
                        // The lease deadline reassigns this shard; keep
                        // polling rather than dying mid-fleet.
                        eprintln!("pigeon work: shard failed: {e}");
                        std::thread::sleep(opts.poll.max(Duration::from_millis(50)));
                    }
                }
            }
            Some("wait") => {
                idle_polls = 0;
                std::thread::sleep(opts.poll);
            }
            Some("idle") => {
                idle_polls += 1;
                if opts.exit_when_idle && idle_polls >= IDLE_POLLS_BEFORE_EXIT {
                    println!(
                        "pigeon work: {} idle; exiting after {done} shard{} ({cached} cached)",
                        opts.name,
                        if done == 1 { "" } else { "s" },
                    );
                    return Ok(());
                }
                std::thread::sleep(opts.poll);
            }
            other => {
                return Err(format!(
                    "coordinator sent unknown lease status {other:?}: {}",
                    render(&lease)
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn list_corpus_sorts_and_filters_by_extension() {
        let dir = std::env::temp_dir().join(format!("pigeon-distrib-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("b.js"), "function b(x) { return x; }").unwrap();
        std::fs::write(dir.join("a.js"), "function a(y) { return y; }").unwrap();
        std::fs::write(dir.join("ignore.txt"), "not a source").unwrap();
        let files = list_corpus(Language::JavaScript, dir.to_str().unwrap()).unwrap();
        assert_eq!(
            files.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>(),
            ["a.js", "b.js"]
        );
        assert!(files[0].1.contains("function a"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn list_corpus_rejects_an_empty_directory() {
        let dir = std::env::temp_dir().join(format!("pigeon-distrib-empty-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let err = list_corpus(Language::JavaScript, dir.to_str().unwrap()).unwrap_err();
        assert!(err.contains("no .js files"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
