//! Cross-**process** warm start: the property the persistent store exists
//! for, proven with real process boundaries rather than in-process
//! instances.
//!
//! A first `batch` invocation runs cold and persists its verdict cache and
//! inferred specification set into an `ATLAS_STORE` directory.  A second,
//! completely fresh invocation — new process, new program build, nothing
//! shared but the directory — must warm-start from the files, re-execute
//! zero unit tests, and export a byte-identical specification set.  The
//! second invocation runs under `--expect-warm`, so the binary itself also
//! enforces the invariants it reports.

use atlas_bench::Json;
use std::path::Path;
use std::process::Command;

/// Runs the `batch` binary with small budgets against `store`, returning
/// its parsed JSON report (parsed with the same shared parser the store
/// uses — the report schema is round-trippable by construction).
fn run_batch_process(store: &Path, extra_args: &[&str], extra_env: &[(&str, &str)]) -> Json {
    let output = Command::new(env!("CARGO_BIN_EXE_batch"))
        .args(extra_args)
        .envs(extra_env.iter().copied())
        .env("ATLAS_STORE", store)
        .env("ATLAS_SAMPLES", "250")
        .env("ATLAS_APPS", "1")
        .env("ATLAS_THREADS", "2")
        .output()
        .expect("spawn batch binary");
    assert!(
        output.status.success(),
        "batch {extra_args:?} failed with {}:\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    Json::parse(&String::from_utf8(output.stdout).expect("utf-8 report"))
        .expect("stdout is a valid atlas-batch/1 document")
}

#[test]
fn warm_start_is_exact_across_process_boundaries() {
    let dir = std::env::temp_dir().join(format!("atlas-cross-process-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Process 1: cold; pays for every oracle execution and fills the store.
    // An empty report path means "no copy", like every other empty knob —
    // it must not fail the finished run.
    let cold = run_batch_process(&dir, &[], &[("ATLAS_BATCH_OUT", "")]);
    let store = cold.get("store").expect("store section");
    assert_eq!(
        store.get("warm_started_from_disk"),
        Some(&Json::Bool(false))
    );
    let persisted = store
        .get("persisted_entries")
        .and_then(Json::as_int)
        .expect("persisted entry count");
    assert!(persisted > 0, "the cold process persists its verdicts");
    let cold_executions = cold
        .get("inference")
        .and_then(|i| i.get("cold_executions"))
        .and_then(Json::as_int)
        .expect("execution count");
    assert!(cold_executions > 0, "the cold process actually executed");
    let spec_file = store
        .get("spec_file")
        .and_then(Json::as_str)
        .expect("spec file path");
    let spec_bytes = std::fs::read(spec_file).expect("spec artifact exists");

    // Process 2: fresh process, same store; also passes --threads (the CLI
    // override) and --expect-warm, so the binary exits nonzero unless the
    // warm-start invariants hold.
    let warm = run_batch_process(&dir, &["--threads", "1", "--expect-warm"], &[]);
    let store = warm.get("store").expect("store section");
    assert_eq!(store.get("warm_started_from_disk"), Some(&Json::Bool(true)));
    assert_eq!(
        store.get("loaded_entries").and_then(Json::as_int),
        Some(persisted),
        "the fresh process reloads exactly what the first persisted"
    );
    assert_eq!(
        store.get("cross_process_identical"),
        Some(&Json::Bool(true)),
        "the inferred spec set is byte-identical across processes"
    );
    assert_eq!(store.get("new_entries"), Some(&Json::Int(0)));
    let rate = store
        .get("reload_hit_rate")
        .and_then(Json::as_f64)
        .expect("reload hit rate");
    assert!(rate > 0.99, "every query reloads from disk, got {rate}");
    assert_eq!(
        warm.get("inference")
            .and_then(|i| i.get("cold_executions"))
            .and_then(Json::as_int),
        Some(0),
        "zero oracle re-executions for cached words"
    );
    // The spec artifact on disk is unchanged byte-for-byte.
    assert_eq!(std::fs::read(spec_file).expect("spec artifact"), spec_bytes);

    std::fs::remove_dir_all(&dir).unwrap();
}
