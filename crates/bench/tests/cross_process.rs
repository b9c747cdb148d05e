//! Cross-**process** warm start: the property the persistent store exists
//! for, proven with real process boundaries rather than in-process
//! instances.
//!
//! A first `batch` invocation runs cold against an empty `ATLAS_STORE`
//! root and fills it with one closure shard per cluster plus the
//! whole-run `specs.json` export.  A second, completely fresh invocation —
//! new process, new program build, nothing shared but the directory —
//! must splice every cluster from its shard, execute zero unit tests,
//! export a byte-identical specification set and report the same app
//! results.  The second invocation runs under `--expect-warm`, so the
//! binary itself also enforces the invariants it reports.

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
        .expect("stdout is a valid atlas-batch/2 document")
}

#[test]
fn warm_start_is_exact_across_process_boundaries() {
    let dir = std::env::temp_dir().join(format!("atlas-cross-process-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let int = |doc: &Json, section: &str, key: &str| {
        doc.get(section)
            .and_then(|s| s.get(key))
            .and_then(Json::as_int)
            .unwrap_or_else(|| panic!("{section}.{key} missing"))
    };

    // Process 1: cold; pays for every oracle execution and fills the store.
    // An empty report path means "no copy", like every other empty knob —
    // it must not fail the finished run.
    let cold = run_batch_process(&dir, &[], &[("ATLAS_BATCH_OUT", "")]);
    let clusters = int(&cold, "inference", "clusters");
    assert!(clusters > 0);
    assert_eq!(int(&cold, "store", "spliced_clusters"), 0);
    assert_eq!(int(&cold, "store", "reran_clusters"), clusters);
    assert!(
        int(&cold, "inference", "cold_executions") > 0,
        "the cold process actually executed"
    );
    assert_eq!(
        atlas_store::list_shards(&dir).expect("store root").len() as i64,
        clusters,
        "the cold process persists one shard per cluster"
    );
    let spec_file = cold
        .get("store")
        .and_then(|s| s.get("spec_file"))
        .and_then(Json::as_str)
        .expect("spec file path")
        .to_string();
    let spec_bytes = std::fs::read(&spec_file).expect("spec artifact exists");

    // Process 2: fresh process, same store; also passes --threads (the CLI
    // override) and --expect-warm, so the binary exits nonzero unless the
    // warm-start invariants hold.
    let warm = run_batch_process(&dir, &["--threads", "1", "--expect-warm"], &[]);
    assert_eq!(
        int(&warm, "store", "spliced_clusters"),
        clusters,
        "the fresh process splices every cluster"
    );
    assert_eq!(int(&warm, "store", "reran_clusters"), 0);
    assert_eq!(int(&warm, "store", "forced_dirty"), 0);
    assert!(int(&warm, "store", "spliced_verdicts") > 0);
    assert_eq!(
        warm.get("store").and_then(|s| s.get("specs_identical")),
        Some(&Json::Bool(true)),
        "the inferred spec set is byte-identical across processes"
    );
    assert_eq!(
        (
            int(&warm, "inference", "cold_executions"),
            int(&warm, "inference", "warm_executions")
        ),
        (0, 0),
        "zero unit tests run in the warm process"
    );
    // The spec artifact on disk is unchanged byte-for-byte, and the app
    // evaluation over it reports the same results.
    assert_eq!(
        std::fs::read(&spec_file).expect("spec artifact"),
        spec_bytes
    );
    for section in ["apps", "totals"] {
        assert_eq!(
            atlas_bench::fleet::normalized(warm.get(section).expect("section")),
            atlas_bench::fleet::normalized(cold.get(section).expect("section")),
            "{section} differ across processes"
        );
    }

    std::fs::remove_dir_all(&dir).unwrap();
}
