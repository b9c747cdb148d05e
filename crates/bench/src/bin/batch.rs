//! The batch evaluation pipeline: cold + warm-started inference, the full
//! app suite under all three specification variants, one JSON report.
//!
//! ```sh
//! cargo run --release -p atlas-bench --bin batch > report.json
//! # or, to also keep a copy on disk:
//! ATLAS_BATCH_OUT=target/batch.json cargo run --release -p atlas-bench --bin batch
//! # cross-process warm start via the closure-sharded store:
//! ATLAS_STORE=target/atlas-store cargo run --release -p atlas-bench --bin batch
//! ATLAS_STORE=target/atlas-store cargo run --release -p atlas-bench --bin batch -- --expect-warm
//! ```
//!
//! Both inference legs are the store-backed run: over the store root when
//! one is configured, over a temporary root removed when the run ends
//! otherwise.  The human summary goes to stderr, the `atlas-batch/2` JSON
//! document to stdout (and to `ATLAS_BATCH_OUT` when set).  Budgets come
//! from the usual knobs (`ATLAS_SAMPLES`, `ATLAS_APPS`, `ATLAS_THREADS`)
//! plus the suite-shape knobs `ATLAS_BATCH_SEED`,
//! `ATLAS_BATCH_MAX_PATTERNS`, and `ATLAS_BATCH_SIZE_FACTOR`.
//!
//! Flags:
//!
//! * `--threads N` — engine worker threads, overriding `ATLAS_THREADS`
//!   (0 = one per core); CI matrices pass this instead of mutating the
//!   environment.
//! * `--store PATH` — closure-sharded store root, overriding `ATLAS_STORE`.
//! * `--trace` — record span events (overriding `ATLAS_TRACE`); never
//!   changes results.
//! * `--trace-out PATH` — write the run's Chrome trace-event JSON to
//!   `PATH` (implies `--trace`; overrides `ATLAS_TRACE_OUT`).
//! * `--expect-warm` — assert the cross-process warm-start invariants after
//!   the run: every cluster spliced from the store (none re-ran or was
//!   forced dirty), the first leg executed no unit test, and the inferred
//!   spec set is byte-identical to the previous process's export.  Exits
//!   `1` when any of that fails, so CI smoke steps can rely on it.

use atlas_bench::Json;
use std::path::PathBuf;

fn usage(message: &str) -> ! {
    eprintln!(
        "batch: {message}\nusage: batch [--threads N] [--store PATH] [--trace] \
         [--trace-out PATH] [--expect-warm]"
    );
    std::process::exit(1);
}

fn main() {
    let mut config = atlas_bench::BatchConfig::from_env();
    let mut expect_warm = false;
    let mut trace_out: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--threads" => {
                config.threads = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--threads needs a number"));
            }
            "--store" => {
                config.store = Some(PathBuf::from(
                    args.next().unwrap_or_else(|| usage("--store needs a path")),
                ));
            }
            "--trace" => config.trace = true,
            "--trace-out" => {
                config.trace = true;
                trace_out = Some(PathBuf::from(
                    args.next()
                        .unwrap_or_else(|| usage("--trace-out needs a path")),
                ));
            }
            "--expect-warm" => expect_warm = true,
            other => usage(&format!("unknown argument '{other}'")),
        }
    }
    if expect_warm && config.store.is_none() {
        usage("--expect-warm needs a store (--store or ATLAS_STORE)");
    }
    eprintln!(
        "batch: {} samples/cluster, {} apps, threads={}{}",
        config.samples,
        config.app_config.count,
        config.threads,
        match &config.store {
            Some(dir) => format!(", store={}", dir.display()),
            None => String::new(),
        }
    );
    let report = match atlas_bench::run_batch(&config) {
        Ok(report) => report,
        Err(e) => {
            // Store trouble (unwritable directory, corrupt artifact) is an
            // operational error with a position, not a crash.
            eprintln!("batch: store error: {e}");
            std::process::exit(1);
        }
    };
    eprint!("{}", report.summary);
    atlas_bench::emit_report("batch", &report.json.render(), "ATLAS_BATCH_OUT");
    atlas_bench::export_trace(&report.recorder, trace_out);
    if expect_warm {
        verify_warm_start(&report.json);
    }
}

/// The `--expect-warm` contract ([`atlas_bench::warm_start_failures`]),
/// checked from the report itself: the first leg spliced every cluster
/// and executed nothing.
fn verify_warm_start(report: &Json) {
    let inference = report.get("inference").unwrap_or(&Json::Null);
    let int = |key: &str| inference.get(key).and_then(Json::as_int);
    let failures = atlas_bench::warm_start_failures(
        report.get("store").unwrap_or(&Json::Null),
        int("clusters"),
        int("cold_executions"),
    );
    if failures.is_empty() {
        eprintln!(
            "batch: cross-process warm start verified (every cluster spliced, identical specs, \
             0 re-executions)"
        );
    } else {
        for failure in &failures {
            eprintln!("batch: --expect-warm failed: {failure}");
        }
        std::process::exit(1);
    }
}
