//! The resident-service pipeline: spawn an in-process `atlas-serve`
//! daemon, open `N` named sessions, replay one deterministic
//! mutation-generator edit stream per session from its own client thread,
//! and byte-compare every session's final artifact against a cold batch
//! run over its own edited program.  One `atlas-serve/2` JSON report.
//!
//! ```sh
//! cargo run --release -p atlas-bench --bin serve_bench > report.json
//! # the CI smoke gate:
//! cargo run --release -p atlas-bench --bin serve_bench -- \
//!     --samples 120 --threads 4 --workers 4 --sessions 4 --edits 250 --seed 7 \
//!     --store target/atlas-serve-multi --expect-throughput 10
//! ```
//!
//! The human summary goes to stderr, the JSON document to stdout (and to
//! `ATLAS_SERVE_OUT` when set).  Budgets come from the usual knobs
//! (`ATLAS_SAMPLES`, `ATLAS_THREADS`) plus the `ATLAS_SERVE_*` family for
//! the daemon (see `atlas_serve::config`) and `ATLAS_SERVE_EDITS` for the
//! stream length.
//!
//! Flags:
//!
//! * `--library NAME` — registry name of the library under service
//!   (default `javalib`).
//! * `--samples N` / `--threads N` — budgets, overriding the environment.
//! * `--store ROOT` — closure-sharded store root, overriding
//!   `ATLAS_SERVE_STORE`.
//! * `--edits N` — edit-stream length per session (default 1000).
//! * `--sessions N` — concurrent named sessions (default 1).
//! * `--workers N` — daemon worker-pool width (0 = auto from the thread
//!   budget).
//! * `--shards N` — hot-shard LRU budget.
//! * `--queue N` — request-queue capacity.
//! * `--flush-every N` — write-behind schedule (`0` = every edit).
//! * `--seed N` — base mutation seed.
//! * `--trace` — record daemon span events (overriding `ATLAS_TRACE`);
//!   never changes results.
//! * `--trace-out PATH` — write the daemon's Chrome trace-event JSON to
//!   `PATH` (implies `--trace`; overrides `ATLAS_TRACE_OUT`).
//! * `--expect-throughput N` — assert the service contract: every
//!   session's final artifact byte-identical to its cold baseline,
//!   fingerprints matching, and at least `N` edits per second sustained
//!   in aggregate.  Exits `1` otherwise.

use atlas_bench::{Json, ServeBenchConfig};
use std::path::PathBuf;

fn usage(message: &str) -> ! {
    eprintln!(
        "serve_bench: {message}\nusage: serve_bench [--library NAME] [--samples N] [--threads N] \
         [--store ROOT] [--edits N] [--sessions N] [--workers N] [--shards N] [--queue N] \
         [--flush-every N] [--seed N] [--trace] [--trace-out PATH] [--expect-throughput N]"
    );
    std::process::exit(1);
}

fn main() {
    let mut config = ServeBenchConfig::from_env();
    let mut expect_throughput: Option<f64> = None;
    let mut trace_out: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--library" => {
                config.serve.library = args
                    .next()
                    .unwrap_or_else(|| usage("--library needs a name"));
            }
            "--samples" => {
                config.serve.samples = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--samples needs a number"));
            }
            "--threads" => {
                config.serve.threads = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--threads needs a number"));
            }
            "--store" => {
                config.serve.store =
                    PathBuf::from(args.next().unwrap_or_else(|| usage("--store needs a path")));
            }
            "--edits" => {
                config.edits = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--edits needs a number"));
            }
            "--sessions" => {
                config.sessions = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--sessions needs a number"));
            }
            "--workers" => {
                config.serve.workers = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--workers needs a number"));
            }
            "--shards" => {
                config.serve.shard_budget = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--shards needs a number"));
            }
            "--queue" => {
                config.serve.queue_capacity = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--queue needs a number"));
            }
            "--flush-every" => {
                config.serve.flush_every = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--flush-every needs a number"));
            }
            "--seed" => {
                config.seed = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--seed needs a number"));
            }
            "--trace" => config.serve.trace = true,
            "--trace-out" => {
                config.serve.trace = true;
                trace_out = Some(PathBuf::from(
                    args.next()
                        .unwrap_or_else(|| usage("--trace-out needs a path")),
                ));
            }
            "--expect-throughput" => {
                expect_throughput = Some(
                    args.next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage("--expect-throughput needs a number")),
                );
            }
            other => usage(&format!("unknown argument '{other}'")),
        }
    }
    eprintln!(
        "serve_bench: {} ({} samples/cluster, threads={}, workers={}, sessions={}, edits={}, store={})",
        config.serve.library,
        config.serve.samples,
        config.serve.threads,
        config.serve.workers,
        config.sessions,
        config.edits,
        config.serve.store.display()
    );
    let report = match atlas_bench::run_serve_multi_bench(&config) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("serve_bench: {e}");
            std::process::exit(1);
        }
    };
    eprint!("{}", report.summary);
    atlas_bench::emit_report("serve_bench", &report.json.render(), "ATLAS_SERVE_OUT");
    atlas_bench::export_trace(&report.recorder, trace_out);
    if let Some(min_throughput) = expect_throughput {
        verify_serve(&report.json, &config, min_throughput);
    }
}

/// The `--expect-throughput` contract, checked from the report itself.
/// Failure messages name the store root, so a wedged or diverged daemon is
/// diagnosable from the CI log alone.
fn verify_serve(report: &Json, config: &ServeBenchConfig, min_throughput: f64) {
    let store = config.serve.store.display();
    let mut failures = Vec::new();
    let equivalence = report.get("equivalence").unwrap_or(&Json::Null);
    if equivalence.get("identical").and_then(Json::as_bool) != Some(true) {
        failures.push(format!(
            "a session's final artifact over {store} is not byte-identical to its cold baseline"
        ));
    }
    if equivalence
        .get("fingerprints_match")
        .and_then(Json::as_bool)
        != Some(true)
    {
        failures.push(
            "a session's final library fingerprint diverged from its replayed content".to_string(),
        );
    }
    let edits = report.get("edits").unwrap_or(&Json::Null);
    let accepted = edits.get("accepted").and_then(Json::as_int).unwrap_or(0);
    if accepted == 0 {
        failures.push("the daemon accepted no edits at all".to_string());
    }
    let throughput = report
        .get("throughput_edits_per_sec")
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    if throughput < min_throughput {
        failures.push(format!(
            "throughput {throughput:.2} edits/s is below the {min_throughput:.2} floor"
        ));
    }
    if failures.is_empty() {
        let p99 = report
            .get("latency_ms")
            .and_then(|l| l.get("p99"))
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        eprintln!(
            "serve_bench: contract verified ({accepted} edits accepted, \
             {throughput:.1} edits/s, p99 {p99:.2}ms, byte-identical to cold batch)"
        );
    } else {
        for failure in &failures {
            eprintln!("serve_bench: --expect-throughput failed: {failure}");
        }
        std::process::exit(1);
    }
}
