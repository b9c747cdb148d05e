//! The oracle-throughput pipeline: execute a deterministic witness
//! workload under the bytecode VM and the tree-walking interpreter,
//! cross-check their equivalence, and report one `atlas-oracle/1` JSON
//! document.
//!
//! ```sh
//! cargo run --release -p atlas-bench --bin oracle > report.json
//! # the CI smoke gate:
//! cargo run --release -p atlas-bench --bin oracle -- --expect-speedup 4
//! ```
//!
//! The human summary goes to stderr, the JSON document to stdout (and to
//! `ATLAS_ORACLE_OUT` when set).  `ATLAS_ORACLE_WORDS` and
//! `ATLAS_ORACLE_ROUNDS` size the workload from the environment.
//!
//! Flags:
//!
//! * `--library NAME` — registry name of the library under measurement
//!   (default `javalib`).
//! * `--words N` / `--rounds N` — workload size, overriding the
//!   environment.
//! * `--trace` — record span events (overriding `ATLAS_TRACE`); never
//!   changes results.
//! * `--trace-out PATH` — write the run's Chrome trace-event JSON to
//!   `PATH` (implies `--trace`; overrides `ATLAS_TRACE_OUT`).
//! * `--profile` — record per-opcode dynamic execution counts
//!   (overriding `ATLAS_VM_PROFILE`); the counts come from a dedicated
//!   untimed pass and never change results.
//! * `--profile-out PATH` — write the report's `profile` section to
//!   `PATH` as its own JSON document (implies `--profile`).
//! * `--expect-speedup X` — assert the performance and equivalence
//!   contract: identical verdicts and steps under both engines, and
//!   bytecode throughput at least `X` times the tree-walker's.  Exits `1`
//!   otherwise.

use atlas_bench::{Json, OracleBenchConfig};
use std::path::PathBuf;

fn usage(message: &str) -> ! {
    eprintln!(
        "oracle: {message}\nusage: oracle [--library NAME] [--words N] [--rounds N] \
         [--trace] [--trace-out PATH] [--profile] [--profile-out PATH] [--expect-speedup X]"
    );
    std::process::exit(1);
}

fn main() {
    let mut config = OracleBenchConfig::from_env();
    let mut expect_speedup: Option<f64> = None;
    let mut trace_out: Option<PathBuf> = None;
    let mut profile_out: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--library" => {
                config.library = args
                    .next()
                    .unwrap_or_else(|| usage("--library needs a name"));
            }
            "--words" => {
                config.words = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--words needs a number"));
            }
            "--rounds" => {
                config.rounds = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--rounds needs a number"));
            }
            "--trace" => config.trace = true,
            "--trace-out" => {
                config.trace = true;
                trace_out = Some(PathBuf::from(
                    args.next()
                        .unwrap_or_else(|| usage("--trace-out needs a path")),
                ));
            }
            "--profile" => config.profile = true,
            "--profile-out" => {
                config.profile = true;
                profile_out = Some(PathBuf::from(
                    args.next()
                        .unwrap_or_else(|| usage("--profile-out needs a path")),
                ));
            }
            "--expect-speedup" => {
                expect_speedup = Some(
                    args.next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage("--expect-speedup needs a number")),
                );
            }
            other => usage(&format!("unknown argument '{other}'")),
        }
    }
    eprintln!(
        "oracle: {} ({} words x {} rounds)",
        config.library, config.words, config.rounds
    );
    let report = match atlas_bench::run_oracle_bench(&config) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("oracle: {e}");
            std::process::exit(1);
        }
    };
    eprint!("{}", report.summary);
    atlas_bench::emit_report("oracle", &report.json.render(), "ATLAS_ORACLE_OUT");
    atlas_bench::export_trace(&report.recorder, trace_out);
    if let Some(path) = profile_out {
        // A missing histogram must never turn a green benchmark red.
        match report.json.get("profile") {
            Some(profile) => match std::fs::write(&path, profile.render()) {
                Ok(()) => eprintln!("oracle: wrote profile to {}", path.display()),
                Err(e) => eprintln!("oracle: failed to write {}: {e}", path.display()),
            },
            None => eprintln!("oracle: no profile section to write"),
        }
    }
    if let Some(min_speedup) = expect_speedup {
        verify_oracle(&report.json, min_speedup);
    }
}

/// The `--expect-speedup` contract, checked from the report itself.
fn verify_oracle(report: &Json, min_speedup: f64) {
    let mut failures = Vec::new();
    for key in ["verdicts_identical", "steps_identical"] {
        if report.get(key).and_then(Json::as_bool) != Some(true) {
            failures.push(format!("the engines must agree: {key} is not true"));
        }
    }
    let speedup = report.get("speedup").and_then(Json::as_f64).unwrap_or(0.0);
    if speedup < min_speedup {
        failures.push(format!(
            "bytecode speedup {speedup:.2}x is below the required {min_speedup:.2}x"
        ));
    }
    if failures.is_empty() {
        eprintln!(
            "oracle: contract verified ({speedup:.1}x >= {min_speedup:.1}x, engines identical)"
        );
    } else {
        for failure in &failures {
            eprintln!("oracle: --expect-speedup failed: {failure}");
        }
        std::process::exit(1);
    }
}
