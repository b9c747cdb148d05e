//! The multi-library fleet pipeline: concurrent inference over a registry
//! of library variants with one closure-sharded store root per member, one
//! JSON report.
//!
//! ```sh
//! cargo run --release -p atlas-bench --bin fleet > report.json
//! # cross-process warm start from the member roots:
//! ATLAS_FLEET_STORE=target/atlas-fleet cargo run --release -p atlas-bench --bin fleet
//! ATLAS_FLEET_STORE=target/atlas-fleet cargo run --release -p atlas-bench --bin fleet -- --expect-warm
//! ```
//!
//! The human summary goes to stderr, the `atlas-fleet/2` JSON document to
//! stdout (and to `ATLAS_FLEET_OUT` when set).  Budgets come from the
//! usual knobs (`ATLAS_SAMPLES`, `ATLAS_THREADS`) plus `ATLAS_FLEET_STORE`
//! (store root; member `m` keeps its closure shards under `<root>/m/`;
//! without one, the member roots live under a temporary root removed when
//! the run ends),
//! `ATLAS_FLEET_SEED` (synthetic-library seed), and
//! `ATLAS_FLEET_LIBS` (comma-separated member names).
//!
//! Flags:
//!
//! * `--list` — print the registry and exit.
//! * `--libraries A,B,...` — fleet members, overriding `ATLAS_FLEET_LIBS`.
//! * `--threads N` — global worker budget, overriding `ATLAS_THREADS`
//!   (0 = one per core); bounds outer workers × per-library threads.
//! * `--samples N` — per-cluster sampling budget, overriding
//!   `ATLAS_SAMPLES`.
//! * `--store ROOT` — store root, overriding `ATLAS_FLEET_STORE`.
//! * `--normalized-out PATH` — additionally write the timing-stripped
//!   report (see `atlas_bench::fleet::normalized`); two same-seed runs
//!   against the same store state produce byte-identical files, which CI
//!   `cmp`s.
//! * `--trace` — record span events (overriding `ATLAS_TRACE`); never
//!   changes results.
//! * `--trace-out PATH` — write the run's Chrome trace-event JSON to
//!   `PATH` (implies `--trace`; overrides `ATLAS_TRACE_OUT`).
//! * `--expect-warm` — assert that *every* library spliced every cluster
//!   from its member root, with zero executions and a byte-identical spec
//!   export; exits `1` otherwise.

use atlas_bench::fleet::{self, FleetConfig};
use atlas_bench::Json;
use std::path::PathBuf;

fn usage(message: &str) -> ! {
    eprintln!(
        "fleet: {message}\nusage: fleet [--list] [--libraries A,B,...] [--threads N] \
         [--samples N] [--store ROOT] [--normalized-out PATH] [--trace] [--trace-out PATH] \
         [--expect-warm]"
    );
    std::process::exit(1);
}

fn main() {
    let mut config = FleetConfig::from_env();
    let mut expect_warm = false;
    let mut normalized_out: Option<PathBuf> = None;
    let mut trace_out: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--list" => {
                for name in fleet::registry_names() {
                    println!("{name}");
                }
                return;
            }
            "--libraries" => {
                let list = args
                    .next()
                    .unwrap_or_else(|| usage("--libraries needs a comma-separated list"));
                config.libraries = atlas_bench::config::parse_library_list(&list);
            }
            "--threads" => {
                config.threads = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--threads needs a number"));
            }
            "--samples" => {
                config.samples = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--samples needs a number"));
            }
            "--store" => {
                config.store_root = Some(PathBuf::from(
                    args.next().unwrap_or_else(|| usage("--store needs a path")),
                ));
            }
            "--normalized-out" => {
                normalized_out = Some(PathBuf::from(
                    args.next()
                        .unwrap_or_else(|| usage("--normalized-out needs a path")),
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
    if expect_warm && config.store_root.is_none() {
        usage("--expect-warm needs a store (--store or ATLAS_FLEET_STORE)");
    }
    eprintln!(
        "fleet: {} [{}], {} samples/cluster, threads={}{}",
        config.libraries.len(),
        config.libraries.join(", "),
        config.samples,
        config.threads,
        match &config.store_root {
            Some(root) => format!(", store={}", root.display()),
            None => String::new(),
        }
    );
    let report = match fleet::run_fleet(&config) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("fleet: {e}");
            std::process::exit(1);
        }
    };
    eprint!("{}", report.summary);
    atlas_bench::emit_report("fleet", &report.json.render(), "ATLAS_FLEET_OUT");
    atlas_bench::export_trace(&report.recorder, trace_out);
    if let Some(path) = &normalized_out {
        let norm = fleet::normalized(&report.json).render();
        if let Err(e) = std::fs::write(path, &norm) {
            eprintln!("fleet: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!("fleet: normalized report written to {}", path.display());
    }
    if expect_warm {
        verify_warm_start(&report.json);
    }
}

/// The `--expect-warm` contract ([`atlas_bench::warm_start_failures`]) for
/// every fleet member: each spliced every cluster from its root, executed
/// nothing, and reproduced its spec export byte for byte.
fn verify_warm_start(report: &Json) {
    let libraries = report
        .get("libraries")
        .and_then(Json::as_arr)
        .unwrap_or_default();
    let mut failures = Vec::new();
    if libraries.is_empty() {
        failures.push("the report lists no libraries".to_string());
    }
    for row in libraries {
        let name = row.get("name").and_then(Json::as_str).unwrap_or("?");
        let int = |key: &str| row.get(key).and_then(Json::as_int);
        let member = atlas_bench::warm_start_failures(
            row.get("store").unwrap_or(&Json::Null),
            int("clusters"),
            int("executions"),
        );
        failures.extend(member.into_iter().map(|f| format!("{name}: {f}")));
    }
    if failures.is_empty() {
        eprintln!(
            "fleet: cross-process warm start verified for {} member(s) \
             (every cluster spliced, identical specs, 0 re-executions)",
            libraries.len()
        );
    } else {
        for failure in &failures {
            eprintln!("fleet: --expect-warm failed: {failure}");
        }
        std::process::exit(1);
    }
}
