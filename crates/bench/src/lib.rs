//! # atlas-bench
//!
//! The experiment harness of the reproduction.  Every table and figure of
//! the paper's evaluation has a corresponding function here (and a binary in
//! `src/bin/` that prints it); `exp_all` regenerates everything at once.
//!
//! | Paper artifact | Function | Binary |
//! |---|---|---|
//! | Figure 8 (app sizes) | [`experiments::fig8_app_sizes`] | `fig8_app_sizes` |
//! | §6.1 coverage table | [`experiments::tab_coverage`] | `tab_coverage` |
//! | Figure 9(a) | [`experiments::fig9a_flows`] | `fig9a_flows` |
//! | Figure 9(b) | [`experiments::fig9b_recall`] | `fig9b_recall` |
//! | Figure 9(c) | [`experiments::fig9c_impl_fp`] | `fig9c_impl_fp` |
//! | §6.2 ground-truth table | [`experiments::tab_ground_truth`] | `tab_ground_truth` |
//! | §6.3 sampling table | [`experiments::tab_sampling`] | `tab_sampling` |
//! | §6.3 initialization table | [`experiments::tab_init`] | `tab_init` |
//!
//! Beyond the per-figure binaries, the [`batch`] module is the
//! machine-readable pipeline: one `batch` run performs cold + warm-started
//! inference (exercising the verdict cache end to end) and analyzes the
//! whole generated-app suite under the inferred, handwritten, and
//! ground-truth specification variants, emitting a JSON report
//! (`atlas-batch/1`) with per-app timings, cache hit rates, and
//! precision/recall.  With `ATLAS_STORE=dir` (or `--store`), the pipeline
//! additionally persists its verdict cache and inferred specification set
//! through the `atlas-store` registry and warm-starts from them on the
//! next invocation — *across processes*; `--expect-warm` turns the
//! invariants (nonzero reload hit rate, zero re-executions, byte-identical
//! spec export) into an exit code for CI.
//!
//! The [`fleet`] module scales the pipeline from one library to a
//! *population*: registered `atlas-javalib` variants plus deterministic
//! synthetic libraries run concurrently under an outer work-stealing
//! scheduler (two-level parallelism under one `ATLAS_THREADS` budget),
//! each warm-starting from and persisting to its own fingerprint-sharded
//! store directory, scored against its ground truth, and reported as one
//! `atlas-fleet/1` document (the `fleet` binary).
//!
//! The [`incr`] module measures the incremental-inference pipeline: seed
//! a closure-sharded store cold, apply one deterministic library edit
//! (`atlas-apps`' mutation generator), re-analyze via
//! `Engine::incremental_session`, and emit an `atlas-incr/1` report with
//! the dirty-cluster count, re-execution counts, and end-to-end speedup
//! versus the cold baseline (the `incr` binary; `--expect-incremental`
//! gates the contract in CI).
//!
//! The [`serve`] module benchmarks the *resident* deployment mode: spawn
//! an in-process `atlas-serve` daemon over a closure-sharded store,
//! replay a long mutation-generator edit stream through its wire-level
//! request queue, measure throughput and p50/p99 edit latency, and
//! byte-compare the daemon's final specification artifact against a cold
//! batch run over the equivalently edited program — one `atlas-serve/1`
//! report (the `serve_bench` binary; `--expect-throughput` gates
//! equivalence plus a minimum edit rate in CI).  With `--sessions N` the
//! leg switches to the `atlas-serve/2` multi-session variant: `N` named
//! sessions on one daemon, replayed concurrently, each byte-compared
//! against its own cold baseline.
//!
//! The [`oracle`] module measures the oracle's bytecode VM against the
//! tree-walking reference interpreter on a deterministic witness
//! workload, cross-checks that verdicts and step counts are identical
//! under both, and emits an `atlas-oracle/1` report (the `oracle` binary;
//! `--expect-speedup` gates the performance contract in CI).
//!
//! The environment knobs (`ATLAS_SAMPLES`, `ATLAS_APPS`, `ATLAS_THREADS`,
//! `ATLAS_STORE`, `ATLAS_FLEET_*`, `ATLAS_INCR_STORE`) are parsed in one
//! place: [`config`].
//!
//! Every pipeline leg carries an `atlas-obs` recorder: reports embed an
//! `atlas-metrics/1` counter/histogram snapshot under `"metrics"`, and
//! with `ATLAS_TRACE=1` (or the binaries' `--trace` flag) the run also
//! buffers span events which `ATLAS_TRACE_OUT` / `--trace-out PATH`
//! renders as Chrome trace-event JSON (`chrome://tracing`, Perfetto).
//! Recording never changes results — the determinism tests in
//! `tests/trace_determinism.rs` byte-compare traced and untraced
//! artifacts.

pub mod batch;
pub mod config;
pub mod context;
pub mod experiments;
pub mod fleet;
pub mod incr;
pub mod json;
pub mod oracle;
pub mod serve;
mod storeleg;

pub use batch::{run_batch, BatchConfig, BatchReport};
pub use config::export_trace;
pub use context::{EvalContext, SpecSet};
pub use fleet::{run_fleet, FleetConfig, FleetError, FleetReport};
pub use incr::{run_incremental, IncrConfig, IncrReport};
pub use json::Json;
pub use oracle::{run_oracle_bench, OracleBenchConfig, OracleBenchReport};
pub use serve::{run_serve_bench, run_serve_multi_bench, ServeBenchConfig, ServeBenchReport};

/// Emits a pipeline report from a report binary: the JSON goes to stdout
/// first (the primary output — a bad file path must never lose the run),
/// then a copy is written to the path named by the `out_env` environment
/// variable when it is set.  Exits `1` with a `{tag}: cannot write …`
/// message on a failed file write.
pub fn emit_report(tag: &str, rendered: &str, out_env: &str) {
    print!("{rendered}");
    if let Ok(path) = std::env::var(out_env) {
        match std::fs::write(&path, rendered) {
            Ok(()) => eprintln!("{tag}: report written to {path}"),
            Err(e) => {
                eprintln!("{tag}: cannot write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}
