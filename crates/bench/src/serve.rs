//! The resident-service leg: replay deterministic mutation-generator edit
//! streams against a warm `atlas-serve` daemon from concurrent client
//! sessions — then prove every session equivalent to a batch run.
//!
//! One [`run_serve_multi_bench`] call:
//!
//! 1. spawns an in-process [`atlas_serve::Service`] (the same daemon the
//!    `serve` binary runs behind stdio/socket frames) over a closure-sharded
//!    store root — startup seeds the store cold or splices it warm — and
//!    opens `sessions` named sessions on it;
//! 2. drives each session from its own client thread with its own stream
//!    of `edits` deterministic mutations, cycling the generator kinds
//!    (`body-edit` / `rename-local` / `add-method` / `signature-change`)
//!    with per-edit seeds and measuring client-side latency per request,
//!    so the worker pool runs edits from different sessions concurrently;
//!    ineligible edits come back as structured `bad-edit` errors and are
//!    skipped — identically — on both sides;
//! 3. replays each session's *accepted* edits locally to reconstruct its
//!    final library content, runs a cold batch `Engine` over it, and
//!    byte-compares *that session's* final `specs` artifact against the
//!    cold baseline — the service-equivalence invariant, which makes the
//!    report a cross-session isolation check as well as a concurrency
//!    benchmark;
//! 4. emits an `atlas-serve/2` JSON report: aggregate throughput (all
//!    accepted edits over the wall-clock of the parallel replay),
//!    p50/p99/max latency, cumulative re-execution counts, shard-cache
//!    counters, a per-session breakdown, and the equivalence verdict.
//!
//! The `serve_bench` binary adds `--expect-throughput N`, which turns the
//! contract into an exit code for CI: every final artifact must be
//! byte-identical to its cold baseline and the streams must sustain at
//! least `N` edits per second in aggregate.

use crate::config::{env_parse, sample_budget, thread_budget, trace_enabled};
use crate::fleet::FleetError;
use crate::json::Json;
use atlas_apps::{mutate_library, MutationConfig};
use atlas_core::{AtlasConfig, Engine, ThreadBudget};
use atlas_ir::hash::library_fingerprint;
use atlas_ir::{ClassId, LibraryInterface, MutationKind, Program};
use atlas_obs::{Histogram, Recorder};
use atlas_serve::{Envelope, Request, ServeConfig, ServeError, ServeHandle, Service, EXTRACTION};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Configuration of a service-replay run.
#[derive(Debug, Clone)]
pub struct ServeBenchConfig {
    /// The daemon configuration: library under service, budgets, store
    /// root, worker/session/shard/queue/flush knobs (`ATLAS_SERVE_*`).
    pub serve: ServeConfig,
    /// Length of each session's edit stream (`ATLAS_SERVE_EDITS`).
    pub edits: usize,
    /// Concurrent named sessions (`ATLAS_SERVE_SESSIONS`, default 1).
    pub sessions: usize,
    /// Base mutation seed; edit `i` of session `s` uses
    /// `seed + (s << 20) + i`.
    pub seed: u64,
}

impl ServeBenchConfig {
    /// Reads the configuration from the environment: the `ATLAS_SERVE_*`
    /// family (see `atlas_serve::config`) plus the shared
    /// `ATLAS_SAMPLES`/`ATLAS_THREADS` budgets, `ATLAS_SERVE_EDITS`
    /// for the per-session stream length (default 1000), and
    /// `ATLAS_SERVE_SESSIONS` for the number of sessions (default 1).
    pub fn from_env() -> ServeBenchConfig {
        let mut serve = ServeConfig::from_env();
        serve.samples = sample_budget();
        serve.threads = thread_budget();
        serve.trace = trace_enabled();
        ServeBenchConfig {
            serve,
            edits: env_parse("ATLAS_SERVE_EDITS").unwrap_or(1_000),
            sessions: env_parse("ATLAS_SERVE_SESSIONS").unwrap_or(1),
            seed: 0xA77A5,
        }
    }

    /// A small configuration suitable for tests.
    pub fn small(store: PathBuf) -> ServeBenchConfig {
        ServeBenchConfig {
            serve: ServeConfig::small(store),
            edits: 24,
            sessions: 1,
            seed: 7,
        }
    }
}

/// The outcome of a service-replay run: the JSON document plus a human
/// summary.
#[derive(Debug, Clone)]
pub struct ServeBenchReport {
    /// The machine-readable report (schema `atlas-serve/2`).
    pub json: Json,
    /// A short human-readable summary.
    pub summary: String,
    /// The daemon's observability session (metrics always, span events
    /// when the config traced) — feed it to
    /// [`atlas_obs::write_chrome_trace`] for the `--trace-out` sink.
    pub recorder: Recorder,
}

impl From<ServeError> for FleetError {
    fn from(e: ServeError) -> FleetError {
        match e {
            ServeError::Registry(e) => e.into(),
            ServeError::Store(e) => FleetError::Store(e),
        }
    }
}

/// The generator rotation of the edit stream.
const EDIT_KINDS: [MutationKind; 4] = [
    MutationKind::BodyEdit,
    MutationKind::RenameLocal,
    MutationKind::AddMethod,
    MutationKind::SignatureChange,
];

/// Nanoseconds to milliseconds, for report fields.
fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// What one client-side stream replay accumulated: the reconstructed
/// library content plus the request-level counters.
struct StreamReplay {
    program: Program,
    latency: Histogram,
    accepted: usize,
    rejected: usize,
    oracle_executions: i64,
    spliced_verdicts: i64,
}

/// Streams `edits` deterministic mutations into one named session,
/// mirroring every accepted edit on a local copy of the library.
/// Lock-step invariant: an accepted edit must be locally applicable, a
/// rejected one locally ineligible — the daemon's stream and the client's
/// never diverge.
fn replay_stream(
    handle: &ServeHandle,
    session: &str,
    mut program: Program,
    edits: usize,
    seed: u64,
) -> Result<StreamReplay, String> {
    let mut latency = Histogram::new();
    let mut accepted = 0usize;
    let mut rejected = 0usize;
    let mut oracle_executions = 0i64;
    let mut spliced_verdicts = 0i64;
    for i in 0..edits {
        let mutation = MutationConfig {
            kind: EDIT_KINDS[i % EDIT_KINDS.len()],
            seed: seed + i as u64,
            target: None,
        };
        let request = Envelope::with_id(
            i as i64,
            Request::Edit(atlas_serve::EditRequest {
                kind: mutation.kind,
                seed: mutation.seed,
                target: None,
            }),
        )
        .in_session(session);
        let t_edit = Instant::now();
        let response = handle.request(request);
        latency.record(u64::try_from(t_edit.elapsed().as_nanos()).unwrap_or(u64::MAX));
        let local = mutate_library(&program, &mutation);
        match (&response.outcome, local) {
            (Ok(result), Ok(mutated)) => {
                program = mutated.program;
                accepted += 1;
                let executions = result.get("executions").unwrap_or(&Json::Null);
                oracle_executions += executions.get("oracle").and_then(Json::as_int).unwrap_or(0);
                spliced_verdicts += executions
                    .get("spliced_verdicts")
                    .and_then(Json::as_int)
                    .unwrap_or(0);
            }
            (Err(error), Err(_)) => {
                rejected += 1;
                if error.code != atlas_serve::ErrorCode::BadEdit {
                    return Err(format!(
                        "edit {i} failed outside the protocol: {}",
                        error.message
                    ));
                }
            }
            (Ok(_), Err(e)) => {
                return Err(format!(
                    "edit {i} accepted by the daemon but locally ineligible: {e}"
                ));
            }
            (Err(error), Ok(_)) => {
                return Err(format!(
                    "edit {i} locally eligible but rejected by the daemon: {}",
                    error.message
                ));
            }
        }
    }
    Ok(StreamReplay {
        program,
        latency,
        accepted,
        rejected,
        oracle_executions,
        spliced_verdicts,
    })
}

/// The cold batch baseline over one replayed final content — the other
/// side of the service-equivalence invariant.
struct ColdBaseline {
    artifact: String,
    fingerprint: String,
    oracle_executions: usize,
    elapsed: Duration,
}

/// Runs a cold batch `Engine` over `program` under the serve budgets and
/// renders the specs artifact the daemon should have produced.
fn cold_baseline(
    program: &Program,
    clusters: &[Vec<ClassId>],
    serve: &ServeConfig,
) -> Result<ColdBaseline, FleetError> {
    let interface = LibraryInterface::from_program(program);
    let atlas_config = AtlasConfig {
        samples_per_cluster: serve.samples,
        clusters: clusters.to_vec(),
        num_threads: ThreadBudget::resolve(serve.threads).total(),
        ..AtlasConfig::default()
    };
    let t = Instant::now();
    let outcome = Engine::new(program, &interface, atlas_config).run();
    let elapsed = t.elapsed();
    let artifact = outcome
        .spec_artifact(program, &interface, EXTRACTION.0, EXTRACTION.1)
        .encode(program)
        .map_err(|e| atlas_core::StoreError::schema(&serve.store, e))?
        .render();
    Ok(ColdBaseline {
        artifact,
        fingerprint: atlas_store::hex64_string(library_fingerprint(program, &interface)),
        oracle_executions: outcome.oracle_executions,
        elapsed,
    })
}

/// Queries the final `specs` state of one session:
/// `(library_fingerprint, rendered artifact)`.
fn final_specs(handle: &ServeHandle, session: &str) -> Result<(String, String), String> {
    let specs = handle
        .request(Envelope::of(Request::Specs).in_session(session))
        .outcome
        .map_err(|e| format!("specs query failed: {}", e.message))?;
    let fingerprint = specs
        .get("library_fingerprint")
        .and_then(Json::as_str)
        .unwrap_or_default()
        .to_string();
    let artifact = specs.get("artifact").map(Json::render).unwrap_or_default();
    Ok((fingerprint, artifact))
}

/// The report's `config` block.
fn config_doc(config: &ServeBenchConfig) -> Json {
    Json::obj()
        .set("library", config.serve.library.as_str())
        .set("samples_per_cluster", config.serve.samples)
        .set("threads", config.serve.threads)
        .set("workers", config.serve.workers)
        .set("store", config.serve.store.display().to_string())
        .set("shard_budget", config.serve.shard_budget)
        .set("queue_capacity", config.serve.queue_capacity)
        .set("flush_every", config.serve.flush_every)
        .set("edits", config.edits)
        .set("sessions", config.sessions)
        .set("seed", config.seed as i64)
}

/// Runs the service-replay pipeline: `config.sessions` named sessions on
/// one daemon, each driven by its own client thread with its own
/// deterministic edit stream, each byte-compared against its own cold
/// batch baseline.  See the [module docs](self).
///
/// # Errors
/// Returns [`FleetError`] on an unknown library name or a store failure.
/// An unexpected daemon response (a failure mode the protocol should have
/// mapped to a structured error), a session that cannot be opened, or a
/// client thread that observes a lock-step divergence is reported as a
/// schema violation.
pub fn run_serve_multi_bench(config: &ServeBenchConfig) -> Result<ServeBenchReport, FleetError> {
    let schema_err = |message: String| {
        FleetError::Store(atlas_core::StoreError::schema(
            &config.serve.store,
            atlas_store::SchemaError(message),
        ))
    };
    let sessions = config.sessions.max(1);

    // 1. One daemon, `sessions` namespaces seeded from its base state.
    let t = Instant::now();
    let mut service = Service::spawn(config.serve.clone())?;
    let startup = t.elapsed();
    let handle = service.handle();
    let lib = atlas_apps::build_library(&config.serve.library, config.serve.synth_seed)
        .map_err(FleetError::from)?;
    let names: Vec<String> = (0..sessions).map(|s| format!("c{s}")).collect();
    for (s, name) in names.iter().enumerate() {
        handle
            .request(Envelope::with_id(s as i64, Request::Open).in_session(name))
            .outcome
            .map_err(|e| schema_err(format!("open {name} failed: {}", e.message)))?;
    }

    // 2. Parallel replay: one client thread per session, each stream
    // seeded `seed + (s << 20)` so the sessions genuinely diverge.  The
    // daemon's worker pool runs the sessions concurrently; within one
    // session the stream stays serialized, so the lock-step invariant
    // holds per thread.  Latencies go straight into the shared log-linear
    // histogram (ns resolution): constant memory, O(buckets) quantiles.
    let t = Instant::now();
    let replays: Vec<Result<StreamReplay, String>> = std::thread::scope(|scope| {
        let threads: Vec<_> = names
            .iter()
            .enumerate()
            .map(|(s, name)| {
                let handle = handle.clone();
                let program = lib.program.clone();
                let edits = config.edits;
                let seed = config.seed + ((s as u64) << 20);
                scope.spawn(move || replay_stream(&handle, name, program, edits, seed))
            })
            .collect();
        threads
            .into_iter()
            .map(|t| {
                t.join()
                    .unwrap_or_else(|_| Err("a client thread panicked".to_string()))
            })
            .collect()
    });
    let replay = t.elapsed();

    // 3. Per-session final state, then global counters and shutdown.
    let mut finals = Vec::with_capacity(sessions);
    for name in &names {
        finals.push(
            final_specs(&handle, name).map_err(|e| schema_err(format!("session {name}: {e}")))?,
        );
    }
    let stats = handle
        .request(Envelope::of(Request::Stats))
        .outcome
        .map_err(|e| schema_err(format!("stats query failed: {}", e.message)))?;
    let shutdown = handle.request(Envelope::of(Request::Shutdown));
    if shutdown.outcome.is_err() {
        return Err(schema_err("shutdown was rejected".to_string()));
    }
    let recorder = service.recorder().clone();
    service.join();

    // 4. Per-session cold baselines over each replayed final content.
    let mut latency = Histogram::new();
    let mut rows = Vec::with_capacity(sessions);
    let mut accepted = 0usize;
    let mut rejected = 0usize;
    let mut oracle_executions = 0i64;
    let mut spliced_verdicts = 0i64;
    let mut cold_executions = 0usize;
    let mut cold_elapsed = Duration::ZERO;
    let mut all_identical = true;
    let mut all_fingerprints = true;
    for ((name, replayed), (served_fingerprint, served_artifact)) in
        names.iter().zip(replays).zip(finals)
    {
        let replayed = replayed.map_err(|e| schema_err(format!("session {name}: {e}")))?;
        let cold = cold_baseline(&replayed.program, &lib.clusters, &config.serve)?;
        let identical = served_artifact == cold.artifact;
        let fingerprints_match = served_fingerprint == cold.fingerprint;
        all_identical &= identical;
        all_fingerprints &= fingerprints_match;
        latency.merge(&replayed.latency);
        accepted += replayed.accepted;
        rejected += replayed.rejected;
        oracle_executions += replayed.oracle_executions;
        spliced_verdicts += replayed.spliced_verdicts;
        cold_executions += cold.oracle_executions;
        cold_elapsed += cold.elapsed;
        rows.push(
            Json::obj()
                .set("session", name.as_str())
                .set("accepted", replayed.accepted)
                .set("rejected", replayed.rejected)
                .set(
                    "executions",
                    Json::obj()
                        .set("oracle", replayed.oracle_executions)
                        .set("spliced_verdicts", replayed.spliced_verdicts)
                        .set("cold_baseline", cold.oracle_executions),
                )
                .set("identical", identical)
                .set("fingerprints_match", fingerprints_match)
                .set("library_fingerprint", cold.fingerprint.as_str()),
        );
    }

    // 5. The aggregate report: one `atlas-serve/2` document with a
    // per-session breakdown next to the fleet-level counters.
    let total_edits = config.edits * sessions;
    let p50 = ns_to_ms(latency.percentile(50));
    let p99 = ns_to_ms(latency.percentile(99));
    let max = ns_to_ms(latency.max());
    let mean = latency.mean() / 1e6;
    let throughput = if replay.as_secs_f64() > 0.0 {
        total_edits as f64 / replay.as_secs_f64()
    } else {
        f64::INFINITY
    };
    let json = Json::obj()
        .set("schema", "atlas-serve/2")
        .set("config", config_doc(config))
        .set("sessions", Json::from(rows))
        .set(
            "edits",
            Json::obj()
                .set("requested", total_edits)
                .set("accepted", accepted)
                .set("rejected", rejected),
        )
        .set(
            "latency_ms",
            Json::obj()
                .set("p50", p50)
                .set("p99", p99)
                .set("max", max)
                .set("mean", mean),
        )
        .set("throughput_edits_per_sec", throughput)
        .set(
            "executions",
            Json::obj()
                .set("oracle", oracle_executions)
                .set("spliced_verdicts", spliced_verdicts)
                .set("cold_baseline", cold_executions),
        )
        .set("shards", stats.get("shards").cloned().unwrap_or(Json::Null))
        .set("budget", stats.get("budget").cloned().unwrap_or(Json::Null))
        .set(
            "metrics",
            stats.get("metrics").cloned().unwrap_or(Json::Null),
        )
        .set(
            "equivalence",
            Json::obj()
                .set("identical", all_identical)
                .set("fingerprints_match", all_fingerprints),
        )
        .set(
            "timings",
            Json::obj()
                .set("startup_ms", startup.as_secs_f64() * 1e3)
                .set("replay_ms", replay.as_secs_f64() * 1e3)
                .set("cold_ms", cold_elapsed.as_secs_f64() * 1e3),
        );

    let mut summary = String::new();
    let _ = writeln!(
        summary,
        "sessions: {sessions} concurrent, {accepted} accepted, {rejected} rejected of {total_edits}"
    );
    let _ = writeln!(
        summary,
        "latency: p50 {p50:.2}ms p99 {p99:.2}ms max {max:.2}ms ({throughput:.1} edits/s aggregate)"
    );
    let _ = writeln!(
        summary,
        "executions: {oracle_executions} oracle across all streams \
         ({spliced_verdicts} verdicts spliced), cold baselines {cold_executions}"
    );
    let _ = writeln!(
        summary,
        "equivalence: identical={all_identical} fingerprints_match={all_fingerprints}"
    );
    Ok(ServeBenchReport {
        json,
        summary,
        recorder,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("atlas-servebench-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn replay_report_is_equivalent_and_counts_add_up() {
        // The default run: one named session, whose row carries the whole
        // report's counts.
        let store = scratch("report");
        let config = ServeBenchConfig::small(store.clone());
        assert_eq!(config.sessions, 1);
        let report = run_serve_multi_bench(&config).expect("serve bench run");
        let json = &report.json;
        assert_eq!(json.get("schema"), Some(&Json::str("atlas-serve/2")));
        let equivalence = json.get("equivalence").expect("equivalence");
        assert_eq!(equivalence.get("identical"), Some(&Json::Bool(true)));
        assert_eq!(
            equivalence.get("fingerprints_match"),
            Some(&Json::Bool(true))
        );

        let edits = json.get("edits").expect("edits");
        let accepted = edits.get("accepted").and_then(Json::as_int).unwrap();
        let rejected = edits.get("rejected").and_then(Json::as_int).unwrap();
        assert_eq!(accepted + rejected, config.edits as i64);
        assert!(accepted > 0, "the stream must accept some edits");

        let executions = json.get("executions").expect("executions");
        let row = match json.get("sessions").expect("sessions") {
            Json::Arr(rows) if rows.len() == 1 => &rows[0],
            other => panic!("one session row expected, got {other:?}"),
        };
        assert_eq!(row.get("session"), Some(&Json::str("c0")));
        assert_eq!(row.get("accepted"), edits.get("accepted"));
        assert_eq!(row.get("rejected"), edits.get("rejected"));
        assert_eq!(row.get("executions"), Some(executions));
        assert_eq!(row.get("identical"), Some(&Json::Bool(true)));

        // The resident engine must splice: a 24-edit stream over two
        // clusters cannot re-execute as much as 24 cold runs.
        let oracle = executions.get("oracle").and_then(Json::as_int).unwrap();
        let cold = executions
            .get("cold_baseline")
            .and_then(Json::as_int)
            .unwrap();
        assert!(
            oracle < accepted * cold.max(1),
            "resident replay re-executed like cold batch ({oracle} vs {accepted}x{cold})"
        );
        assert!(
            executions
                .get("spliced_verdicts")
                .and_then(Json::as_int)
                .unwrap()
                > 0
        );
        assert!(report.summary.contains("1 concurrent"));
        assert!(report.summary.contains("identical=true"));
        // The resolved thread-budget split travels with the report.
        let budget = json.get("budget").expect("budget");
        assert!(budget.get("outer_workers").and_then(Json::as_int).unwrap() >= 1);
        assert!(budget.get("inner_threads").and_then(Json::as_int).unwrap() >= 1);
        std::fs::remove_dir_all(&store).unwrap();
    }

    #[test]
    fn multi_session_report_isolates_every_session() {
        let store = scratch("multi");
        let mut config = ServeBenchConfig::small(store.clone());
        config.sessions = 2;
        config.edits = 12;
        // Two workers so the two session streams genuinely interleave.
        config.serve.threads = 2;
        config.serve.workers = 2;
        let report = run_serve_multi_bench(&config).expect("multi serve bench run");
        let json = &report.json;
        assert_eq!(json.get("schema"), Some(&Json::str("atlas-serve/2")));
        let equivalence = json.get("equivalence").expect("equivalence");
        assert_eq!(equivalence.get("identical"), Some(&Json::Bool(true)));
        assert_eq!(
            equivalence.get("fingerprints_match"),
            Some(&Json::Bool(true))
        );
        let rows = match json.get("sessions").expect("sessions") {
            Json::Arr(rows) => rows,
            other => panic!("sessions must be an array, got {other:?}"),
        };
        assert_eq!(rows.len(), 2);
        let mut fingerprints = Vec::new();
        for row in rows {
            assert_eq!(row.get("identical"), Some(&Json::Bool(true)));
            let accepted = row.get("accepted").and_then(Json::as_int).unwrap();
            assert!(accepted > 0, "every session's stream must accept edits");
            // The resident engine must splice: a 12-edit stream over two
            // clusters cannot re-execute as much as 12 cold runs.
            let executions = row.get("executions").expect("executions");
            let oracle = executions.get("oracle").and_then(Json::as_int).unwrap();
            let cold = executions
                .get("cold_baseline")
                .and_then(Json::as_int)
                .unwrap();
            assert!(
                oracle < accepted * cold.max(1),
                "resident replay re-executed like cold batch ({oracle} vs {accepted}x{cold})"
            );
            assert!(
                executions
                    .get("spliced_verdicts")
                    .and_then(Json::as_int)
                    .unwrap()
                    > 0
            );
            fingerprints.push(row.get("library_fingerprint").cloned().unwrap());
        }
        // Different seeds per stream: the sessions must end on different
        // library contents — shared state would collapse them.
        assert_ne!(
            fingerprints[0], fingerprints[1],
            "both sessions converged to one fingerprint — cross-session leakage"
        );
        let edits = json.get("edits").expect("edits");
        let accepted = edits.get("accepted").and_then(Json::as_int).unwrap();
        let rejected = edits.get("rejected").and_then(Json::as_int).unwrap();
        assert_eq!(accepted + rejected, (config.edits * config.sessions) as i64);
        assert!(report.summary.contains("2 concurrent"));
        assert!(report.summary.contains("identical=true"));
        // The resolved thread-budget split travels with the report.
        let budget = json.get("budget").expect("budget");
        assert!(budget.get("outer_workers").and_then(Json::as_int).unwrap() >= 1);
        assert!(budget.get("inner_threads").and_then(Json::as_int).unwrap() >= 1);
        std::fs::remove_dir_all(&store).unwrap();
    }

    #[test]
    fn histogram_latency_math_matches_nearest_rank_within_bucket_error() {
        // 1..=100 ms recorded as ns: the log-linear buckets guarantee
        // ≤1/64 relative error around the nearest-rank answer, and
        // min/max/mean stay exact.
        let mut hist = Histogram::new();
        for ms in 1..=100u64 {
            hist.record(ms * 1_000_000);
        }
        let p50 = ns_to_ms(hist.percentile(50));
        let p99 = ns_to_ms(hist.percentile(99));
        assert!((p50 - 50.0).abs() / 50.0 <= 1.0 / 64.0, "p50 was {p50}");
        assert!((p99 - 99.0).abs() / 99.0 <= 1.0 / 64.0, "p99 was {p99}");
        assert_eq!(ns_to_ms(hist.max()), 100.0);
        assert_eq!(ns_to_ms(hist.min()), 1.0);
        assert!((hist.mean() / 1e6 - 50.5).abs() < 1.0);
        // Degenerate shapes keep the old conventions.
        let mut one = Histogram::new();
        one.record(7_000_000);
        assert_eq!(ns_to_ms(one.percentile(50)), 7.0);
        assert_eq!(Histogram::new().percentile(99), 0);
    }
}
