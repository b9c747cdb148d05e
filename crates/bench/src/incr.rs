//! The incremental-inference leg: measure — not assert — that editing one
//! library method re-analyzes only the clusters whose dependency closure
//! contains it.
//!
//! One [`run_incremental`] call:
//!
//! 1. builds a registered library (a `javalib` variant or a synthetic
//!    member, exactly like the fleet registry) and runs full inference
//!    **cold** over the *old* content, persisting one closure shard per
//!    cluster into the store root (`Session::persist_shards`);
//! 2. applies one deterministic mutation (`atlas-apps`' generator:
//!    rename-local / body-edit / add-method / signature-change knobs);
//! 3. opens `Engine::incremental_session` on the *new* content against the
//!    old run's provenance and runs it against the store: dirty clusters
//!    re-run, clean clusters splice;
//! 4. runs full inference cold over the new content as the baseline, and
//!    byte-compares its spec artifact against the incremental one — the
//!    **splice invariant**;
//! 5. emits an `atlas-incr/1` JSON report (dirty-cluster count,
//!    re-execution counts, spliced verdicts, end-to-end speedup vs. cold)
//!    plus a human summary.
//!
//! The `incr` binary adds `--expect-incremental`, which turns the
//! incremental contract into an exit code for CI: the mutation must dirty
//! *fewer than all* clusters, clean clusters must re-execute nothing (and
//! splice byte-identically), and the incremental run must re-execute fewer
//! unit tests than the cold baseline.

use crate::config::{env_path, sample_budget, thread_budget, trace_enabled};
use crate::fleet::{build_library, FleetError};
use crate::json::Json;
use crate::storeleg::{SPEC_LIMIT, SPEC_MAX_LEN};
use atlas_apps::{mutate_library, MutationConfig};
use atlas_core::{AtlasConfig, ClusterDisposition, Engine};
use atlas_ir::{LibraryInterface, MutationKind};
use atlas_obs::Recorder;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// Configuration of an incremental run.
#[derive(Debug, Clone)]
pub struct IncrConfig {
    /// Registry name of the library under edit (fleet registry: `javalib`
    /// variants plus the synthetic members).
    pub library: String,
    /// Phase-one sampling budget per class cluster.
    pub samples: usize,
    /// Engine worker threads (`0` = one per core).
    pub threads: usize,
    /// Closure-sharded store root (`ATLAS_INCR_STORE`); the run seeds it
    /// cold and re-analyzes against it.
    pub store: PathBuf,
    /// The kind of library edit to model.
    pub mutation: MutationKind,
    /// Explicit mutation target (`Class.method`, or a class name for
    /// add-method); `None` picks deterministically by seed.
    pub target: Option<String>,
    /// Mutation seed (target selection + generated names).
    pub seed: u64,
    /// Record span events (`ATLAS_TRACE`); see `atlas-obs`.  Never
    /// changes results — only observes them.
    pub trace: bool,
}

impl IncrConfig {
    /// Reads the configuration from the environment: the usual
    /// `ATLAS_SAMPLES`/`ATLAS_THREADS` budgets plus `ATLAS_INCR_STORE` for
    /// the store root (default `target/atlas-incr`).
    pub fn from_env() -> IncrConfig {
        IncrConfig {
            library: "javalib".to_string(),
            samples: sample_budget(),
            threads: thread_budget(),
            store: env_path("ATLAS_INCR_STORE")
                .unwrap_or_else(|| PathBuf::from("target/atlas-incr")),
            mutation: MutationKind::BodyEdit,
            target: None,
            seed: 0x17C,
            trace: trace_enabled(),
        }
    }

    /// A small configuration suitable for tests.
    pub fn small(store: PathBuf) -> IncrConfig {
        IncrConfig {
            library: "javalib-lang".to_string(),
            samples: 250,
            threads: 1,
            store,
            mutation: MutationKind::BodyEdit,
            target: None,
            seed: 7,
            trace: false,
        }
    }
}

/// The outcome of an incremental run: the JSON document plus a human
/// summary.
#[derive(Debug, Clone)]
pub struct IncrReport {
    /// The machine-readable report (schema `atlas-incr/1`).
    pub json: Json,
    /// A short human-readable summary.
    pub summary: String,
    /// The run's observability session (span events when
    /// [`IncrConfig::trace`] was set) — feed it to
    /// [`atlas_obs::write_chrome_trace`] for the `--trace-out` sink.
    pub recorder: Recorder,
}

/// Runs the full incremental pipeline.  See the [module docs](self).
///
/// # Errors
/// Returns [`FleetError`] on an unknown library name, an ineligible
/// mutation target, or a store failure.
pub fn run_incremental(config: &IncrConfig) -> Result<IncrReport, FleetError> {
    // One observability session spans all three legs, each on its own
    // 4096-lane stripe (cold-old / incremental / cold-new) so their
    // cluster tracks stay separate in the exported trace.
    let recorder = if config.trace {
        Recorder::tracing()
    } else {
        Recorder::metrics()
    };
    let extraction = (SPEC_MAX_LEN, SPEC_LIMIT);
    let lib = build_library(&config.library, 0x5EED)?;
    let old_interface = LibraryInterface::from_program(&lib.program);
    let atlas_config = AtlasConfig {
        samples_per_cluster: config.samples,
        clusters: lib.clusters.clone(),
        num_threads: config.threads,
        ..AtlasConfig::default()
    };

    // 1. Cold full run over the old content, persisted shard-per-closure.
    let t = Instant::now();
    let old_engine = Engine::new(&lib.program, &old_interface, atlas_config.clone())
        .with_recorder(recorder.clone());
    let mut session = old_engine.session();
    let old_outcome = session.run();
    let cold_old = t.elapsed();
    let persisted = session.persist_shards(&old_outcome, &config.store, extraction)?;
    let old_provenance = old_engine.run_provenance();

    // 2. One deterministic library edit.
    let mutated = mutate_library(
        &lib.program,
        &MutationConfig {
            kind: config.mutation,
            seed: config.seed,
            target: config.target.clone(),
        },
    )?;
    let new_program = mutated.program;
    let new_interface = LibraryInterface::from_program(&new_program);

    // 3. Incremental re-analysis against the seeded store.
    let t = Instant::now();
    let new_engine = Engine::new(&new_program, &new_interface, atlas_config.clone())
        .with_recorder(recorder.with_lane_base(4096));
    let mut incr_session = new_engine.incremental_session(&old_provenance);
    let incremental = incr_session.run_with_store(&config.store, extraction)?;
    let incr_time = t.elapsed();

    // 4. Cold baseline over the new content + the splice invariant.
    let t = Instant::now();
    let cold_outcome = Engine::new(&new_program, &new_interface, atlas_config)
        .with_recorder(recorder.with_lane_base(8192))
        .run();
    let cold_new = t.elapsed();
    let cold_artifact = cold_outcome
        .spec_artifact(&new_program, &new_interface, extraction.0, extraction.1)
        .encode(&new_program)
        .map_err(|e| atlas_core::StoreError::schema(&config.store, e))?
        .render();
    let incr_artifact = incremental
        .spec_artifact(&new_program)
        .encode(&new_program)
        .map_err(|e| atlas_core::StoreError::schema(&config.store, e))?
        .render();
    let splice_identical = cold_artifact == incr_artifact;
    let speedup = if incr_time.as_secs_f64() > 0.0 {
        cold_new.as_secs_f64() / incr_time.as_secs_f64()
    } else {
        f64::INFINITY
    };

    // 5. Assemble the report.
    let total_clusters = incremental.clusters.len();
    let cluster_rows: Vec<Json> = incremental
        .clusters
        .iter()
        .map(|cluster| {
            let (status, classes) = match &cluster.disposition {
                ClusterDisposition::Reran(outcome) => (
                    "reran",
                    outcome
                        .classes
                        .iter()
                        .map(|&id| new_program.class(id).name().to_string())
                        .collect::<Vec<_>>(),
                ),
                ClusterDisposition::Spliced { spec, .. } => ("spliced", spec.classes.clone()),
            };
            Json::obj()
                .set("index", cluster.index)
                .set(
                    "classes",
                    classes.iter().map(Json::str).collect::<Vec<Json>>(),
                )
                .set("closure", atlas_store::hex64_string(cluster.closure))
                .set("status", status)
        })
        .collect();
    let json = Json::obj()
        .set("schema", "atlas-incr/1")
        .set(
            "config",
            Json::obj()
                .set("library", config.library.as_str())
                .set("samples_per_cluster", config.samples)
                .set("threads", config.threads)
                .set("store", config.store.display().to_string())
                .set("mutation_kind", config.mutation.to_string())
                .set("seed", config.seed as i64),
        )
        .set("mutation", mutated.outcome.description.as_str())
        .set(
            "clusters",
            Json::obj()
                .set("total", total_clusters)
                .set("dirty", incremental.dirty_clusters)
                .set("clean", incremental.clean_clusters)
                .set("forced_dirty", incremental.forced_dirty)
                .set("rows", Json::Arr(cluster_rows)),
        )
        .set(
            "executions",
            Json::obj()
                .set("cold_old", old_outcome.oracle_executions)
                .set("cold_new", cold_outcome.oracle_executions)
                .set("incremental", incremental.oracle_executions)
                .set("spliced_verdicts", incremental.spliced_verdicts),
        )
        .set("store_shards_seeded", persisted.shards)
        .set("splice_identical", splice_identical)
        .set(
            "timings",
            Json::obj()
                .set("cold_old_ms", cold_old.as_secs_f64() * 1e3)
                .set("incremental_ms", incr_time.as_secs_f64() * 1e3)
                .set("cold_new_ms", cold_new.as_secs_f64() * 1e3)
                .set("speedup_vs_cold", speedup),
        )
        .set("metrics", atlas_obs::metrics_snapshot(&recorder));

    let mut summary = String::new();
    let _ = writeln!(summary, "mutation: {}", mutated.outcome.description);
    let _ = writeln!(
        summary,
        "clusters: {}/{} dirty ({} spliced clean, {} forced dirty)",
        incremental.dirty_clusters,
        total_clusters,
        incremental.clean_clusters,
        incremental.forced_dirty,
    );
    let _ = writeln!(
        summary,
        "executions: cold {} -> incremental {} ({} verdicts spliced from the store)",
        cold_outcome.oracle_executions, incremental.oracle_executions, incremental.spliced_verdicts,
    );
    let _ = writeln!(
        summary,
        "wall: cold {:.2?} -> incremental {:.2?} ({speedup:.1}x), splice identical={splice_identical}",
        cold_new, incr_time,
    );
    Ok(IncrReport {
        json,
        summary,
        recorder,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("atlas-incr-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn incremental_report_shows_partial_dirtying_and_splice_identity() {
        let store = scratch("report");
        let config = IncrConfig {
            target: Some("StringBuilder.append".to_string()),
            ..IncrConfig::small(store.clone())
        };
        let report = run_incremental(&config).expect("incremental run");
        let json = &report.json;
        assert_eq!(json.get("schema"), Some(&Json::str("atlas-incr/1")));
        assert_eq!(json.get("splice_identical"), Some(&Json::Bool(true)));

        let clusters = json.get("clusters").expect("clusters");
        let total = clusters.get("total").and_then(Json::as_int).unwrap();
        let dirty = clusters.get("dirty").and_then(Json::as_int).unwrap();
        let clean = clusters.get("clean").and_then(Json::as_int).unwrap();
        assert_eq!(clusters.get("forced_dirty"), Some(&Json::Int(0)));
        assert!(dirty >= 1, "the edited cluster must re-run");
        assert!(
            dirty < total,
            "a one-method edit must not dirty every cluster ({dirty}/{total})"
        );
        assert_eq!(dirty + clean, total);

        let executions = json.get("executions").expect("executions");
        let cold = executions.get("cold_new").and_then(Json::as_int).unwrap();
        let incr = executions
            .get("incremental")
            .and_then(Json::as_int)
            .unwrap();
        assert!(incr > 0, "the dirty cluster executes");
        assert!(
            incr < cold,
            "splicing must save executions: {incr} vs {cold}"
        );
        assert!(
            executions
                .get("spliced_verdicts")
                .and_then(Json::as_int)
                .unwrap()
                > 0
        );
        assert!(report.summary.contains("splice identical=true"));
        std::fs::remove_dir_all(&store).unwrap();
    }

    #[test]
    fn unknown_libraries_and_targets_error_cleanly() {
        let store = scratch("errors");
        let bad_lib = IncrConfig {
            library: "no-such-library".to_string(),
            ..IncrConfig::small(store.clone())
        };
        assert!(run_incremental(&bad_lib).is_err());
        let bad_target = IncrConfig {
            target: Some("No.such".to_string()),
            ..IncrConfig::small(store.clone())
        };
        assert!(run_incremental(&bad_target).is_err());
        let _ = std::fs::remove_dir_all(&store);
    }
}
