//! The multi-library fleet pipeline: specification inference over a
//! *population* of libraries at once.
//!
//! Where [`crate::batch`] evaluates the one handwritten `javalib`, a fleet
//! run takes a list of registered libraries — `atlas-javalib` variants
//! (module subsets with their own clusters) and deterministic synthetic
//! libraries from `atlas-apps` — and runs the full inference pipeline over
//! every one of them concurrently:
//!
//! * an outer work-stealing scheduler hands libraries to workers, while
//!   each library's [`Engine`] keeps its per-cluster parallelism; the two
//!   levels share one [`ThreadBudget`], so `ATLAS_THREADS` bounds the
//!   *total* worker count (`outer × inner ≤ budget`), and one work queue,
//!   [`map_indexed`];
//! * every library runs the store-backed run over its own closure-sharded
//!   root `<root>/<member>/` (one `0x<closure>/{cache,specs}.json` shard
//!   per cluster, plus the member's `specs.json` export), under the
//!   configured store root or, without one, a fresh temporary root
//!   removed when the run ends: an empty root fills cluster by cluster, a
//!   seeded one splices every cluster without running the learner.  One
//!   root per member, because two members writing one shard would make
//!   its bytes depend on scheduling;
//! * each library's inferred fragments — read from the run's
//!   `atlas-spec/1` artifact — are scored against its ground-truth corpus
//!   (statement-level precision/recall via
//!   [`atlas_core::compare_fragments`]), restricted to the classes its
//!   clusters cover;
//! * the run emits a versioned `atlas-fleet/2` JSON report with
//!   per-library rows (in configuration order, independent of scheduling)
//!   and a parallel-efficiency summary.
//!
//! **Determinism.**  Per-library results are a pure function of the
//! library, the sampling budget, and the seed — never of the thread budget
//! or which worker ran them (inherited from the Engine's determinism
//! guarantee, and property-tested in `tests/fleet.rs`).  [`normalized`]
//! strips the timing-derived fields from a report; two same-seed runs
//! against the same store state render byte-identically after
//! normalization, which CI asserts.

use crate::config;
use crate::json::Json;
use crate::storeleg::{export_specs, with_root, Leg};
use atlas_core::{compare_fragments, map_indexed, AtlasConfig, Engine, StoreError, ThreadBudget};
use atlas_ir::{ClassId, LibraryInterface, MethodId, Stmt};
use atlas_obs::Recorder;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// An error raised by a fleet (or serve) run.
#[derive(Debug)]
pub enum FleetError {
    /// A configured library name is not in the registry.
    UnknownLibrary(String),
    /// The configuration selects no libraries at all.
    EmptyFleet,
    /// A store operation failed (carries the file and position).
    Store(StoreError),
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::UnknownLibrary(name) => write!(
                f,
                "unknown library '{name}' (registered: {})",
                registry_names().join(", ")
            ),
            FleetError::EmptyFleet => write!(f, "the fleet needs at least one library"),
            FleetError::Store(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for FleetError {}

impl From<StoreError> for FleetError {
    fn from(e: StoreError) -> FleetError {
        FleetError::Store(e)
    }
}

impl From<atlas_apps::RegistryError> for FleetError {
    fn from(e: atlas_apps::RegistryError) -> FleetError {
        match e {
            atlas_apps::RegistryError::UnknownLibrary(name) => FleetError::UnknownLibrary(name),
        }
    }
}

/// One library of the fleet, built and ready for inference.  The registry
/// itself now lives in `atlas_apps::registry` (shared with `atlas-serve`);
/// this is its library type under the historical fleet name.
pub type FleetLibrary = atlas_apps::RegistryLibrary;

pub use atlas_apps::registry_names;

/// Builds one registered library by name.
///
/// # Errors
/// Returns [`FleetError::UnknownLibrary`] for a name outside the registry.
pub fn build_library(name: &str, synth_seed: u64) -> Result<FleetLibrary, FleetError> {
    Ok(atlas_apps::build_library(name, synth_seed)?)
}

/// Configuration of a fleet run.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Registry names of the fleet members, in report order.  Duplicates
    /// are dropped (they would race on the same member root).
    pub libraries: Vec<String>,
    /// Phase-one sampling budget per class cluster.
    pub samples: usize,
    /// Global worker-thread budget (`0` = one per core), split between the
    /// outer scheduler and the per-library engines.
    pub threads: usize,
    /// Store root (`ATLAS_FLEET_STORE`): member `m` keeps its
    /// closure-sharded root at `<store_root>/m/`.  Without one, the
    /// members' roots live under a fresh temporary root, removed when the
    /// run ends.
    pub store_root: Option<PathBuf>,
    /// Base seed of the synthetic libraries (`ATLAS_FLEET_SEED`).
    pub synth_seed: u64,
    /// Record span events (`ATLAS_TRACE`); see `atlas-obs`.  Never
    /// changes results — only observes them.
    pub trace: bool,
}

/// The default fleet: two javalib subsets and two synthetic libraries —
/// four distinct library contents, enough to exercise the per-member
/// stores and the two-level scheduler without the full javalib's cost.
pub const DEFAULT_FLEET: &[&str] = &[
    "javalib-lang",
    "javalib-android",
    "synth-small",
    "synth-aliasing",
];

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            libraries: DEFAULT_FLEET.iter().map(|s| s.to_string()).collect(),
            samples: config::sample_budget(),
            threads: config::thread_budget(),
            store_root: None,
            synth_seed: 0x5EED,
            trace: false,
        }
    }
}

impl FleetConfig {
    /// Reads the configuration from the environment (`ATLAS_SAMPLES`,
    /// `ATLAS_THREADS`, `ATLAS_FLEET_STORE`, `ATLAS_FLEET_SEED`,
    /// `ATLAS_FLEET_LIBS`).
    pub fn from_env() -> FleetConfig {
        let libraries = config::fleet_libraries()
            .unwrap_or_else(|| DEFAULT_FLEET.iter().map(|s| s.to_string()).collect());
        FleetConfig {
            libraries,
            store_root: config::fleet_store_root(),
            synth_seed: config::fleet_seed(),
            trace: config::trace_enabled(),
            ..FleetConfig::default()
        }
    }

    /// A small configuration suitable for tests.
    pub fn small() -> FleetConfig {
        FleetConfig {
            libraries: vec![
                "javalib-lang".to_string(),
                "synth-small".to_string(),
                "synth-aliasing".to_string(),
            ],
            samples: 250,
            threads: 2,
            store_root: None,
            synth_seed: 0x5EED,
            trace: false,
        }
    }
}

/// The outcome of a fleet run: the JSON document plus a human summary.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// The machine-readable report (schema `atlas-fleet/2`).
    pub json: Json,
    /// A short human-readable summary (one line per library).
    pub summary: String,
    /// The run's observability session (span events when
    /// [`FleetConfig::trace`] was set) — feed it to
    /// [`atlas_obs::write_chrome_trace`] for the `--trace-out` sink.
    pub recorder: Recorder,
}

/// What one worker produced for one library.
struct LibraryRun {
    name: String,
    leg: Leg,
    interface_methods: usize,
    num_classes: usize,
    /// Whether the spec export matched the member's previous one.
    specs_identical: Json,
    // Scoring.
    precision: f64,
    recall: f64,
    exact: usize,
    reference_methods: usize,
    inferred_methods: usize,
}

use atlas_store::hex64_string as hex;

/// Runs the full inference pipeline for one library: the store-backed run
/// over its member root `<root>/<name>/`, the byte-compared spec export,
/// and scoring against ground truth.
fn run_library(
    lib: &FleetLibrary,
    fleet: &FleetConfig,
    root: &Path,
    inner_threads: usize,
    recorder: &Recorder,
    index: usize,
) -> Result<LibraryRun, FleetError> {
    let interface = LibraryInterface::from_program(&lib.program);
    let atlas_config = AtlasConfig {
        samples_per_cluster: fleet.samples,
        clusters: lib.clusters.clone(),
        num_threads: inner_threads,
        ..AtlasConfig::default()
    };
    // Library `i` records on lane stripe `i * 4096`: stripes are keyed by
    // the *configuration order*, not the worker that happened to run the
    // library, so the exported event stream is schedule-independent.
    let engine = Engine::new(&lib.program, &interface, atlas_config)
        .with_recorder(recorder.with_lane_base(index as u64 * 4096));
    let member = root.join(&lib.name);
    let leg = Leg::store_backed(&engine, &member)?;
    let specs_identical = export_specs(&lib.program, &leg.artifact, &member)?;

    // Score the inferred fragments against the ground truth of the classes
    // the clusters actually cover (the corpus may describe more).
    let cluster_classes: BTreeSet<ClassId> = lib.clusters.iter().flatten().copied().collect();
    let reference: BTreeMap<MethodId, Vec<Stmt>> = lib
        .ground_truth
        .iter()
        .filter(|(m, _)| cluster_classes.contains(&lib.program.method(**m).class()))
        .map(|(m, body)| (*m, body.clone()))
        .collect();
    let fragments = leg.artifact.fragments(&lib.program);
    let comparison = compare_fragments(&lib.program, &fragments, &reference);

    Ok(LibraryRun {
        name: lib.name.clone(),
        interface_methods: interface.num_methods(),
        num_classes: lib.program.num_classes(),
        specs_identical,
        precision: comparison.precision(),
        recall: comparison.recall(),
        exact: comparison.exact_matches(),
        reference_methods: comparison.reference_methods(),
        inferred_methods: comparison.inferred_methods(),
        leg,
    })
}

/// Runs the full fleet pipeline.  See the [module docs](self).
///
/// # Errors
/// Returns [`FleetError`] on an unknown library name, an empty selection,
/// or a store failure (positioned, human-readable — the `fleet` binary
/// exits nonzero instead of panicking).
pub fn run_fleet(fleet: &FleetConfig) -> Result<FleetReport, FleetError> {
    let recorder = if fleet.trace {
        Recorder::tracing()
    } else {
        Recorder::metrics()
    };
    let total_wall = Instant::now();
    // Deduplicate while preserving order: duplicate members would race on
    // the same store shard and say nothing new.
    let mut names: Vec<&str> = Vec::new();
    for name in &fleet.libraries {
        if !names.contains(&name.as_str()) {
            names.push(name);
        }
    }
    if names.is_empty() {
        return Err(FleetError::EmptyFleet);
    }
    let libraries: Vec<FleetLibrary> = names
        .iter()
        .map(|name| build_library(name, fleet.synth_seed))
        .collect::<Result<_, _>>()?;

    let budget = ThreadBudget::resolve(fleet.threads);
    let split = budget.split(libraries.len());

    // The outer scheduler: the work queue hands library indices to
    // workers and returns the runs in configuration order, regardless of
    // scheduling.
    let runs: Vec<LibraryRun> = with_root(fleet.store_root.as_deref(), |root| {
        map_indexed(&libraries, split.outer, |i, lib| {
            run_library(lib, fleet, root, split.inner, &recorder, i)
        })
        .into_iter()
        .collect()
    })?;
    let wall_time = total_wall.elapsed();

    // Assemble the report.
    let mut rows = Vec::new();
    let mut summary = String::new();
    let mut total_queries = 0usize;
    let mut total_executions = 0usize;
    let mut total_positives = 0usize;
    let mut total_specs = 0usize;
    let mut cpu_time = Duration::ZERO;
    for run in &runs {
        let leg = &run.leg;
        let stats = leg.cache_stats;
        let num_specs = leg.artifact.num_specs();
        total_queries += leg.oracle_queries;
        total_executions += leg.oracle_executions;
        total_positives += leg.positive_examples;
        total_specs += num_specs;
        cpu_time += leg.phase1_time + leg.phase2_time;
        let member_root = fleet.store_root.as_ref().map(|root| root.join(&run.name));
        rows.push(
            Json::obj()
                .set("name", run.name.as_str())
                .set("library_fingerprint", hex(leg.artifact.fingerprint))
                .set("classes", run.num_classes)
                .set("interface_methods", run.interface_methods)
                .set("clusters", leg.artifact.clusters.len())
                .set("positive_examples", leg.positive_examples)
                .set("oracle_queries", leg.oracle_queries)
                .set("executions", leg.oracle_executions)
                .set(
                    "cache",
                    Json::obj()
                        .set("lookups", stats.lookups)
                        .set("hits", stats.hits)
                        .set("misses", stats.misses)
                        .set("hit_rate", stats.hit_rate()),
                )
                .set(
                    "store",
                    leg.splice
                        .json(member_root.as_deref(), run.specs_identical.clone()),
                )
                .set(
                    "specs",
                    Json::obj()
                        .set("extracted", num_specs)
                        .set("inferred_methods", run.inferred_methods)
                        .set("reference_methods", run.reference_methods)
                        .set("exact", run.exact)
                        .set("precision", run.precision)
                        .set("recall", run.recall),
                )
                .set(
                    "timings",
                    Json::obj()
                        .set("wall_ms", leg.wall_time.as_secs_f64() * 1e3)
                        .set("phase1_ms", leg.phase1_time.as_secs_f64() * 1e3)
                        .set("phase2_ms", leg.phase2_time.as_secs_f64() * 1e3),
                ),
        );
        let _ = writeln!(
            summary,
            "{:>18}: {} clusters, {} positives, {num_specs} specs, precision {:.2}, recall {:.2}, \
             {} executions{} in {:.2?}",
            run.name,
            leg.artifact.clusters.len(),
            leg.positive_examples,
            run.precision,
            run.recall,
            leg.oracle_executions,
            if leg.splice.spliced > 0 {
                format!(" (warm, {} cluster(s) spliced)", leg.splice.spliced)
            } else {
                String::new()
            },
            leg.wall_time,
        );
    }

    // Efficiency is measured against the workers actually granted
    // (`outer × inner`), which the split maximizes within the budget.
    let granted = (split.outer * split.inner) as f64;
    let efficiency = if wall_time.is_zero() {
        1.0
    } else {
        cpu_time.as_secs_f64() / wall_time.as_secs_f64() / granted
    };
    let json = Json::obj()
        .set("schema", "atlas-fleet/2")
        .set(
            "config",
            Json::obj()
                .set("samples_per_cluster", fleet.samples)
                .set("thread_budget", budget.total())
                .set("outer_workers", split.outer)
                .set("threads_per_library", split.inner)
                .set("synth_seed", fleet.synth_seed as i64)
                .set(
                    "store_root",
                    match &fleet.store_root {
                        Some(root) => Json::str(root.display().to_string()),
                        None => Json::Null,
                    },
                )
                .set(
                    "libraries",
                    names.iter().map(|n| Json::str(*n)).collect::<Vec<Json>>(),
                ),
        )
        .set("libraries", Json::Arr(rows))
        .set(
            "totals",
            Json::obj()
                .set("libraries", runs.len())
                .set("oracle_queries", total_queries)
                .set("executions", total_executions)
                .set("positive_examples", total_positives)
                .set("specs", total_specs),
        )
        .set(
            "parallelism",
            Json::obj()
                .set("thread_budget", budget.total())
                .set("outer_workers", split.outer)
                .set("threads_per_library", split.inner)
                .set("wall_ms", wall_time.as_secs_f64() * 1e3)
                .set("cpu_ms", cpu_time.as_secs_f64() * 1e3)
                .set("efficiency", efficiency),
        )
        .set("metrics", atlas_obs::metrics_snapshot(&recorder));
    let _ = writeln!(
        summary,
        "fleet: {} libraries, {} workers x {} threads (budget {}), {:.2?} wall / {:.2?} cpu \
         ({:.0}% efficiency)",
        runs.len(),
        split.outer,
        split.inner,
        budget.total(),
        wall_time,
        cpu_time,
        100.0 * efficiency,
    );

    Ok(FleetReport {
        json,
        summary,
        recorder,
    })
}

/// Strips the timing-derived fields from a report: object keys ending in
/// `_ms`, `speedup` and `efficiency`, plus the whole `metrics` section
/// (its histograms are wall-clock nanoseconds).  Everything that remains
/// is a pure function of the configuration and the store state, so two
/// same-seed fleet runs render byte-identically after normalization — the
/// determinism invariant CI asserts.
pub fn normalized(json: &Json) -> Json {
    fn is_timing_key(key: &str) -> bool {
        key.ends_with("_ms") || key == "speedup" || key == "efficiency" || key == "metrics"
    }
    match json {
        Json::Obj(pairs) => Json::Obj(
            pairs
                .iter()
                .filter(|(k, _)| !is_timing_key(k))
                .map(|(k, v)| (k.clone(), normalized(v)))
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.iter().map(normalized).collect()),
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_knows_all_names_and_rejects_strangers() {
        let names = registry_names();
        assert!(names.len() >= 7, "{names:?}");
        for name in &names {
            let lib = build_library(name, 7).expect(name);
            assert!(!lib.clusters.is_empty(), "{name} has no clusters");
            assert!(!lib.ground_truth.is_empty(), "{name} has no ground truth");
        }
        assert!(matches!(
            build_library("no-such-library", 7),
            Err(FleetError::UnknownLibrary(_))
        ));
        let message = FleetError::UnknownLibrary("x".to_string()).to_string();
        assert!(message.contains("synth-small"), "{message}");
        assert!(
            run_fleet(&FleetConfig {
                libraries: vec![],
                ..FleetConfig::small()
            })
            .is_err(),
            "empty fleets are a configuration error"
        );
    }

    #[test]
    fn normalization_strips_exactly_the_timing_fields() {
        let doc = Json::obj()
            .set("wall_ms", 1.5)
            .set("efficiency", 0.7)
            .set("speedup", 2.0)
            .set("metrics", Json::obj().set("counters", Json::obj()))
            .set(
                "nested",
                Json::Arr(vec![Json::obj().set("phase1_ms", 3.0).set("keep", 1usize)]),
            )
            .set("keep", "x");
        let norm = normalized(&doc);
        assert_eq!(
            norm,
            Json::obj()
                .set("nested", Json::Arr(vec![Json::obj().set("keep", 1usize)]))
                .set("keep", "x")
        );
    }
}
