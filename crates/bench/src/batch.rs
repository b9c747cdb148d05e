//! The batch evaluation pipeline: one self-contained run that measures
//! everything future benchmark trajectories consume.
//!
//! One [`run_batch`] call:
//!
//! 1. runs full inference, then a **warm** second leg that must learn the
//!    identical artifact by splicing the first leg's shards —
//!    demonstrating warm starts end to end (identical results, reported
//!    executions, wall-clock speedup);
//! 2. generates the benchmark app suite (with the diversity knobs of
//!    `atlas-apps` opened up beyond the historical defaults);
//! 3. analyzes every app under all three specification variants —
//!    *inferred* (the fragments of the first leg's `atlas-spec/1`
//!    artifact), *handwritten*, *ground truth* — recording per-app
//!    timings, flow counts, non-trivial points-to edges, and
//!    precision/recall against the constructed leaks;
//! 4. emits a machine-readable JSON report ([`BatchReport::json`], schema
//!    `atlas-batch/2`) plus a short human summary.
//!
//! Both legs are the store-backed run over one closure-sharded root: the
//! persistent store (`ATLAS_STORE=dir` or [`BatchConfig::store`]) when
//! one is configured, a fresh temporary root (removed when the run ends)
//! otherwise.  An empty root fills cluster by cluster and the warm leg
//! splices every cluster back; a root an earlier process seeded splices
//! every cluster in both legs without running the learner — a warm start
//! *across processes*.  The first leg's artifact is exported to
//! `<root>/specs.json` and byte-compared against the previous process's
//! export; the report's `store` section records the first leg's splice
//! counts and the `specs_identical` verdict that CI's warm-start smoke
//! step asserts.
//!
//! The `batch` binary prints the JSON to stdout (and the summary to
//! stderr): `cargo run --release -p atlas-bench --bin batch > report.json`.

use crate::config::{app_count, env_parse, sample_budget, store_dir, thread_budget, trace_enabled};
use crate::context::{analyze_app, SpecSet};
use crate::json::Json;
use crate::storeleg::{export_specs, with_root, Leg};
use atlas_apps::{generate_suite, AppConfig};
use atlas_core::{AtlasConfig, Engine, StoreError};
use atlas_ir::LibraryInterface;
use atlas_javalib::{class_ids, library_program, CLASS_CLUSTERS};
use atlas_obs::Recorder;
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The three specification variants every app is analyzed under.
pub const VARIANTS: [(&str, SpecSet); 3] = [
    ("inferred", SpecSet::Inferred),
    ("handwritten", SpecSet::Handwritten),
    ("ground_truth", SpecSet::GroundTruth),
];

/// Configuration of a batch run.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Phase-one sampling budget per class cluster.
    pub samples: usize,
    /// Engine worker threads (`0` = one per core).
    pub threads: usize,
    /// Shape of the generated app suite.  The batch defaults open the
    /// diversity knobs wider than the historical suite: more patterns per
    /// app, more benign-payload sinks (precision bait), larger size spread.
    pub app_config: AppConfig,
    /// Persistent store root (`ATLAS_STORE`).  Both inference legs are the
    /// store-backed run over a closure-sharded root
    /// (`0x<closure>/{cache,specs}.json` per cluster, plus the first leg's
    /// `specs.json` export): this one when set, so shards an earlier
    /// process left splice without running the learner and the run's own
    /// shards outlive it; a fresh temporary root, removed when the run
    /// ends, otherwise.
    pub store: Option<PathBuf>,
    /// Record span events (`ATLAS_TRACE`).  Metrics counters are always
    /// collected; tracing additionally buffers the event stream a
    /// `--trace-out` / `ATLAS_TRACE_OUT` sink renders as Chrome trace
    /// JSON.  Never changes results — only observes them.
    pub trace: bool,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            samples: sample_budget(),
            threads: thread_budget(),
            app_config: AppConfig {
                count: app_count(),
                seed: 0xBA7C4,
                min_patterns: 2,
                max_patterns: 16,
                leak_rate: 0.55,
                benign_sink_rate: 0.25,
                size_factor: 2,
            },
            store: None,
            trace: false,
        }
    }
}

impl BatchConfig {
    /// Reads the configuration from the environment: `ATLAS_SAMPLES`,
    /// `ATLAS_APPS`, `ATLAS_THREADS` as everywhere in the harness,
    /// `ATLAS_STORE` for the persistent store directory, plus
    /// `ATLAS_BATCH_SEED`, `ATLAS_BATCH_MAX_PATTERNS`, and
    /// `ATLAS_BATCH_SIZE_FACTOR` for the suite shape.
    pub fn from_env() -> BatchConfig {
        let mut config = BatchConfig::default();
        if let Some(seed) = env_parse("ATLAS_BATCH_SEED") {
            config.app_config.seed = seed;
        }
        if let Some(max) = env_parse("ATLAS_BATCH_MAX_PATTERNS") {
            config.app_config.max_patterns = max;
        }
        if let Some(factor) = env_parse("ATLAS_BATCH_SIZE_FACTOR") {
            config.app_config.size_factor = factor;
        }
        config.store = store_dir();
        config.trace = trace_enabled();
        config
    }

    /// A small configuration suitable for tests.
    pub fn small() -> BatchConfig {
        BatchConfig {
            samples: 400,
            threads: 0,
            app_config: AppConfig {
                count: 3,
                ..BatchConfig::default().app_config
            },
            store: None,
            trace: false,
        }
    }
}

/// Precision/recall bookkeeping for one app under one variant.
#[derive(Debug, Clone, Copy, Default)]
struct Confusion {
    tp: usize,
    fp: usize,
    fn_: usize,
}

impl Confusion {
    fn of(found: &BTreeSet<(String, String)>, truth: &BTreeSet<(String, String)>) -> Confusion {
        let tp = found.intersection(truth).count();
        Confusion {
            tp,
            fp: found.len() - tp,
            fn_: truth.len() - tp,
        }
    }

    fn merge(&mut self, other: Confusion) {
        self.tp += other.tp;
        self.fp += other.fp;
        self.fn_ += other.fn_;
    }

    fn precision(&self) -> f64 {
        if self.tp + self.fp == 0 {
            1.0
        } else {
            self.tp as f64 / (self.tp + self.fp) as f64
        }
    }

    fn recall(&self) -> f64 {
        if self.tp + self.fn_ == 0 {
            1.0
        } else {
            self.tp as f64 / (self.tp + self.fn_) as f64
        }
    }
}

/// Per-variant running totals across the suite.
#[derive(Debug, Clone, Default)]
struct VariantTotals {
    flows: usize,
    edges: usize,
    analysis: Duration,
    confusion: Confusion,
}

/// The outcome of a batch run: the JSON document plus a human summary.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// The machine-readable report (schema `atlas-batch/2`).
    pub json: Json,
    /// A short human-readable summary (one line per headline number).
    pub summary: String,
    /// The run's observability session (span events when
    /// [`BatchConfig::trace`] was set) — feed it to
    /// [`atlas_obs::write_chrome_trace`] for the `--trace-out` sink.
    pub recorder: Recorder,
}

/// Runs the full batch pipeline.  See the [module docs](self).
///
/// # Errors
/// Returns the positioned `atlas-store` error when the store root is
/// unreadable/unwritable or holds a corrupt artifact — the `batch` binary
/// turns this into a nonzero exit with a human-readable message instead of
/// a panic.
pub fn run_batch(config: &BatchConfig) -> Result<BatchReport, StoreError> {
    // One observability session spans both inference legs: the cold leg
    // records on the base lane stripe, the warm leg 4096 lanes up, so
    // their cluster tracks never interleave in the exported trace.
    let recorder = if config.trace {
        Recorder::tracing()
    } else {
        Recorder::metrics()
    };
    let library = library_program();
    let interface = LibraryInterface::from_program(&library);
    let clusters: Vec<_> = CLASS_CLUSTERS
        .iter()
        .map(|names| class_ids(&library, names))
        .collect();
    let atlas_config = AtlasConfig {
        samples_per_cluster: config.samples,
        clusters,
        num_threads: config.threads,
        ..AtlasConfig::default()
    };

    let engine =
        Engine::new(&library, &interface, atlas_config.clone()).with_recorder(recorder.clone());
    let warm_engine = Engine::new(&library, &interface, atlas_config)
        .with_recorder(recorder.with_lane_base(4096));
    let (cold, specs_identical, warm) = with_root(config.store.as_deref(), |root| {
        // 1. The first inference leg: an empty root fills cluster by
        //    cluster, a seeded one splices every cluster — a warm start
        //    across processes.
        let cold = Leg::store_backed(&engine, root)?;
        // Export the inferred specification set.  When a previous process
        // left one behind, the export byte-compares against it before
        // overwriting.
        let specs_identical = export_specs(&library, &cold.artifact, root)?;
        // 2. The warm leg must learn the identical artifact with no
        //    executions: a second store-backed run over the same root,
        //    which splices every cluster.
        let warm = Leg::store_backed(&warm_engine, root)?;
        Ok::<_, StoreError>((cold, specs_identical, warm))
    })?;
    let (cold_time, warm_time) = (cold.wall_time, warm.wall_time);
    let identical = cold.artifact == warm.artifact;

    // Memoization already pays off within the cold run itself (sampling
    // re-draws candidates).
    let cold_memo_hit_rate = cold.cache_stats.hit_rate();

    // 3. The app suite, analyzed under all three variants; the inferred
    //    variant reads the fragments of the first leg's artifact.
    let apps = generate_suite(&config.app_config);
    let mut app_rows = Vec::new();
    let mut totals: Vec<VariantTotals> = vec![VariantTotals::default(); VARIANTS.len()];
    for app in &apps {
        let analyze = |spec_set| analyze_app(app, spec_set, |p| cold.artifact.fragments(p));
        let trivial = analyze(SpecSet::Empty);
        let mut variants_json = Json::obj();
        for (i, (variant_name, spec_set)) in VARIANTS.iter().enumerate() {
            let t = Instant::now();
            let analysis = analyze(*spec_set);
            let elapsed = t.elapsed();
            let found: BTreeSet<(String, String)> = analysis
                .flows
                .flows
                .iter()
                .map(|f| {
                    (
                        app.program.qualified_name(f.source),
                        app.program.qualified_name(f.sink),
                    )
                })
                .collect();
            let confusion = Confusion::of(&found, &app.leaky_pairs);
            let edges = analysis.stats.nontrivial(&trivial.stats);
            totals[i].flows += analysis.flows.len();
            totals[i].edges += edges;
            totals[i].analysis += elapsed;
            totals[i].confusion.merge(confusion);
            variants_json = variants_json.set(
                variant_name,
                Json::obj()
                    .set("flows", analysis.flows.len())
                    .set("nontrivial_edges", edges)
                    .set("analysis_ms", elapsed.as_secs_f64() * 1e3)
                    .set("tp", confusion.tp)
                    .set("fp", confusion.fp)
                    .set("fn", confusion.fn_)
                    .set("precision", confusion.precision())
                    .set("recall", confusion.recall()),
            );
        }
        app_rows.push(
            Json::obj()
                .set("name", app.name.as_str())
                .set("client_loc", app.client_loc)
                .set("patterns", app.patterns.len())
                .set("known_leaks", app.leaky_pairs.len())
                .set("variants", variants_json),
        );
    }

    // 4. Assemble the report.
    let speedup = if warm_time.as_secs_f64() > 0.0 {
        cold_time.as_secs_f64() / warm_time.as_secs_f64()
    } else {
        f64::INFINITY
    };
    let mut totals_json = Json::obj();
    for ((name, _), total) in VARIANTS.iter().zip(&totals) {
        totals_json = totals_json.set(
            name,
            Json::obj()
                .set("flows", total.flows)
                .set("nontrivial_edges", total.edges)
                .set("analysis_ms", total.analysis.as_secs_f64() * 1e3)
                .set("tp", total.confusion.tp)
                .set("fp", total.confusion.fp)
                .set("fn", total.confusion.fn_)
                .set("precision", total.confusion.precision())
                .set("recall", total.confusion.recall()),
        );
    }
    let json = Json::obj()
        .set("schema", "atlas-batch/2")
        .set(
            "config",
            Json::obj()
                .set("samples_per_cluster", config.samples)
                .set("threads", config.threads)
                .set("apps", config.app_config.count)
                .set("app_seed", config.app_config.seed as i64)
                .set("min_patterns", config.app_config.min_patterns)
                .set("max_patterns", config.app_config.max_patterns)
                .set("leak_rate", config.app_config.leak_rate)
                .set("benign_sink_rate", config.app_config.benign_sink_rate)
                .set("size_factor", config.app_config.size_factor),
        )
        .set(
            "inference",
            Json::obj()
                .set("clusters", cold.artifact.clusters.len())
                .set("positive_examples", cold.positive_examples)
                .set("oracle_queries", cold.oracle_queries)
                .set("cold_executions", cold.oracle_executions)
                .set("warm_executions", warm.oracle_executions)
                .set("warm_spliced_clusters", warm.splice.spliced)
                .set("warm_spliced_verdicts", warm.splice.spliced_verdicts)
                .set("cold_ms", cold_time.as_secs_f64() * 1e3)
                .set("warm_ms", warm_time.as_secs_f64() * 1e3)
                .set("warm_speedup", speedup)
                .set("results_identical", identical)
                .set("cold_memo_hit_rate", cold_memo_hit_rate),
        )
        .set(
            "store",
            cold.splice
                .json(config.store.as_deref(), specs_identical.clone())
                .set(
                    "library_fingerprint",
                    atlas_store::hex64_string(cold.artifact.fingerprint),
                ),
        )
        .set("apps", Json::Arr(app_rows))
        .set("totals", totals_json)
        .set("metrics", atlas_obs::metrics_snapshot(&recorder));

    let mut summary = String::new();
    let _ = writeln!(
        summary,
        "inference: cold {:.2?} -> warm {:.2?} ({speedup:.1}x, {} -> {} executions, \
         {} of {} cluster(s) spliced warm, identical={identical})",
        cold_time,
        warm_time,
        cold.oracle_executions,
        warm.oracle_executions,
        warm.splice.spliced,
        cold.artifact.clusters.len(),
    );
    let root = match &config.store {
        Some(root) => root.display().to_string(),
        None => "a temporary root".to_string(),
    };
    let splice = &cold.splice;
    if splice.spliced > 0 {
        let _ = writeln!(
            summary,
            "store: warm-started from {root} ({} cluster(s) spliced, {} re-ran, {} verdicts, \
             specs identical={})",
            splice.spliced,
            splice.reran,
            splice.spliced_verdicts,
            match &specs_identical {
                Json::Bool(b) => b.to_string(),
                _ => "n/a".to_string(),
            },
        );
    } else {
        let _ = writeln!(
            summary,
            "store: cold run persisted {} cluster shard(s) to {root}",
            splice.reran,
        );
    }
    for ((name, _), total) in VARIANTS.iter().zip(&totals) {
        let _ = writeln!(
            summary,
            "{name:>12}: {} flows, {} edges, precision {:.2}, recall {:.2}, {:.2?} analysis",
            total.flows,
            total.edges,
            total.confusion.precision(),
            total.confusion.recall(),
            total.analysis,
        );
    }

    Ok(BatchReport {
        json,
        summary,
        recorder,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_pipeline_produces_a_consistent_report() {
        let report = run_batch(&BatchConfig::small()).expect("temporary store root");
        let json = &report.json;
        assert_eq!(json.get("schema"), Some(&Json::str("atlas-batch/2")));
        let int = |section: &Json, key: &str| section.get(key).and_then(Json::as_int);

        // The warm leg splices every cluster the cold leg persisted to the
        // temporary root: no executions, identical artifact.
        let inference = json.get("inference").expect("inference section");
        let clusters = int(inference, "clusters").expect("cluster count");
        assert!(clusters > 0);
        assert!(int(inference, "cold_executions").unwrap() > 0);
        assert_eq!(int(inference, "warm_spliced_clusters"), Some(clusters));
        assert!(int(inference, "warm_spliced_verdicts").unwrap() > 0);
        assert_eq!(int(inference, "warm_executions"), Some(0));
        assert_eq!(inference.get("results_identical"), Some(&Json::Bool(true)));

        let Some(Json::Arr(apps)) = json.get("apps") else {
            panic!("apps missing");
        };
        assert_eq!(apps.len(), 3);
        for app in apps {
            let variants = app.get("variants").expect("variants");
            for (name, _) in VARIANTS {
                let v = variants.get(name).expect("variant row");
                for metric in ["flows", "precision", "recall", "analysis_ms"] {
                    assert!(v.get(metric).is_some(), "{name}.{metric} missing");
                }
            }
        }

        // Ground truth finds every constructed leak (recall 1.0 by
        // construction; see context.rs for the precision caveat).
        let totals = json.get("totals").expect("totals");
        let truth = totals.get("ground_truth").expect("ground_truth totals");
        assert_eq!(truth.get("recall"), Some(&Json::Float(1.0)));
        assert_eq!(truth.get("fn"), Some(&Json::Int(0)));

        // The summary mentions the headline numbers and the JSON renders.
        assert!(report.summary.contains("identical=true"));
        assert!(report.json.render().contains("warm_speedup"));
        // Without a store configured, the store section describes the cold
        // fill of a temporary root and names no path.
        let store = json.get("store").expect("store section");
        assert_eq!(store.get("root"), Some(&Json::Null));
        assert_eq!(store.get("spec_file"), Some(&Json::Null));
        assert_eq!(int(store, "spliced_clusters"), Some(0));
        assert_eq!(int(store, "reran_clusters"), Some(clusters));
        assert_eq!(int(store, "forced_dirty"), Some(clusters));
        assert_eq!(store.get("specs_identical"), Some(&Json::Null));
    }

    #[test]
    fn store_failures_are_positioned_errors_not_panics() {
        let dir = std::env::temp_dir().join(format!("atlas-batch-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut config = BatchConfig::small();
        config.samples = 50;
        config.app_config.count = 1;
        config.store = Some(dir.clone());

        // Seed the root, then corrupt one cluster's shard: the next run
        // surfaces a positioned parse error carrying the offending file,
        // before any cluster is learned.
        run_batch(&config).expect("writable store");
        let shard = atlas_store::list_shards(&dir).expect("seeded root")[0].clone();
        std::fs::write(&shard.specs, "{ not json").unwrap();
        let err = run_batch(&config).unwrap_err();
        let msg = err.to_string();
        assert!(matches!(err, StoreError::Parse { .. }), "{msg}");
        assert!(
            msg.contains(&shard.specs.display().to_string()) && msg.contains("line 1"),
            "{msg}"
        );

        // An unwritable store location (here: the parent is a regular
        // file, which even root cannot mkdir into) surfaces as an I/O
        // error carrying the path.
        let blocker = dir.join("blocker");
        std::fs::write(&blocker, "x").unwrap();
        config.store = Some(blocker.join("store"));
        let err = run_batch(&config).unwrap_err();
        let msg = err.to_string();
        assert!(matches!(err, StoreError::Io { .. }), "{msg}");
        assert!(msg.contains("blocker"), "{msg}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn store_leg_reloads_across_runs_and_reports_it() {
        let dir = std::env::temp_dir().join(format!("atlas-batch-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut config = BatchConfig::small();
        config.samples = 250;
        config.app_config.count = 1;
        config.store = Some(dir.clone());
        let int = |section: &Json, key: &str| section.get(key).and_then(Json::as_int);

        // First run: the empty root fills cluster by cluster, and the
        // in-process warm leg — a second store-backed run over the same
        // root — splices all of it: no executions, identical artifact.
        let first = run_batch(&config).expect("writable store");
        let inference = first.json.get("inference").expect("inference");
        let clusters = int(inference, "clusters").expect("cluster count");
        assert!(clusters > 0);
        assert!(int(inference, "cold_executions").unwrap() > 0);
        assert_eq!(int(inference, "warm_executions"), Some(0));
        assert_eq!(inference.get("results_identical"), Some(&Json::Bool(true)));
        let store = first.json.get("store").expect("store section");
        assert_eq!(int(store, "spliced_clusters"), Some(0));
        assert_eq!(int(store, "reran_clusters"), Some(clusters));
        assert_eq!(int(store, "forced_dirty"), Some(clusters));
        assert_eq!(store.get("specs_identical"), Some(&Json::Null));
        assert_eq!(
            atlas_store::list_shards(&dir).unwrap().len() as i64,
            clusters,
            "one shard per cluster"
        );
        assert!(dir.join("specs.json").exists());
        assert!(first.summary.contains("store: cold run persisted"));

        // Second run (fresh engine, same process — the binary-spawning
        // cross-process variant lives in tests/cross_process.rs): splices
        // every cluster, executes nothing, reproduces the export
        // byte-for-byte and the same app results.
        let second = run_batch(&config).expect("readable store");
        let store = second.json.get("store").expect("store section");
        assert_eq!(int(store, "spliced_clusters"), Some(clusters));
        assert_eq!(int(store, "reran_clusters"), Some(0));
        assert_eq!(int(store, "forced_dirty"), Some(0));
        assert!(int(store, "spliced_verdicts").unwrap() > 0);
        assert_eq!(store.get("specs_identical"), Some(&Json::Bool(true)));
        let inference = second.json.get("inference").expect("inference");
        assert_eq!(
            int(inference, "cold_executions"),
            Some(0),
            "first leg re-executed nothing after the splice"
        );
        for section in ["apps", "totals"] {
            assert_eq!(
                crate::fleet::normalized(second.json.get(section).unwrap()),
                crate::fleet::normalized(first.json.get(section).unwrap()),
                "{section} differ between the cold and the spliced run"
            );
        }
        assert!(second.summary.contains("store: warm-started from"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
