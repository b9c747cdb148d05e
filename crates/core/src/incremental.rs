//! Incremental inference: diff a library edit at the granularity of
//! cluster dependency closures, re-run only the dirty clusters, and splice
//! everything else straight from the persistent store.
//!
//! The flow (see `DESIGN.md`, "incremental invalidation"):
//!
//! 1. A store-backed run over the *old* library —
//!    `engine.run_with_store(&engine.run_provenance(), root, EXTRACTION)`
//!    ([`Engine::run_with_store`]) — fills an empty root with one shard
//!    per cluster closure: `<root>/0x<closure>/cache.json` +
//!    `specs.json`.  Over a root an earlier run seeded, the same call
//!    splices every cluster instead: this is the one store-backed run
//!    batch, fleet and the daemon's start-up all go through.
//! 2. The old run's identity is captured as a [`RunProvenance`] — the
//!    library fingerprint plus each cluster's closure fingerprint
//!    ([`Engine::run_provenance`]).
//! 3. After an edit, an engine over the *new* program diffs against the
//!    old provenance: clusters whose closure fingerprint survives the
//!    edit are **clean**, the rest are **dirty**.
//! 4. [`Engine::run_with_store`] (or [`Engine::run_with_shards`] over a
//!    namespace of a shared [`HotShards`]) re-runs the two-phase pipeline
//!    for dirty clusters only (each re-run's verdicts and specs replace
//!    its shard's), and splices every clean cluster's learned automaton,
//!    path specifications, and verdicts from its shard —
//!    byte-identically, because shard files are content-addressed by
//!    closure fingerprint and never rewritten by a splice.
//!
//! **Hashing.**  Every fingerprint above — closure fingerprints, the
//! library fingerprint, and the verdict keys of the re-run clusters —
//! comes from the engine's one [`ContentIndex`](atlas_ir::ContentIndex),
//! which pretty-prints each method once per library build.  The resident
//! service does not rebuild it per edit: the `atlas_ir::mutate` primitives
//! are append-only (one method edited in place or appended to its class,
//! no id shifted, no other method touched), so a session carries its index
//! across edits, re-hashes only the edited method
//! ([`ContentIndex::rehash`](atlas_ir::ContentIndex::rehash)), and hands
//! the result to the edit's engine ([`Engine::with_index`]).
//!
//! **Splice invariant.**  The engine is deterministic per cluster (seeds
//! are positional, workers share nothing), so a spliced result *is* what a
//! full re-run would have produced: `IncrementalOutcome::spec_artifact`
//! renders byte-identically to the spec artifact of a cold full run over
//! the new program.  This module's unit tests and the
//! `incremental_invalidation` integration test both assert exactly this.

use crate::budget::map_indexed;
use crate::engine::{resolve_threads, run_cluster_job, ClusterJob, Engine};
use crate::inference::{cluster_spec, ClusterOutcome};
use crate::shards::{HotShards, ROOT_NAMESPACE};
use atlas_learn::{CacheStats, OracleStats};
use atlas_obs::ArgValue;
use atlas_store::{CacheProvenance, SpecArtifact, SpecCluster, StoreError};
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The spec-extraction bounds `(max spec length, per-cluster spec limit)`
/// every store-backed run uses.  A shard records the bounds it was
/// persisted with and the splice demotes any shard whose bounds differ
/// (see [`Engine::run_with_shards`]), so batch, fleet and the
/// resident service all pass this one value.
pub const EXTRACTION: (usize, usize) = (8, 64);

/// The closure identity of one cluster of a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterProvenance {
    /// The cluster's dependency-closure fingerprint.
    pub closure: u64,
}

/// The content identity of a whole run: the library fingerprint plus every
/// cluster's closure fingerprint.  This is what a store-backed run diffs a
/// new program against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunProvenance {
    /// The whole-library content fingerprint.
    pub library: u64,
    /// Per-cluster closure identities, in configuration order.
    pub clusters: Vec<ClusterProvenance>,
}

impl RunProvenance {
    /// Whether any cluster of this provenance had the given closure
    /// fingerprint — the cleanliness test of the incremental diff.
    pub fn knows_closure(&self, closure: u64) -> bool {
        self.clusters.iter().any(|c| c.closure == closure)
    }
}

/// How the incremental diff disposed of one cluster.
#[derive(Debug, Clone)]
pub enum ClusterDisposition {
    /// The cluster's closure changed (or its shard was missing): the full
    /// two-phase pipeline ran again.
    Reran(ClusterOutcome),
    /// The cluster's closure survived the edit: automaton, specs, and
    /// verdicts were spliced from its store shard without executing
    /// anything.
    Spliced {
        /// The persisted cluster result, decoded against the new program.
        spec: SpecCluster,
        /// Verdicts the shard holds for this closure (reusable without
        /// re-execution).
        verdicts: usize,
    },
}

/// One cluster row of an [`IncrementalOutcome`], in configuration order.
#[derive(Debug, Clone)]
pub struct IncrementalCluster {
    /// Position of the cluster in the configuration.
    pub index: usize,
    /// The cluster's (new) closure fingerprint.
    pub closure: u64,
    /// What happened to it.
    pub disposition: ClusterDisposition,
}

/// The outcome of an incremental run.
#[derive(Debug, Clone)]
pub struct IncrementalOutcome {
    /// The new program's library fingerprint.
    pub library: u64,
    /// Spec-extraction bounds used for re-ran clusters (and, by the store
    /// protocol, for every spliced shard).
    pub extraction: (usize, usize),
    /// Per-cluster results in configuration order (empty clusters are
    /// skipped, exactly like a full run).
    pub clusters: Vec<IncrementalCluster>,
    /// Clusters that ran the full pipeline.
    pub dirty_clusters: usize,
    /// Clusters spliced from the store.
    pub clean_clusters: usize,
    /// Clean-by-closure clusters that had to re-run anyway because their
    /// shard was missing, empty, or persisted under different extraction
    /// bounds (`0` in a healthy store).
    pub forced_dirty: usize,
    /// Oracle queries of the dirty re-runs.
    pub oracle_queries: usize,
    /// Unit-test executions of the dirty re-runs (clean clusters execute
    /// nothing — the headline incremental number).
    pub oracle_executions: usize,
    /// Aggregated verdict-cache activity of the dirty re-runs.
    pub cache_stats: CacheStats,
    /// Verdicts reused from clean shards without re-execution.
    pub spliced_verdicts: usize,
    /// End-to-end wall-clock of the incremental run.
    pub wall_time: Duration,
    /// Worker threads used for the dirty clusters.
    pub num_threads: usize,
}

impl IncrementalOutcome {
    /// Assembles the run's specification artifact — spliced and re-ran
    /// clusters interleaved in configuration order, stamped with the new
    /// library fingerprint.  Byte-identical to the artifact of a cold full
    /// run over the same (new) program: the splice invariant.
    pub fn spec_artifact(&self, program: &atlas_ir::Program) -> SpecArtifact {
        let clusters = self
            .clusters
            .iter()
            .map(|cluster| match &cluster.disposition {
                ClusterDisposition::Spliced { spec, .. } => spec.clone(),
                ClusterDisposition::Reran(outcome) => {
                    cluster_spec(program, &outcome.classes, &outcome.fsa, self.extraction)
                }
            })
            .collect();
        SpecArtifact {
            fingerprint: self.library,
            extraction: self.extraction,
            clusters,
        }
    }
}

impl<'p> Engine<'p> {
    /// The closure identity of this engine's run — the library fingerprint
    /// plus each configured cluster's dependency-closure fingerprint.
    /// Capture it after a full run (it is a pure function of program and
    /// configuration) and diff an engine over the edited program against
    /// it with [`Engine::run_with_store`].  Both fingerprints are read
    /// from the engine's content index, so a provenance taken after a
    /// store-backed run hashes nothing again.  Records an
    /// `engine/provenance` span on lane 0.
    pub fn run_provenance(&self) -> RunProvenance {
        let mut lane = self.recorder().lane(0);
        let start = lane.begin();
        let provenance = RunProvenance {
            library: self.library_fingerprint(),
            clusters: self
                .cluster_jobs()
                .into_iter()
                .map(|job| ClusterProvenance {
                    closure: job.closure,
                })
                .collect(),
        };
        lane.end(start, "engine", "provenance", Vec::new());
        provenance
    }

    /// The store-backed run against a closure-sharded store root (empty,
    /// or written by earlier store-backed runs):
    /// [`Engine::run_with_shards`] over a private, unbounded
    /// [`HotShards`] on `root`, flushed before the run returns.
    ///
    /// # Errors
    /// Returns the `atlas-store` error when a shard exists but is
    /// unreadable or malformed, or when writing a dirty shard fails.
    pub fn run_with_store(
        &self,
        old: &RunProvenance,
        root: &Path,
        extraction: (usize, usize),
    ) -> Result<IncrementalOutcome, StoreError> {
        let shards = Mutex::new(HotShards::new(root, usize::MAX));
        let outcome = self.run_with_shards(old, &shards, ROOT_NAMESPACE, extraction)?;
        shards
            .into_inner()
            .expect("hot shard cache lock poisoned")
            .flush()?;
        Ok(outcome)
    }

    /// The store-backed run against namespace `ns` of a shared
    /// [`HotShards`], diffed against the provenance of a previous run:
    /// clusters whose dependency-closure fingerprint appears in `old` are
    /// **clean** and splice their automaton, specs, and verdicts from the
    /// store; the rest are **dirty**, re-run (through the same work queue
    /// as [`Session::run`](crate::Session::run)) and persist their new
    /// shards into it — flushing is the caller's.  `extraction` bounds the
    /// spec extraction of re-ran clusters — pass the same bounds the store
    /// was persisted with, or spliced and re-ran specs would not be
    /// comparable.
    ///
    /// The cache is locked per shard operation, never while clusters
    /// learn, so runs over different namespaces of one cache proceed
    /// concurrently.
    ///
    /// A clean cluster whose shard is missing (e.g. after an over-eager
    /// GC), empty, or was persisted under different extraction bounds is
    /// demoted to dirty rather than failing the run; the outcome's
    /// `forced_dirty` counts such demotions.
    ///
    /// # Errors
    /// Returns the `atlas-store` error when a shard exists but is
    /// unreadable or malformed, or when encoding a dirty shard fails.
    pub fn run_with_shards(
        &self,
        old: &RunProvenance,
        shards: &Mutex<HotShards>,
        ns: usize,
        extraction: (usize, usize),
    ) -> Result<IncrementalOutcome, StoreError> {
        let lock = || shards.lock().expect("hot shard cache lock poisoned");
        // Resolve the jobs before the run's span opens: on a fresh engine
        // this records `engine/jobs`, a sibling of `incr/incremental`.
        let jobs = self.cluster_jobs();
        let wall = Instant::now();
        let recorder = self.recorder();
        let mut incr_lane = recorder.lane(0);
        let incr_start = incr_lane.begin();
        let library = self.library_fingerprint();

        // Pass 1 (sequential, cheap): resolve each cluster's disposition.
        // `Skip` marks empty clusters (skipped, like a full run).
        enum Plan {
            Skip,
            Splice { spec: SpecCluster, verdicts: usize },
            Run,
        }
        let mut plans: Vec<Plan> = Vec::with_capacity(jobs.len());
        let mut forced_dirty = 0usize;
        for job in &jobs {
            if !self.interface().has_slots_in(&job.classes) {
                plans.push(Plan::Skip);
                continue;
            }
            if !old.knows_closure(job.closure) {
                plans.push(Plan::Run);
                continue;
            }
            // Every demotion leaves an instant mark on the cluster's lane:
            // a `forced_dirty` count without *which* shard was at fault is
            // not actionable.
            let mut demote = |reason: &'static str| {
                forced_dirty += 1;
                recorder.lane(1 + job.index as u64).instant(
                    "incr",
                    "forced-dirty",
                    vec![
                        ("closure", ArgValue::Hex(job.closure)),
                        ("reason", ArgValue::from(reason)),
                    ],
                );
                Plan::Run
            };
            let Some(artifact) = lock().load_specs(ns, job.closure, self.program())? else {
                plans.push(demote("missing-shard"));
                continue;
            };
            // A shard persisted under different extraction bounds would
            // splice specs the caller's bounds never produced; demote to a
            // re-run rather than emit a mixed-bounds artifact.
            if artifact.extraction != extraction {
                plans.push(demote("foreign-extraction"));
                continue;
            }
            let Some(spec) = artifact.clusters.into_iter().next() else {
                plans.push(demote("empty-shard"));
                continue;
            };
            let provenance = CacheProvenance::for_closure(
                library,
                job.closure,
                self.config().init,
                self.config().limits,
            );
            let verdicts = lock().count_verdicts(ns, job.closure, provenance.context)?;
            plans.push(Plan::Splice { spec, verdicts });
        }

        // Pass 2 (parallel): re-run the dirty clusters, exactly like a
        // full session would have — same seeds, same pipeline.  The worker
        // count follows the re-run set, forced-dirty demotions included.
        let dirty: Vec<&ClusterJob> = jobs
            .iter()
            .zip(&plans)
            .filter(|(_, plan)| matches!(plan, Plan::Run))
            .map(|(job, _)| job)
            .collect();
        let num_threads = resolve_threads(self.config().num_threads, dirty.len());
        let mut runs = map_indexed(&dirty, num_threads, |_, job| {
            run_cluster_job(self, job, self.warm_cache())
        })
        .into_iter();

        // Pass 3 (sequential, in cluster order): persist dirty shards and
        // assemble the outcome.
        let mut outcome = IncrementalOutcome {
            library,
            extraction,
            clusters: Vec::new(),
            dirty_clusters: 0,
            clean_clusters: 0,
            forced_dirty,
            oracle_queries: 0,
            oracle_executions: 0,
            cache_stats: CacheStats::default(),
            spliced_verdicts: 0,
            wall_time: Duration::ZERO,
            num_threads,
        };
        let mut stats = OracleStats::default();
        for (job, plan) in jobs.iter().zip(plans) {
            match plan {
                Plan::Skip => {}
                Plan::Splice { spec, verdicts } => {
                    outcome.clean_clusters += 1;
                    outcome.spliced_verdicts += verdicts;
                    recorder.lane(1 + job.index as u64).instant(
                        "incr",
                        "splice",
                        vec![
                            ("closure", ArgValue::Hex(job.closure)),
                            ("verdicts", ArgValue::from(verdicts)),
                        ],
                    );
                    outcome.clusters.push(IncrementalCluster {
                        index: job.index,
                        closure: job.closure,
                        disposition: ClusterDisposition::Spliced { spec, verdicts },
                    });
                }
                Plan::Run => {
                    let run = runs
                        .next()
                        .flatten()
                        .expect("one run per non-empty dirty cluster");
                    outcome.dirty_clusters += 1;
                    stats.merge(run.stats);
                    outcome.cache_stats.merge(run.cache.stats());

                    let provenance = CacheProvenance::for_closure(
                        library,
                        job.closure,
                        self.config().init,
                        self.config().limits,
                    );
                    let spec = SpecArtifact {
                        fingerprint: job.closure,
                        extraction,
                        clusters: vec![cluster_spec(
                            self.program(),
                            &run.outcome.classes,
                            &run.outcome.fsa,
                            extraction,
                        )],
                    };
                    lock().persist_cluster(
                        ns,
                        job.closure,
                        &run.cache,
                        provenance,
                        &spec,
                        self.program(),
                    )?;
                    outcome.clusters.push(IncrementalCluster {
                        index: job.index,
                        closure: job.closure,
                        disposition: ClusterDisposition::Reran(run.outcome),
                    });
                }
            }
        }
        outcome.oracle_queries = stats.queries;
        outcome.oracle_executions = stats.executions;
        outcome.wall_time = wall.elapsed();
        if recorder.is_enabled() {
            recorder.count("incr.clusters_dirty", outcome.dirty_clusters as u64);
            recorder.count("incr.clusters_clean", outcome.clean_clusters as u64);
            recorder.count("incr.forced_dirty", outcome.forced_dirty as u64);
            recorder.count("incr.spliced_verdicts", outcome.spliced_verdicts as u64);
            recorder.record_duration("incr.run_ns", outcome.wall_time);
            incr_lane.end(
                incr_start,
                "incr",
                "incremental",
                vec![
                    ("dirty", ArgValue::from(outcome.dirty_clusters)),
                    ("clean", ArgValue::from(outcome.clean_clusters)),
                    ("library", ArgValue::Hex(outcome.library)),
                ],
            );
        }
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inference::AtlasConfig;
    use atlas_ir::LibraryInterface;
    use atlas_store::shard_entry;

    fn setup() -> (atlas_ir::Program, LibraryInterface) {
        let mut pb = atlas_ir::builder::ProgramBuilder::new();
        atlas_javalib::install_library(&mut pb);
        atlas_javalib::install_box_example(&mut pb);
        let program = pb.build();
        let interface = LibraryInterface::from_program(&program);
        (program, interface)
    }

    fn config(program: &atlas_ir::Program) -> AtlasConfig {
        AtlasConfig {
            samples_per_cluster: 250,
            clusters: vec![
                vec![program.class_named("Box").unwrap()],
                vec![program.class_named("Stack").unwrap()],
            ],
            num_threads: 1,
            ..AtlasConfig::default()
        }
    }

    #[test]
    fn body_edit_redoes_only_the_containing_cluster_and_splices_the_rest() {
        let root = std::env::temp_dir().join(format!("atlas-incr-core-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let extraction = (8, 64);

        // A store-backed run over the old library fills the empty root,
        // one shard per cluster closure.
        let (old_program, old_interface) = setup();
        let old_engine = Engine::new(&old_program, &old_interface, config(&old_program));
        let old_provenance = old_engine.run_provenance();
        assert_eq!(old_provenance.clusters.len(), 2);
        let seeded = old_engine
            .run_with_store(&old_provenance, &root, extraction)
            .expect("seed shards");
        assert_eq!((seeded.dirty_clusters, seeded.forced_dirty), (2, 2));
        assert_eq!(atlas_store::list_shards(&root).unwrap().len(), 2);

        // Edit Box.set — inside the Box cluster's closure, outside Stack's.
        let (mut new_program, _) = setup();
        let set = new_program.method_qualified("Box.set").unwrap();
        atlas_ir::mutate::edit_body(&mut new_program, set, 1);
        let new_interface = LibraryInterface::from_program(&new_program);
        let new_engine = Engine::new(&new_program, &new_interface, config(&new_program));

        // The closure diff: only the Box cluster is dirty.
        let jobs = new_engine.cluster_jobs();
        let clean: Vec<bool> = jobs
            .iter()
            .map(|job| old_provenance.knows_closure(job.closure))
            .collect();
        assert_eq!(clean, vec![false, true], "only the Box cluster");
        let stack_shard_bytes = std::fs::read(shard_entry(&root, jobs[1].closure).specs)
            .expect("stack shard persisted");

        let outcome = new_engine
            .run_with_store(&old_provenance, &root, extraction)
            .expect("incremental");
        assert_eq!(outcome.dirty_clusters, 1);
        assert_eq!(outcome.clean_clusters, 1);
        assert_eq!(outcome.forced_dirty, 0);
        assert!(outcome.oracle_executions > 0, "the dirty cluster re-ran");
        assert!(outcome.spliced_verdicts > 0, "Stack verdicts spliced");
        assert!(matches!(
            outcome.clusters[0].disposition,
            ClusterDisposition::Reran(_)
        ));
        assert!(matches!(
            outcome.clusters[1].disposition,
            ClusterDisposition::Spliced { .. }
        ));

        // Splice invariant: the incremental artifact is byte-identical to a
        // cold full run over the edited program.
        let full_new = Engine::new(&new_program, &new_interface, config(&new_program)).run();
        let full_artifact = full_new
            .spec_artifact(&new_program, &new_interface, extraction.0, extraction.1)
            .encode(&new_program)
            .unwrap()
            .render();
        let incr_artifact = outcome
            .spec_artifact(&new_program)
            .encode(&new_program)
            .unwrap()
            .render();
        assert_eq!(incr_artifact, full_artifact, "splice invariant");

        // The clean cluster's shard file was not rewritten.
        assert_eq!(
            std::fs::read(shard_entry(&root, jobs[1].closure).specs).unwrap(),
            stack_shard_bytes,
            "clean shards stay byte-identical on disk"
        );

        // A second incremental run against the new provenance is fully
        // clean: nothing executes, everything splices.
        let new_provenance = new_engine.run_provenance();
        let again = new_engine
            .run_with_store(&new_provenance, &root, extraction)
            .expect("clean incremental");
        assert_eq!(again.dirty_clusters, 0);
        assert_eq!(again.clean_clusters, 2);
        assert_eq!(again.oracle_executions, 0);
        assert_eq!(
            again
                .spec_artifact(&new_program)
                .encode(&new_program)
                .unwrap()
                .render(),
            incr_artifact
        );

        // Another sample budget over the same root: the shards were
        // learned at 250 samples, so none may splice into a 120-sample
        // run — it renders the 120-sample cold artifact.
        let other_budget = AtlasConfig {
            samples_per_cluster: 120,
            ..config(&new_program)
        };
        let cold_other = Engine::new(&new_program, &new_interface, other_budget.clone())
            .run()
            .spec_artifact(&new_program, &new_interface, extraction.0, extraction.1)
            .encode(&new_program)
            .unwrap()
            .render();
        assert_ne!(cold_other, incr_artifact, "the budgets learn differently");
        let other_engine = Engine::new(&new_program, &new_interface, other_budget);
        let other = other_engine
            .run_with_store(&other_engine.run_provenance(), &root, extraction)
            .expect("store-backed run at another budget");
        assert_eq!(
            other
                .spec_artifact(&new_program)
                .encode(&new_program)
                .unwrap()
                .render(),
            cold_other,
            "a shard learned under another budget was spliced"
        );
        assert_eq!((other.clean_clusters, other.forced_dirty), (0, 2));
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// The `reason` of every forced-dirty demotion `recorder` saw, in
    /// cluster order.
    fn demotions(recorder: &atlas_obs::Recorder) -> Vec<String> {
        recorder
            .events()
            .into_iter()
            .filter(|event| event.name == "forced-dirty")
            .map(
                |event| match event.args.into_iter().find(|(k, _)| *k == "reason") {
                    Some((_, ArgValue::Text(reason))) => reason,
                    other => panic!("a demotion without a reason: {other:?}"),
                },
            )
            .collect()
    }

    /// Whatever demotes a clean-by-closure cluster, its re-run writes the
    /// shard a freshly filled root holds: the repair renders the cold
    /// artifact, leaves `cache.json` byte-identical, and a later run
    /// splices each verdict once.
    #[test]
    fn a_demoted_shard_is_rewritten_as_a_fresh_root_holds_it() {
        let scratch = |tag: &str| {
            let root = std::env::temp_dir()
                .join(format!("atlas-incr-repair-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&root);
            root
        };
        let extraction = (8, 64);
        let (program, interface) = setup();
        let engine = Engine::new(&program, &interface, config(&program));
        let provenance = engine.run_provenance();
        let closures: Vec<u64> = engine.cluster_jobs().iter().map(|j| j.closure).collect();
        let stack = closures[1];
        let render = |artifact: SpecArtifact| artifact.encode(&program).unwrap().render();
        let cold = render(engine.run().spec_artifact(
            &program,
            &interface,
            extraction.0,
            extraction.1,
        ));
        let seed = |tag: &str, bounds: (usize, usize)| {
            let root = scratch(tag);
            engine
                .run_with_store(&provenance, &root, bounds)
                .expect("seed the root");
            root
        };
        let fresh = seed("fresh", extraction);
        let caches = |root: &Path| -> Vec<Vec<u8>> {
            closures
                .iter()
                .map(|&c| std::fs::read(shard_entry(root, c).cache).expect("shard cache"))
                .collect()
        };
        let fresh_caches = caches(&fresh);

        // Re-runs the unedited program over `root`: exactly the clusters
        // demoted for `reasons` re-run, and the root ends up as fresh.
        let repair = |root: &Path, reasons: &[&str]| {
            let recorder = atlas_obs::Recorder::tracing();
            let outcome = Engine::new(&program, &interface, config(&program))
                .with_recorder(recorder.clone())
                .run_with_store(&provenance, root, extraction)
                .expect("repair run");
            assert_eq!(demotions(&recorder), reasons);
            assert_eq!(
                (outcome.dirty_clusters, outcome.forced_dirty),
                (reasons.len(), reasons.len())
            );
            assert_eq!(render(outcome.spec_artifact(&program)), cold);
            assert!(
                caches(root) == fresh_caches,
                "a repaired shard cache differs from a fresh root's"
            );
        };

        // (a) The specs of the Stack shard are lost, its cache is not.
        let lost = seed("lost", extraction);
        std::fs::remove_file(shard_entry(&lost, stack).specs).unwrap();
        repair(&lost, &["missing-shard"]);

        // (b) Every shard was persisted under other extraction bounds.
        let foreign = seed("foreign", (4, 16));
        repair(&foreign, &["foreign-extraction", "foreign-extraction"]);

        // (c) The Stack shard's specs hold no cluster.
        let empty = seed("empty", extraction);
        let hollow = SpecArtifact {
            fingerprint: stack,
            extraction,
            clusters: Vec::new(),
        };
        atlas_store::save_specs(&shard_entry(&empty, stack).specs, &hollow, &program).unwrap();
        repair(&empty, &["empty-shard"]);

        // (a) again, repaired by an edit outside the Stack cluster: the run
        // after it splices as many verdicts as it does over a fresh root.
        std::fs::remove_file(shard_entry(&lost, stack).specs).unwrap();
        let (mut edited, _) = setup();
        let set = edited.method_qualified("Box.set").unwrap();
        atlas_ir::mutate::edit_body(&mut edited, set, 1);
        let edited_interface = LibraryInterface::from_program(&edited);
        let next_spliced = |root: &Path, forced_dirty: usize| {
            let engine = Engine::new(&edited, &edited_interface, config(&edited));
            let edit = engine
                .run_with_store(&provenance, root, extraction)
                .expect("edit run");
            assert_eq!(
                (edit.dirty_clusters, edit.forced_dirty),
                (1 + forced_dirty, forced_dirty)
            );
            let next = engine
                .run_with_store(&engine.run_provenance(), root, extraction)
                .expect("next run");
            assert_eq!(next.dirty_clusters, 0);
            next.spliced_verdicts
        };
        assert_eq!(next_spliced(&lost, 1), next_spliced(&fresh, 0));

        for root in [fresh, lost, foreign, empty] {
            std::fs::remove_dir_all(root).unwrap();
        }
    }
}
