//! Incremental inference: diff a library edit at the granularity of
//! cluster dependency closures, re-run only the dirty clusters, and splice
//! everything else straight from the persistent store.
//!
//! The flow (see `DESIGN.md`, "incremental invalidation"):
//!
//! 1. A full run over the *old* library persists one store shard per
//!    cluster closure ([`Session::persist_shards`]):
//!    `<root>/0x<closure>/cache.json` + `specs.json`.
//! 2. The old run's identity is captured as a [`RunProvenance`] — the
//!    library fingerprint plus each cluster's closure fingerprint
//!    ([`Engine::run_provenance`]).
//! 3. After an edit, an engine over the *new* program opens an
//!    [`IncrementalSession`] against the old provenance
//!    ([`Engine::incremental_session`]): clusters whose closure fingerprint
//!    survives the edit are **clean**, the rest are **dirty**.
//! 4. [`IncrementalSession::run_with_store`] re-runs the two-phase pipeline
//!    for dirty clusters only (persisting their new shards), and splices
//!    every clean cluster's learned automaton, path specifications, and
//!    verdicts from its shard — byte-identically, because shard files are
//!    content-addressed by closure fingerprint and never rewritten by a
//!    splice.
//!
//! **Splice invariant.**  The engine is deterministic per cluster (seeds
//! are positional, workers share nothing), so a spliced result *is* what a
//! full re-run would have produced: `IncrementalOutcome::spec_artifact`
//! renders byte-identically to the spec artifact of a cold full run over
//! the new program.  This module's unit tests and the
//! `incremental_invalidation` integration test both assert exactly this.

use crate::engine::{resolve_threads, run_cluster_job, ClusterJob, ClusterRun, Engine, Session};
use crate::inference::{ClusterOutcome, InferenceOutcome};
use atlas_learn::{library_fingerprint, CacheStats, OracleStats, VerdictCache};
use atlas_obs::ArgValue;
use atlas_store::{
    load_cache, save_cache, shard_entry, CacheArtifact, CacheProvenance, SpecArtifact, SpecCluster,
    StoreError,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The closure identity of one cluster of a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterProvenance {
    /// Position of the cluster in the configuration.
    pub index: usize,
    /// Names of the cluster's classes (names, not ids, so provenances
    /// compare across independently built programs).
    pub classes: Vec<String>,
    /// The cluster's dependency-closure fingerprint.
    pub closure: u64,
}

/// The content identity of a whole run: the library fingerprint plus every
/// cluster's closure fingerprint.  This is what an incremental session
/// diffs a new program against.
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

/// One cluster's persistable result: class names resolved against
/// `program`, specs extracted from `fsa` with `extraction`.  The one
/// construction shared by shard persistence, dirty re-runs, and artifact
/// assembly — so the byte-identical splice invariant cannot be broken by
/// the three drifting apart.
fn cluster_spec(
    program: &atlas_ir::Program,
    classes: &[atlas_ir::ClassId],
    fsa: &atlas_spec::Fsa,
    extraction: (usize, usize),
) -> SpecCluster {
    SpecCluster {
        classes: classes
            .iter()
            .map(|&id| program.class(id).name().to_string())
            .collect(),
        specs: fsa.accepted_specs(extraction.0, extraction.1),
        fsa: fsa.clone(),
    }
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

/// Where an incremental run loads clean-cluster shards from and persists
/// dirty-cluster shards to.
///
/// [`IncrementalSession::run_with_store`] always spoke to a closure-sharded
/// directory on disk; this trait is that conversation made explicit, so a
/// resident service can interpose an in-memory hot cache (LRU over decoded
/// shards, write-behind persistence) without re-implementing the splice
/// logic — and without being able to break the byte-identity invariant,
/// because the splice path is shared.  [`DiskShards`] is the canonical
/// implementation over `atlas_store::shard_entry` files.
pub trait ShardStore {
    /// The decoded spec artifact of the shard for `closure`, or `None`
    /// when the shard has no specs yet (the cluster is then demoted to a
    /// re-run).  Method symbols are resolved against `program`.
    ///
    /// # Errors
    /// Returns the `atlas-store` error when the shard exists but is
    /// unreadable or malformed.
    fn load_specs(
        &mut self,
        closure: u64,
        program: &atlas_ir::Program,
    ) -> Result<Option<SpecArtifact>, StoreError>;

    /// How many verdicts the shard for `closure` holds under the given key
    /// context (`CacheProvenance::context`) — the count reported as
    /// "spliced verdicts" for a clean cluster.  A missing shard holds `0`.
    ///
    /// # Errors
    /// Returns the `atlas-store` error when the shard cache exists but is
    /// unreadable or malformed.
    fn count_verdicts(&mut self, closure: u64, context: u64) -> Result<usize, StoreError>;

    /// Persists one re-ran cluster: merges `fresh`'s verdicts (filtered by
    /// `provenance`'s context, first-entry-wins against whatever the shard
    /// already holds) into the shard cache for `closure` and replaces the
    /// shard's spec artifact with `specs`.  Returns the number of cache
    /// entries the shard gained.
    ///
    /// # Errors
    /// Returns the `atlas-store` error when the shard cannot be read back
    /// or written.
    fn persist_cluster(
        &mut self,
        closure: u64,
        fresh: &atlas_learn::VerdictCache,
        provenance: CacheProvenance,
        specs: &SpecArtifact,
        program: &atlas_ir::Program,
    ) -> Result<usize, StoreError>;
}

/// The canonical [`ShardStore`]: closure shards as directories under a
/// store root (`<root>/0x<closure>/{cache,specs}.json`), exactly the
/// layout [`Session::persist_shards`] writes.  Stateless between calls;
/// every operation goes to disk.
pub struct DiskShards {
    root: PathBuf,
}

impl DiskShards {
    /// A disk-backed shard store rooted at `root`.
    pub fn new(root: &Path) -> DiskShards {
        DiskShards {
            root: root.to_path_buf(),
        }
    }

    /// The store root this instance reads and writes.
    pub fn root(&self) -> &Path {
        &self.root
    }
}

impl ShardStore for DiskShards {
    fn load_specs(
        &mut self,
        closure: u64,
        program: &atlas_ir::Program,
    ) -> Result<Option<SpecArtifact>, StoreError> {
        let entry = shard_entry(&self.root, closure);
        if !entry.specs.exists() {
            return Ok(None);
        }
        atlas_store::load_specs(&entry.specs, program).map(Some)
    }

    fn count_verdicts(&mut self, closure: u64, context: u64) -> Result<usize, StoreError> {
        let entry = shard_entry(&self.root, closure);
        if !entry.cache.exists() {
            return Ok(0);
        }
        Ok(load_cache(&entry.cache)?
            .shards
            .iter()
            .filter(|s| s.provenance.context == context)
            .map(|s| s.entries.len())
            .sum())
    }

    fn persist_cluster(
        &mut self,
        closure: u64,
        fresh: &atlas_learn::VerdictCache,
        provenance: CacheProvenance,
        specs: &SpecArtifact,
        program: &atlas_ir::Program,
    ) -> Result<usize, StoreError> {
        let entry = shard_entry(&self.root, closure);
        let new_entries = persist_shard_cache(&entry.cache, fresh, provenance)?;
        atlas_store::save_specs(&entry.specs, specs, program)?;
        Ok(new_entries)
    }
}

/// What [`Session::persist_shards`] wrote.
#[derive(Debug, Clone)]
pub struct ShardPersistSummary {
    /// The store root written under.
    pub root: PathBuf,
    /// Closure shards written (one per non-empty cluster, deduplicated by
    /// closure fingerprint).
    pub shards: usize,
    /// Entries the shard caches gained that they did not already hold.
    pub new_entries: usize,
}

impl<'e, 'p> Session<'e, 'p> {
    /// Persists this session's results into a **closure-sharded** store
    /// root: for every non-empty cluster, `<root>/0x<closure>/cache.json`
    /// (that cluster's verdicts, merged first-entry-wins into whatever the
    /// shard already holds) and `specs.json` (the cluster's automaton and
    /// specifications, extracted with `extraction`).  Call after
    /// [`Session::run`] with the run's outcome.
    ///
    /// This is the layout [`IncrementalSession`] splices from: clean
    /// clusters find their shard by closure fingerprint alone.
    ///
    /// # Errors
    /// Returns the `atlas-store` error when a shard is unreadable,
    /// malformed, or unwritable.
    pub fn persist_shards(
        &self,
        outcome: &InferenceOutcome,
        root: &Path,
        extraction: (usize, usize),
    ) -> Result<ShardPersistSummary, StoreError> {
        let engine = self.engine();
        let library = library_fingerprint(engine.program(), engine.interface());
        let mut summary = ShardPersistSummary {
            root: root.to_path_buf(),
            shards: 0,
            new_entries: 0,
        };
        let mut seen = Vec::new();
        let mut cursor = 0usize;
        for job in self.jobs() {
            let restricted = engine.interface().restrict_to_classes(&job.classes);
            if restricted.slots().is_empty() {
                continue;
            }
            let cluster = &outcome.clusters[cursor];
            cursor += 1;
            if seen.contains(&job.closure) {
                continue;
            }
            seen.push(job.closure);
            let provenance = CacheProvenance::for_closure(
                library,
                job.closure,
                engine.config().init,
                engine.config().limits,
            );
            let entry = shard_entry(root, job.closure);
            summary.new_entries += persist_shard_cache(&entry.cache, self.collected(), provenance)?;
            let spec = SpecArtifact {
                fingerprint: job.closure,
                extraction,
                clusters: vec![cluster_spec(
                    engine.program(),
                    &job.classes,
                    &cluster.fsa,
                    extraction,
                )],
            };
            atlas_store::save_specs(&entry.specs, &spec, engine.program())?;
            summary.shards += 1;
        }
        Ok(summary)
    }
}

/// Merges one cluster's verdicts (filtered by `provenance`'s context) into
/// a shard cache file, first-entry-wins; returns the entries the file
/// gained.
fn persist_shard_cache(
    path: &Path,
    cache: &atlas_learn::VerdictCache,
    provenance: CacheProvenance,
) -> Result<usize, StoreError> {
    let session = CacheArtifact::from_cache(cache, provenance);
    let mut on_disk = if path.exists() {
        load_cache(path)?
    } else {
        CacheArtifact::default()
    };
    let before = on_disk.num_entries();
    on_disk.merge(&session);
    let new_entries = on_disk.num_entries() - before;
    save_cache(path, &on_disk)?;
    Ok(new_entries)
}

impl<'p> Engine<'p> {
    /// The closure identity of this engine's run — the library fingerprint
    /// plus each configured cluster's dependency-closure fingerprint.
    /// Capture it after a full run (it is a pure function of program and
    /// configuration) and feed it to [`Engine::incremental_session`] on an
    /// engine over the edited program.
    pub fn run_provenance(&self) -> RunProvenance {
        RunProvenance {
            library: library_fingerprint(self.program(), self.interface()),
            clusters: self
                .cluster_jobs()
                .into_iter()
                .map(|job| ClusterProvenance {
                    index: job.index,
                    classes: job
                        .classes
                        .iter()
                        .map(|&id| self.program().class(id).name().to_string())
                        .collect(),
                    closure: job.closure,
                })
                .collect(),
        }
    }

    /// Opens an incremental session over this engine's (new) program,
    /// diffed against the provenance of a previous run: clusters whose
    /// dependency-closure fingerprint appears in `old` are **clean** and
    /// will be spliced from the store; the rest are **dirty** and will
    /// re-run.
    pub fn incremental_session(&self, old: &RunProvenance) -> IncrementalSession<'_, 'p> {
        let jobs = self.cluster_jobs();
        let clean: Vec<bool> = jobs
            .iter()
            .map(|job| old.knows_closure(job.closure))
            .collect();
        let dirty_jobs = clean.iter().filter(|c| !**c).count();
        IncrementalSession {
            engine: self,
            num_threads: resolve_threads(self.config().num_threads, dirty_jobs),
            jobs,
            clean,
            collected: self.warm_cache().warm_clone(),
        }
    }
}

/// A prepared incremental run: the diffed cluster partition of an engine
/// over an edited program.  See the [module docs](self).
pub struct IncrementalSession<'e, 'p> {
    engine: &'e Engine<'p>,
    jobs: Vec<ClusterJob>,
    /// Per-job cleanliness from the closure diff.
    clean: Vec<bool>,
    num_threads: usize,
    /// Starts as a warm-marked copy of the engine's warm cache; after
    /// [`IncrementalSession::run_with_store`], additionally holds every
    /// verdict the dirty re-runs computed, merged in cluster order.
    collected: VerdictCache,
}

impl<'e, 'p> IncrementalSession<'e, 'p> {
    /// The resolved cluster jobs, in configuration order.
    pub fn jobs(&self) -> &[ClusterJob] {
        &self.jobs
    }

    /// Indices of the clusters the closure diff marked dirty.
    pub fn dirty_indices(&self) -> Vec<usize> {
        (0..self.jobs.len()).filter(|&i| !self.clean[i]).collect()
    }

    /// Indices of the clusters the closure diff marked clean.
    pub fn clean_indices(&self) -> Vec<usize> {
        (0..self.jobs.len()).filter(|&i| self.clean[i]).collect()
    }

    /// The number of worker threads the dirty re-runs will use — an
    /// estimate from the closure diff until
    /// [`IncrementalSession::run_with_store`] re-resolves it against the
    /// actual re-run set (forced-dirty demotions can grow it).
    pub fn num_threads(&self) -> usize {
        self.num_threads
    }

    /// Consumes the session and returns its verdict cache: the warm-start
    /// entries plus — once the session has run — every verdict the dirty
    /// re-runs computed, merged deterministically in cluster order.  A
    /// resident service feeds this to the next edit's engine
    /// ([`Engine::warm_start`]) so consecutive edits share verdicts
    /// without round-tripping through the store.
    pub fn into_cache(self) -> VerdictCache {
        self.collected
    }

    /// Runs the incremental pipeline against a closure-sharded store root
    /// (as written by [`Session::persist_shards`] or a previous incremental
    /// run): [`IncrementalSession::run_with_shards`] over a [`DiskShards`].
    ///
    /// # Errors
    /// Returns the `atlas-store` error when a shard exists but is
    /// unreadable or malformed, or when persisting a dirty shard fails.
    pub fn run_with_store(
        &mut self,
        root: &Path,
        extraction: (usize, usize),
    ) -> Result<IncrementalOutcome, StoreError> {
        self.run_with_shards(&mut DiskShards::new(root), extraction)
    }

    /// Runs the incremental pipeline against an arbitrary [`ShardStore`]:
    /// dirty clusters re-run (and persist their new shards through the
    /// store), clean clusters splice their automaton, specs, and verdicts
    /// from it.  `extraction` bounds the spec extraction of re-ran
    /// clusters — pass the same bounds the store was persisted with, or
    /// spliced and re-ran specs would not be comparable.
    ///
    /// A clean cluster whose shard is missing (e.g. after an over-eager
    /// GC) or was persisted under different extraction bounds is demoted
    /// to dirty rather than failing the run; the outcome's `forced_dirty`
    /// counts such demotions.
    ///
    /// # Errors
    /// Returns the `atlas-store` error when a shard exists but is
    /// unreadable or malformed, or when persisting a dirty shard fails.
    pub fn run_with_shards(
        &mut self,
        shards: &mut dyn ShardStore,
        extraction: (usize, usize),
    ) -> Result<IncrementalOutcome, StoreError> {
        let wall = Instant::now();
        let engine = self.engine;
        let recorder = engine.recorder();
        let mut incr_lane = recorder.lane(0);
        let incr_start = incr_lane.begin();
        let library = library_fingerprint(engine.program(), engine.interface());

        // Pass 1 (sequential, cheap): resolve each cluster's disposition.
        // `None` marks empty clusters (skipped, like a full run).
        enum Plan {
            Skip,
            Splice { spec: SpecCluster, verdicts: usize },
            Run,
        }
        let mut plans: Vec<Plan> = Vec::with_capacity(self.jobs.len());
        let mut forced_dirty = 0usize;
        for (i, job) in self.jobs.iter().enumerate() {
            let restricted = engine.interface().restrict_to_classes(&job.classes);
            if restricted.slots().is_empty() {
                plans.push(Plan::Skip);
                continue;
            }
            if !self.clean[i] {
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
            let Some(artifact) = shards.load_specs(job.closure, engine.program())? else {
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
                engine.config().init,
                engine.config().limits,
            );
            let verdicts = shards.count_verdicts(job.closure, provenance.context)?;
            plans.push(Plan::Splice { spec, verdicts });
        }

        // Pass 2 (parallel): re-run the dirty clusters, exactly like a
        // full session would have — same seeds, same pipeline.
        let dirty: Vec<usize> = plans
            .iter()
            .enumerate()
            .filter(|(_, p)| matches!(p, Plan::Run))
            .map(|(i, _)| i)
            .collect();
        // Re-resolve the worker count against the *actual* re-run set:
        // forced-dirty demotions (missing shards, foreign bounds) can grow
        // it well past the closure-diff estimate.
        self.num_threads = resolve_threads(engine.config().num_threads, dirty.len());
        let slots: Vec<Option<ClusterRun>> = if self.num_threads <= 1 {
            dirty
                .iter()
                .map(|&i| run_cluster_job(engine, &self.jobs[i], engine.warm_cache()))
                .collect()
        } else {
            let cursor = AtomicUsize::new(0);
            let results: Mutex<Vec<Option<ClusterRun>>> =
                Mutex::new((0..dirty.len()).map(|_| None).collect());
            std::thread::scope(|scope| {
                for _ in 0..self.num_threads {
                    scope.spawn(|| loop {
                        let k = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(&i) = dirty.get(k) else { break };
                        let run = run_cluster_job(engine, &self.jobs[i], engine.warm_cache());
                        results.lock().expect("result lock poisoned")[k] = run;
                    });
                }
            });
            results.into_inner().expect("result lock poisoned")
        };

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
            num_threads: self.num_threads,
        };
        let mut stats = OracleStats::default();
        let mut runs = dirty.iter().zip(slots);
        for (i, plan) in plans.into_iter().enumerate() {
            let job = &self.jobs[i];
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
                    let (_, run) = runs.next().expect("one slot per dirty cluster");
                    let run = run.expect("non-empty cluster produces a run");
                    outcome.dirty_clusters += 1;
                    stats.merge(run.stats);
                    outcome.cache_stats.merge(run.cache.stats());

                    let provenance = CacheProvenance::for_closure(
                        library,
                        job.closure,
                        engine.config().init,
                        engine.config().limits,
                    );
                    let spec = SpecArtifact {
                        fingerprint: job.closure,
                        extraction,
                        clusters: vec![cluster_spec(
                            engine.program(),
                            &run.outcome.classes,
                            &run.outcome.fsa,
                            extraction,
                        )],
                    };
                    shards.persist_cluster(
                        job.closure,
                        &run.cache,
                        provenance,
                        &spec,
                        engine.program(),
                    )?;
                    self.collected.merge(run.cache);
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

        // Full run over the old library, persisted shard-per-closure.
        let (old_program, old_interface) = setup();
        let old_engine = Engine::new(&old_program, &old_interface, config(&old_program));
        let mut session = old_engine.session();
        let full_old = session.run();
        let persisted = session
            .persist_shards(&full_old, &root, extraction)
            .expect("persist shards");
        assert_eq!(persisted.shards, 2);
        assert!(persisted.new_entries > 0);
        let old_provenance = old_engine.run_provenance();
        assert_eq!(old_provenance.clusters.len(), 2);

        // Edit Box.set — inside the Box cluster's closure, outside Stack's.
        let (mut new_program, _) = setup();
        let set = new_program.method_qualified("Box.set").unwrap();
        atlas_ir::mutate::edit_body(&mut new_program, set, 1);
        let new_interface = LibraryInterface::from_program(&new_program);
        let new_engine = Engine::new(&new_program, &new_interface, config(&new_program));

        let mut incr = new_engine.incremental_session(&old_provenance);
        assert_eq!(incr.dirty_indices(), vec![0], "only the Box cluster");
        assert_eq!(incr.clean_indices(), vec![1]);
        let stack_shard_bytes = {
            let job = &incr.jobs()[1];
            std::fs::read(shard_entry(&root, job.closure).specs).expect("stack shard persisted")
        };

        let outcome = incr.run_with_store(&root, extraction).expect("incremental");
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
        let job = &new_engine.cluster_jobs()[1];
        assert_eq!(
            std::fs::read(shard_entry(&root, job.closure).specs).unwrap(),
            stack_shard_bytes,
            "clean shards stay byte-identical on disk"
        );

        // A second incremental run against the new provenance is fully
        // clean: nothing executes, everything splices.
        let new_provenance = new_engine.run_provenance();
        let again = new_engine
            .incremental_session(&new_provenance)
            .run_with_store(&root, extraction)
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
        std::fs::remove_dir_all(&root).unwrap();
    }
}
