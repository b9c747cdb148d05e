//! The inference leg shared by the batch and fleet pipelines: a plain
//! engine run, or the store-backed run over a closure-sharded root, reduced
//! to what the reports read — plus the whole-run spec export with the
//! cross-process byte-identity check.  One implementation, so the
//! warm-start protocol cannot desynchronize between the two pipelines.

use crate::json::Json;
use atlas_core::{
    CacheStats, ClusterDisposition, Engine, InferenceOutcome, SpecArtifact, StoreError,
    VerdictCache, EXTRACTION,
};
use atlas_ir::Program;
use std::path::Path;
use std::time::{Duration, Instant};

/// How a store-backed leg disposed of its clusters.
pub(crate) struct Splice {
    /// Clusters spliced from their shards without running the learner.
    pub spliced: usize,
    /// Clusters the learner ran (their shards were then persisted).
    pub reran: usize,
    /// Of those, clusters whose shard was missing or unusable (every
    /// cluster of an empty root).
    pub forced_dirty: usize,
    /// Verdicts the spliced shards hold.
    pub spliced_verdicts: usize,
}

/// One inference leg: the learned artifact and the learner work it took.
/// Spliced clusters contribute their automata but no work.
pub(crate) struct Leg {
    /// The learned specifications, extracted with [`EXTRACTION`].
    pub artifact: SpecArtifact,
    /// Distinct positive examples of the clusters the learner ran.
    pub positive_examples: usize,
    /// Oracle queries of the clusters the learner ran.
    pub oracle_queries: usize,
    /// Unit-test executions of the clusters the learner ran.
    pub oracle_executions: usize,
    /// Verdict-cache activity of the clusters the learner ran.
    pub cache_stats: CacheStats,
    /// Summed phase-one time of the clusters the learner ran.
    pub phase1_time: Duration,
    /// Summed phase-two time of the clusters the learner ran.
    pub phase2_time: Duration,
    /// Wall-clock of the whole leg.
    pub wall_time: Duration,
    /// How the store disposed of the clusters (`None` without a store).
    pub splice: Option<Splice>,
}

impl Leg {
    /// A plain engine run (cold, or warm from the engine's in-memory
    /// cache), returning the session's verdict cache alongside.
    pub fn run(engine: &Engine<'_>) -> (Leg, VerdictCache) {
        let wall = Instant::now();
        let mut session = engine.session();
        let outcome: InferenceOutcome = session.run();
        let (max_len, limit) = EXTRACTION;
        let leg = Leg {
            artifact: outcome.spec_artifact(engine.program(), engine.interface(), max_len, limit),
            positive_examples: outcome.total_positive_examples(),
            oracle_queries: outcome.oracle_queries,
            oracle_executions: outcome.oracle_executions,
            cache_stats: outcome.cache_stats,
            phase1_time: outcome.phase1_time,
            phase2_time: outcome.phase2_time,
            wall_time: wall.elapsed(),
            splice: None,
        };
        (leg, session.into_cache())
    }

    /// The store-backed run over a closure-sharded `root`: an empty root
    /// fills cluster by cluster, a seeded one splices every clean cluster.
    ///
    /// # Errors
    /// Returns the positioned `atlas-store` error when a shard is
    /// unreadable or corrupt, or the root is unwritable.
    pub fn store_backed(engine: &Engine<'_>, root: &Path) -> Result<Leg, StoreError> {
        let wall = Instant::now();
        let outcome = engine.run_with_store(&engine.run_provenance(), root, EXTRACTION)?;
        let wall_time = wall.elapsed();
        let reran = || {
            outcome
                .clusters
                .iter()
                .filter_map(|c| match &c.disposition {
                    ClusterDisposition::Reran(run) => Some(run),
                    ClusterDisposition::Spliced { .. } => None,
                })
        };
        Ok(Leg {
            artifact: outcome.spec_artifact(engine.program()),
            positive_examples: reran().map(|c| c.num_positive_examples).sum(),
            oracle_queries: outcome.oracle_queries,
            oracle_executions: outcome.oracle_executions,
            cache_stats: outcome.cache_stats,
            phase1_time: reran().map(|c| c.phase1_time).sum(),
            phase2_time: reran().map(|c| c.phase2_time).sum(),
            wall_time,
            splice: Some(Splice {
                spliced: outcome.clean_clusters,
                reran: outcome.dirty_clusters,
                forced_dirty: outcome.forced_dirty,
                spliced_verdicts: outcome.spliced_verdicts,
            }),
        })
    }
}

/// Writes `artifact` as the whole-run export `<root>/specs.json` (atomic
/// write), returning whether it matched the export an earlier run left
/// there (`Null` when there was none).  Identical bytes mean the run
/// inferred the *exact* same specifications — the cross-process
/// determinism check.
pub(crate) fn export_specs(
    program: &Program,
    artifact: &SpecArtifact,
    root: &Path,
) -> Result<Json, StoreError> {
    let path = root.join("specs.json");
    let rendered = artifact
        .encode(program)
        .map_err(|e| StoreError::schema(&path, e))?
        .render();
    let mut identical = Json::Null;
    if path.exists() {
        // A read failure must fail loudly, not masquerade as a
        // determinism violation.
        let existing = std::fs::read_to_string(&path).map_err(|source| StoreError::Io {
            path: path.clone(),
            source,
        })?;
        identical = Json::Bool(existing == rendered);
    }
    atlas_store::atomic_write(&path, &rendered)?;
    Ok(identical)
}

impl Splice {
    /// The report's view of a store-backed leg: the root, how the clusters
    /// were disposed of, and the cross-process spec check.
    pub fn json(&self, root: &Path, identical: Json) -> Json {
        Json::obj()
            .set("root", root.display().to_string())
            .set("spec_file", root.join("specs.json").display().to_string())
            .set("spliced_clusters", self.spliced)
            .set("reran_clusters", self.reran)
            .set("forced_dirty", self.forced_dirty)
            .set("spliced_verdicts", self.spliced_verdicts)
            .set("specs_identical", identical)
    }
}
