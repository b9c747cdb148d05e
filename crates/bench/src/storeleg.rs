//! The inference leg shared by the batch and fleet pipelines: the
//! store-backed run over a closure-sharded root, reduced to what the
//! reports read — plus the whole-run spec export with the cross-process
//! byte-identity check, and the `--expect-warm` contract over a report's
//! store section.  A run without a configured root runs over a fresh
//! temporary one ([`with_root`]), so both modes take the one path and
//! prove the same splice.  One implementation, so the warm-start protocol
//! cannot desynchronize between the two pipelines.

use crate::json::Json;
use atlas_core::{CacheStats, ClusterDisposition, Engine, SpecArtifact, StoreError, EXTRACTION};
use atlas_ir::Program;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// How a leg's store disposed of its clusters.
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
    /// How the store disposed of the clusters.
    pub splice: Splice,
}

impl Leg {
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
            splice: Splice {
                spliced: outcome.clean_clusters,
                reran: outcome.dirty_clusters,
                forced_dirty: outcome.forced_dirty,
                spliced_verdicts: outcome.spliced_verdicts,
            },
        })
    }
}

/// Runs `f` over the configured store root, or — when none is configured
/// — over a fresh temporary root that is removed when `f` returns, fails
/// or unwinds.  Either way the legs `f` runs are the same store-backed
/// runs; the configuration only decides whether their shards outlive the
/// run.
///
/// # Errors
/// Returns `f`'s error, or the I/O error of creating the temporary root.
pub(crate) fn with_root<T, E: From<StoreError>>(
    configured: Option<&Path>,
    f: impl FnOnce(&Path) -> Result<T, E>,
) -> Result<T, E> {
    match configured {
        Some(root) => f(root),
        None => f(&TempRoot::create()?.0),
    }
}

/// A fresh directory under the system temporary directory, removed with
/// everything in it when dropped.
struct TempRoot(PathBuf);

impl TempRoot {
    fn create() -> Result<TempRoot, StoreError> {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        loop {
            let n = NEXT.fetch_add(1, Ordering::Relaxed);
            let path = std::env::temp_dir().join(format!("atlas-run-{}-{n}", std::process::id()));
            // `create_dir` fails on an existing directory, so a root is
            // never one an earlier process left behind.
            match std::fs::create_dir(&path) {
                Ok(()) => return Ok(TempRoot(path)),
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {}
                Err(source) => return Err(StoreError::Io { path, source }),
            }
        }
    }
}

impl Drop for TempRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
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
    /// The report's view of a leg's store: the configured root (`null` for
    /// a temporary one, so no temporary path reaches a report), how the
    /// clusters were disposed of, and the cross-process spec check.
    pub fn json(&self, root: Option<&Path>, identical: Json) -> Json {
        let path =
            |path: Option<PathBuf>| path.map_or(Json::Null, |p| Json::str(p.display().to_string()));
        Json::obj()
            .set("root", path(root.map(Path::to_path_buf)))
            .set("spec_file", path(root.map(|r| r.join("specs.json"))))
            .set("spliced_clusters", self.spliced)
            .set("reran_clusters", self.reran)
            .set("forced_dirty", self.forced_dirty)
            .set("spliced_verdicts", self.spliced_verdicts)
            .set("specs_identical", identical)
    }
}

/// The `--expect-warm` contract over one leg's `store` section: every one
/// of the leg's `clusters` spliced from the store, none re-ran or was
/// forced dirty, the spec export is byte-identical to the previous
/// process's, and the leg ran `executions` = 0 unit tests.  Returns one
/// message per broken promise, each naming the store root, so a cold
/// store is diagnosable from a CI log alone; the `batch` and `fleet`
/// binaries exit `1` on any.
pub fn warm_start_failures(
    store: &Json,
    clusters: Option<i64>,
    executions: Option<i64>,
) -> Vec<String> {
    let int = |key: &str| store.get(key).and_then(Json::as_int);
    let root = store
        .get("root")
        .and_then(Json::as_str)
        .unwrap_or("<no store configured>");
    let mut failures = Vec::new();
    if clusters.unwrap_or(0) == 0 || int("spliced_clusters") != clusters {
        failures.push(format!(
            "not every cluster spliced from {root}: {:?} of {clusters:?}",
            int("spliced_clusters")
        ));
    }
    for key in ["reran_clusters", "forced_dirty"] {
        if int(key) != Some(0) {
            failures.push(format!("{key} is not 0 despite {root}: {:?}", int(key)));
        }
    }
    if store.get("specs_identical").and_then(Json::as_bool) != Some(true) {
        failures.push(format!(
            "inferred spec set differs from the previous process's export in {root}"
        ));
    }
    if executions != Some(0) {
        failures.push(format!(
            "executed unit tests despite {root}: {executions:?}"
        ));
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlas_core::AtlasConfig;
    use atlas_ir::LibraryInterface;
    use std::sync::Mutex;

    /// A temporary root lives exactly as long as its run: it holds the
    /// leg's shards while `f` runs, and is gone afterwards whether the run
    /// succeeded, failed on a corrupt shard, or unwound.
    #[test]
    fn a_temporary_root_is_removed_however_the_run_ends() {
        let lib = atlas_apps::build_library("synth-small", 0x5EED).expect("registered");
        let interface = LibraryInterface::from_program(&lib.program);
        let config = AtlasConfig {
            samples_per_cluster: 60,
            clusters: lib.clusters.clone(),
            num_threads: 1,
            ..AtlasConfig::default()
        };
        let engine = Engine::new(&lib.program, &interface, config);
        let seen = Mutex::new(PathBuf::new());
        let run = |root: &Path| -> Result<Leg, StoreError> {
            *seen.lock().unwrap() = root.to_path_buf();
            let leg = Leg::store_backed(&engine, root)?;
            assert!(
                !atlas_store::list_shards(root)?.is_empty(),
                "shards persist"
            );
            Ok(leg)
        };
        let removed = || {
            let root = seen.lock().unwrap().clone();
            assert!(!root.as_os_str().is_empty(), "the run saw its root");
            !root.exists()
        };

        // Success: the leg learned every cluster into the root.
        let leg = with_root(None, run).expect("fresh temporary root");
        assert_eq!(leg.splice.spliced, 0);
        assert_eq!(leg.splice.reran, lib.clusters.len());
        assert!(removed(), "removed after a successful run");

        // A store error: the second leg meets a corrupt shard.
        let err = with_root(None, |root| {
            run(root)?;
            let shard = atlas_store::list_shards(root)?[0].clone();
            std::fs::write(&shard.specs, "{ not json").unwrap();
            run(root)
        })
        .err()
        .expect("a corrupt shard fails the run");
        assert!(matches!(err, StoreError::Parse { .. }), "{err}");
        assert!(removed(), "removed after a store error");

        // Unwind: a panic after the leg persisted its shards.
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            with_root(None, |root| -> Result<(), StoreError> {
                run(root)?;
                panic!("unwind with shards on disk");
            })
        }));
        assert!(unwound.is_err());
        assert!(removed(), "removed on unwind");
    }
}
