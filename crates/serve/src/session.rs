//! Per-session daemon state: one library under edit, its provenance, and
//! the current spec artifact.
//!
//! `atlas-serve/2` makes sessions first-class: every open session owns
//! the full mutable state the /1 daemon kept globally — program,
//! provenance chain, specs document, generation — plus a *namespace* of
//! its own in the daemon's shard store (`atlas_core::HotShards`, the one
//! store every store-backed run writes through), so edits in one session
//! can never alias another session's persisted clusters.  A session
//! keeps no verdicts of its own: each re-run cluster's verdicts replace
//! its shard's, the only place a later edit can splice them from.  It
//! does keep its program's content index (`atlas_ir::ContentIndex`),
//! shared with the daemon's base state until the first edit: each edit
//! re-hashes only the method it touched, so its hashing cost does not
//! grow with the library.
//! The daemon serializes requests per session (the service scheduler
//! guarantees at most one in-flight request per session), so a
//! [`SessionState`] is locked for the duration of exactly one request
//! and never contended with itself.

use crate::config::ServeConfig;
use crate::proto::{EditRequest, ErrorCode, WireError};
use atlas_apps::{mutate_library, MutationConfig};
use atlas_core::{AtlasConfig, Engine, HotShards, RunProvenance, StoreError};
use atlas_ir::{ClassId, ContentIndex, LibraryInterface, Program};
use atlas_obs::Recorder;
use atlas_store::{hex64_string, Json};
use std::sync::{Arc, Mutex};

/// Lane stripe width per inference session *within* one serve session:
/// startup is stripe 1, edit `k` is stripe `k + 1`.  Lanes 1 and 2
/// below the first stripe are the request and shard-cache tracks.
pub(crate) const SESSION_LANE_STRIDE: u64 = 4096;

/// Lane stripe width per *serve session*: session ordinal `n` records
/// everything — request spans and engine stripes — on lanes
/// `n << 32 ..`, so traces from concurrently-running sessions occupy
/// disjoint lane ranges.  Ordinal 0 is the default session, whose lane
/// layout is byte-identical to the single-session /1 scheme.
pub(crate) const SESSION_ORDINAL_STRIDE: u64 = 1 << 32;

/// The observability lane of request spans within a session's stripe.
pub(crate) const REQUEST_LANE: u64 = 1;

/// Per-session counters reported by the `stats` op.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SessionStats {
    pub edits_ok: u64,
    pub edits_failed: u64,
    pub queries: u64,
}

/// The mutable state of one open session.  See the [module docs](self).
pub(crate) struct SessionState {
    /// The session's wire name (`"default"` for the /1-compat session).
    pub name: String,
    /// The shard-store namespace this session persists into.
    pub ns: usize,
    /// The session's lane stripe index: 0 for the default session, the
    /// open ordinal otherwise.
    pub ordinal: u64,
    /// The library content after every edit applied so far.
    pub program: Program,
    /// The content index of `program`, carried across edits: each edit
    /// re-hashes only the method it touched and hands the result to its
    /// engine.
    pub index: Arc<ContentIndex>,
    /// The previous run's closure identity — the diff basis of the next
    /// edit — whose `library` is the current library fingerprint.
    pub provenance: RunProvenance,
    /// The current `atlas-spec/1` artifact document.
    pub specs_doc: Json,
    /// Edits applied since the session opened.
    pub generation: u64,
    /// Edits since the last write-behind flush of this session.
    pub edits_since_flush: usize,
    pub stats: SessionStats,
}

impl SessionState {
    /// Applies one library edit and re-infers incrementally.  The result
    /// contains no timing and no generation counter, so the response to
    /// a given edit is deterministic wherever it lands in a stream of
    /// closure-disjoint edits — and identical whether the session runs
    /// alone or interleaved with others (namespaces never alias).
    ///
    /// `inner_threads` is this session's share of the global
    /// [`ThreadBudget`](atlas_core::ThreadBudget): the service pool runs
    /// `outer` sessions concurrently and hands each in-flight edit
    /// `inner` engine threads for its cluster fan-out.
    pub fn apply_edit(
        &mut self,
        edit: &EditRequest,
        config: &ServeConfig,
        clusters: &[Vec<ClassId>],
        inner_threads: usize,
        hot: &Mutex<HotShards>,
        recorder: &Recorder,
    ) -> Result<Json, WireError> {
        // The edit's own steps record on the session's request lane,
        // inside the request span the daemon opened there.
        let mut lane = recorder
            .with_lane_base(self.ordinal * SESSION_ORDINAL_STRIDE)
            .lane(REQUEST_LANE);
        let start = lane.begin();
        let mutated = mutate_library(
            &self.program,
            &MutationConfig {
                kind: edit.kind,
                seed: edit.seed,
                target: edit.target.clone(),
            },
        )
        .map_err(|e| {
            self.stats.edits_failed += 1;
            WireError::new(ErrorCode::BadEdit, e.to_string())
        })?;
        let new_program = mutated.program;
        let new_interface = LibraryInterface::from_program(&new_program);
        lane.end(start, "serve", "mutate", Vec::new());
        // The mutation primitives edit one method in place or append one,
        // shifting no id and touching no other method: re-hashing that
        // one method brings the carried index up to date.
        let start = lane.begin();
        let mut index = ContentIndex::clone(&self.index);
        index.rehash(&new_program, &new_interface, mutated.outcome.method);
        let index = Arc::new(index);
        lane.end(start, "serve", "rehash", Vec::new());
        let atlas_config = AtlasConfig {
            samples_per_cluster: config.samples,
            clusters: clusters.to_vec(),
            num_threads: inner_threads,
            ..AtlasConfig::default()
        };
        // Engine stripe `generation + 2` within this session's ordinal
        // stripe (startup was stripe 1): cluster tracks from different
        // edits — and different sessions — never interleave in the
        // exported trace.
        let lane_base =
            self.ordinal * SESSION_ORDINAL_STRIDE + (self.generation + 2) * SESSION_LANE_STRIDE;
        let engine = Engine::new(&new_program, &new_interface, atlas_config)
            .with_index(Arc::clone(&index))
            .with_recorder(recorder.with_lane_base(lane_base));
        // The run locks the hot cache per shard operation, never while
        // clusters learn, so sessions run their clusters concurrently.
        let outcome = engine
            .run_with_shards(&self.provenance, hot, self.ns, atlas_core::EXTRACTION)
            .map_err(|e| {
                self.stats.edits_failed += 1;
                WireError::new(ErrorCode::Store, e.to_string())
            })?;
        // The provenance reads the index the run read: nothing is hashed.
        let new_provenance = engine.run_provenance();
        let start = lane.begin();
        let specs_doc = outcome
            .spec_artifact(&new_program)
            .encode(&new_program)
            .map_err(|e| {
                self.stats.edits_failed += 1;
                WireError::new(ErrorCode::Store, e.to_string())
            })?;
        lane.end(start, "serve", "encode", Vec::new());

        // Committing drops the engine, the run's outcome and the state the
        // edit supersedes (program, specs document): time of its own, so it
        // gets a span of its own.
        let start = lane.begin();
        drop(engine);
        let response = Json::obj()
            .set("description", mutated.outcome.description.as_str())
            .set("library_fingerprint", hex64_string(outcome.library))
            .set(
                "clusters",
                Json::obj()
                    .set("total", outcome.clusters.len())
                    .set("dirty", outcome.dirty_clusters)
                    .set("clean", outcome.clean_clusters)
                    .set("forced_dirty", outcome.forced_dirty),
            )
            .set(
                "executions",
                Json::obj()
                    .set("oracle", outcome.oracle_executions)
                    .set("spliced_verdicts", outcome.spliced_verdicts),
            );
        self.program = new_program;
        self.index = index;
        self.provenance = new_provenance;
        self.specs_doc = specs_doc;
        self.generation += 1;
        self.stats.edits_ok += 1;
        self.edits_since_flush += 1;
        drop((outcome, new_interface));
        lane.end(start, "serve", "commit", Vec::new());

        let mut flushed = Json::Null;
        if config.flush_every == 0 || self.edits_since_flush >= config.flush_every {
            let written = self
                .flush(hot)
                .map_err(|e| WireError::new(ErrorCode::Store, e.to_string()))?;
            flushed = Json::Int(written as i64);
        }
        Ok(response.set("flushed_shards", flushed))
    }

    /// Persists this session's dirty shards now and resets its
    /// write-behind clock.
    ///
    /// # Errors
    /// Returns the `atlas-store` error of the first failed write.
    pub fn flush(&mut self, hot: &Mutex<HotShards>) -> Result<usize, StoreError> {
        let written = hot
            .lock()
            .expect("hot shard cache lock poisoned")
            .flush_namespace(self.ns)?;
        self.edits_since_flush = 0;
        Ok(written)
    }
}
