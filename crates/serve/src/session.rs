//! Per-session daemon state: one library under edit, its derived images,
//! its provenance, and the current spec artifact.
//!
//! `atlas-serve/2` makes sessions first-class: every open session owns
//! the full mutable state the /1 daemon kept globally — program,
//! provenance chain, specs document, generation — plus a *namespace* of
//! its own in the daemon's shard store (`atlas_core::HotShards`, the one
//! store every store-backed run writes through), so edits in one session
//! can never alias another session's persisted clusters.  A session
//! keeps no verdicts of its own: each re-run cluster's verdicts replace
//! its shard's, the only place a later edit can splice them from.
//!
//! A session edits its program in place and carries what derives from
//! it — the library interface, the content index
//! (`atlas_ir::ContentIndex`) and the bytecode compilation
//! (`atlas_core::CompiledProgram`) — across edits, shared with the
//! daemon's base state until its first edit: each edit brings each image
//! in step for only the method it touched, so an edit's cost outside
//! learning does not grow with the library.  An edit that fails after
//! mutating is undone, images included: an error reply means the edit
//! changed nothing.
//! The daemon serializes requests per session (the service scheduler
//! guarantees at most one in-flight request per session), so a
//! [`SessionState`] is locked for the duration of exactly one request
//! and never contended with itself.

use crate::config::ServeConfig;
use crate::proto::{EditRequest, ErrorCode, WireError};
use atlas_apps::{mutate_library_in_place, MutationConfig};
use atlas_core::{
    AtlasConfig, CompiledProgram, Engine, HotShards, IncrementalOutcome, RunProvenance, StoreError,
};
use atlas_ir::{ClassId, ContentIndex, LibraryInterface, MethodId, MutationOutcome, Program};
use atlas_obs::{Lane, Recorder};
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
    /// The library content after every edit applied so far, edited in
    /// place.
    pub program: Program,
    /// The interface of `program`, carried across edits: each edit
    /// re-reads only the signature of the method it touched.
    pub interface: LibraryInterface,
    /// The content index of `program`, carried across edits: each edit
    /// re-hashes only the method it touched and hands the result to its
    /// engine.
    pub index: Arc<ContentIndex>,
    /// The bytecode compilation of `program`, carried the same way: each
    /// edit lowers only the method it touched.
    pub compiled: Arc<CompiledProgram>,
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

/// What a successful edit computed, before it is committed.
struct Inferred {
    outcome: IncrementalOutcome,
    provenance: RunProvenance,
    specs_doc: Json,
    /// Shards the edit's write-behind flush handed to the writer, when one
    /// was due.
    flushed: Option<usize>,
}

/// A store failure as its wire error.
pub(crate) fn store_error(e: StoreError) -> WireError {
    WireError::new(ErrorCode::Store, e.to_string())
}

impl SessionState {
    /// Applies one library edit and re-infers incrementally.  The result
    /// contains no timing and no generation counter, so the response to
    /// a given edit is deterministic wherever it lands in a stream of
    /// closure-disjoint edits — and identical whether the session runs
    /// alone or interleaved with others (namespaces never alias).
    ///
    /// The edit changes the session's program in place and brings the
    /// carried interface, content index and compilation in step for the
    /// one method it touched.  Every fallible step — the store-backed run,
    /// encoding the specs, the due write-behind flush — comes before the
    /// commit; when one fails, the edit is undone and the session is left
    /// exactly as it was, so an error reply means the edit changed
    /// nothing.
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
        let applied = mutate_library_in_place(
            &mut self.program,
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
        let method = applied.outcome.method;
        self.interface.sync_method(&self.program, method);
        lane.end(start, "serve", "mutate", Vec::new());
        self.sync_images(method, &mut lane);
        match self.infer(config, clusters, inner_threads, hot, recorder, &mut lane) {
            Ok(inferred) => Ok(self.commit(applied.outcome, inferred, &mut lane)),
            Err(error) => {
                let start = lane.begin();
                applied.undo.apply(&mut self.program);
                self.interface.sync_method(&self.program, method);
                self.sync_images(method, &mut lane);
                self.stats.edits_failed += 1;
                lane.end(start, "serve", "undo", Vec::new());
                Err(error)
            }
        }
    }

    /// Brings the carried content index and compilation in step with the
    /// program for `method` — the one method an `atlas_ir::mutate` edit
    /// (or its undo) touched, shifting no id and touching no other method.
    /// Neither image is shared with an engine between edits, so both are
    /// patched in place; only a session's first edit copies the images it
    /// shares with the daemon's base state.
    fn sync_images(&mut self, method: MethodId, lane: &mut Lane) {
        let start = lane.begin();
        Arc::make_mut(&mut self.index).rehash(&self.program, &self.interface, method);
        lane.end(start, "serve", "rehash", Vec::new());
        let start = lane.begin();
        Arc::make_mut(&mut self.compiled).recompile(&self.program, method);
        lane.end(start, "serve", "lower", Vec::new());
    }

    /// The fallible half of an edit, over the edited program: the
    /// store-backed run, the new specs document, and the write-behind
    /// flush when one is due.  Changes nothing of the session.
    fn infer(
        &self,
        config: &ServeConfig,
        clusters: &[Vec<ClassId>],
        inner_threads: usize,
        hot: &Mutex<HotShards>,
        recorder: &Recorder,
        lane: &mut Lane,
    ) -> Result<Inferred, WireError> {
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
        let engine = Engine::new(&self.program, &self.interface, atlas_config)
            .with_index(Arc::clone(&self.index))
            .with_compiled(Arc::clone(&self.compiled))
            .with_recorder(recorder.with_lane_base(lane_base));
        // The run locks the hot cache per shard operation, never while
        // clusters learn, so sessions run their clusters concurrently.
        let outcome = engine
            .run_with_shards(&self.provenance, hot, self.ns, atlas_core::EXTRACTION)
            .map_err(store_error)?;
        // The provenance reads the index the run read: nothing is hashed.
        let provenance = engine.run_provenance();
        // Dropping the engine hands the carried images back unshared.
        drop(engine);
        let start = lane.begin();
        let specs_doc = outcome
            .spec_artifact(&self.program)
            .encode(&self.program)
            .map_err(|e| WireError::new(ErrorCode::Store, e.to_string()))?;
        lane.end(start, "serve", "encode", Vec::new());
        let due = config.flush_every == 0 || self.edits_since_flush + 1 >= config.flush_every;
        let flushed = if due {
            let mut hot = hot.lock().expect("hot shard cache lock poisoned");
            Some(hot.write_behind(self.ns).map_err(store_error)?)
        } else {
            None
        };
        Ok(Inferred {
            outcome,
            provenance,
            specs_doc,
            flushed,
        })
    }

    /// Commits an inferred edit — infallible — and builds its response.
    fn commit(&mut self, edit: MutationOutcome, inferred: Inferred, lane: &mut Lane) -> Json {
        // Committing drops the run's outcome and the specs document the
        // edit supersedes: time of its own, so it gets a span of its own.
        let start = lane.begin();
        let Inferred {
            outcome,
            provenance,
            specs_doc,
            flushed,
        } = inferred;
        let response = Json::obj()
            .set("description", edit.description.as_str())
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
            )
            .set(
                "flushed_shards",
                flushed.map_or(Json::Null, |written| Json::Int(written as i64)),
            );
        self.provenance = provenance;
        self.specs_doc = specs_doc;
        self.generation += 1;
        self.stats.edits_ok += 1;
        self.edits_since_flush = match flushed {
            Some(_) => 0,
            None => self.edits_since_flush + 1,
        };
        drop(outcome);
        lane.end(start, "serve", "commit", Vec::new());
        response
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
