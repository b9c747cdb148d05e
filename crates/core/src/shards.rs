//! The shard store: an LRU of decoded closure shards with dirty-shard
//! pinning, write-behind persistence, and per-session namespaces sharing
//! one budget.
//!
//! [`HotShards`] is the one store the store-backed run
//! ([`Engine::run_with_shards`](crate::Engine::run_with_shards)) splices
//! from and persists to, in *memory*; disk is only touched on a cache miss
//! (shard load) and by its **background writer**.  A flush
//! ([`HotShards::write_behind`], [`HotShards::flush`]) renders the dirty
//! shards under the caller's lock, marks them clean and hands the files to
//! one writer thread per cache, which writes them with `atomic_write`.
//! [`Engine::run_with_store`](crate::Engine::run_with_store) runs over a
//! private cache on its root and flushes it before returning; the resident
//! service shares one cache across its start-up and every session's edits.
//! The invariants:
//!
//! * **Transparency.**  Every store-backed run persists through this one
//!   store, and a persist *replaces* the shard's verdicts and specs with
//!   the re-run's (an unchanged closure recomputes the same verdicts), so
//!   a flush at any point leaves a root byte-identical to what any other
//!   deployment writes for the same runs — whatever a damaged shard held.
//! * **Pinning.**  A *dirty* shard (persisted to but not yet flushed) is
//!   never evicted — eviction would lose verdicts and specs.  When every
//!   resident shard is dirty the cache overflows its budget instead
//!   (counted in [`ShardCacheStats::pin_overflows`]) until the next
//!   flush unpins them.
//! * **Determinism.**  Eviction only ever drops *clean* shards, whose
//!   bytes are on disk or queued for the writer; a re-load decodes the
//!   same artifact, so cache pressure can change timings and I/O counts
//!   but never results.
//! * **Write-behind.**  At most one batch of files is in flight: a flush
//!   that finds the previous batch still being written waits for it (a
//!   `shards/wait` span).  The writer's files are drained — all queued
//!   files written — before any shard is read from disk, before
//!   [`HotShards::flush`] or [`HotShards::flush_namespace`] returns (so
//!   before `run_with_store` returns, and before the daemon's explicit
//!   `flush`, `close` and `shutdown` reply), and when the cache is
//!   dropped.  A failed write comes back as a `store` error from the next
//!   flush point of its namespace; the writes themselves show as
//!   `shards/write` spans on the writer's own lane.
//! * **Namespace isolation.**  Entries are keyed by `(namespace,
//!   closure)` and each namespace fronts its own directory, so two
//!   sessions never read each other's shards — but they compete for the
//!   *same* LRU budget: a hot session can evict a cold session's clean
//!   shards (shared-budget fairness is recency, not reservation), which
//!   by the determinism invariant never changes either session's results.
//!
//! Spec artifacts are cached as raw JSON documents, not decoded
//! [`SpecArtifact`]s: decoding resolves method symbols against a specific
//! program, and the daemon's program changes on every edit.  Decoding per
//! splice (cheap) keeps the cache program-independent.

use atlas_learn::VerdictCache;
use atlas_obs::{ArgValue, Lane, Recorder};
use atlas_store::{
    atomic_write, load_cache, load_document, shard_entry, CacheArtifact, CacheProvenance, Json,
    SpecArtifact, StoreError,
};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// The observability lane all hot-shard events drain to (the daemon's
/// "shards" track; lane 1 is the service request track).
const SHARDS_LANE: u64 = 2;

/// The lane the background writer records its file writes on.
const WRITER_LANE: u64 = 3;

/// The root namespace: the store root itself — the daemon's default
/// session, and the only namespace of `run_with_store`'s private cache.
/// Always registered, never retired.
pub const ROOT_NAMESPACE: usize = 0;

/// Counters of the hot shard cache (shared across all namespaces).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardCacheStats {
    /// Shard lookups answered from memory.
    pub hits: usize,
    /// Shard lookups that went to disk.
    pub misses: usize,
    /// Clean shards dropped to stay within the budget.
    pub evictions: usize,
    /// Times the budget could not be enforced because every resident
    /// shard was dirty (pinned).
    pub pin_overflows: usize,
    /// Flush passes performed.
    pub flushes: usize,
    /// Dirty shards written across all flush passes.
    pub flushed_shards: usize,
}

/// One resident closure shard.
struct HotEntry {
    /// The namespace the shard belongs to (an index into the registry).
    ns: usize,
    closure: u64,
    /// The shard's spec document (`atlas-spec/1`), raw.  `None` when the
    /// shard has no specs on disk yet.
    specs: Option<Json>,
    /// The shard's decoded verdict cache.  `None` when the shard has no
    /// cache file on disk yet.
    cache: Option<CacheArtifact>,
    /// Whether the entry holds changes the disk does not.
    dirty: bool,
}

/// One rendered shard file on its way to disk.
struct ShardFile {
    /// The namespace the file belongs to: a failed write is reported to
    /// this namespace's next flush point.
    ns: usize,
    path: PathBuf,
    text: String,
}

/// What the cache and its writer thread share.
#[derive(Default)]
struct WriterState {
    /// The batch handed over and not yet taken by the writer.
    queued: Option<Vec<ShardFile>>,
    /// Whether the writer is writing the batch it took.
    writing: bool,
    /// Per namespace, the first failed write not yet reported.
    failed: Vec<(usize, StoreError)>,
    /// Set when the cache is dropped: the writer exits once idle.
    closing: bool,
}

/// The background shard writer: one thread, spawned on the first flush,
/// writing one batch of rendered files at a time with `atomic_write`.
struct ShardWriter {
    shared: Arc<(Mutex<WriterState>, Condvar)>,
    thread: Option<JoinHandle<()>>,
}

impl ShardWriter {
    fn new() -> ShardWriter {
        ShardWriter {
            shared: Arc::new((Mutex::new(WriterState::default()), Condvar::new())),
            thread: None,
        }
    }

    /// Blocks until no batch is queued or being written, recording the
    /// wait as a `shards/wait` span on `lane`.
    fn idle(&self, lane: &mut Lane) -> MutexGuard<'_, WriterState> {
        let start = lane.begin();
        let (lock, wake) = &*self.shared;
        let mut state = lock.lock().expect("shard writer lock poisoned");
        while state.queued.is_some() || state.writing {
            state = wake.wait(state).expect("shard writer lock poisoned");
        }
        lane.end(start, "shards", "wait", Vec::new());
        state
    }

    /// Takes the first unreported failed write of namespace `ns` (of any
    /// namespace when `None`).
    fn take_failure(state: &mut WriterState, ns: Option<usize>) -> Option<StoreError> {
        let i = state
            .failed
            .iter()
            .position(|(failed, _)| ns.is_none_or(|ns| ns == *failed))?;
        Some(state.failed.remove(i).1)
    }

    /// Hands `files` to the writer thread, spawning it on first use.  The
    /// caller has waited for the previous batch ([`ShardWriter::idle`]),
    /// so at most one is ever in flight.  Should the thread not start, the
    /// batch is written here.
    fn submit(&mut self, files: Vec<ShardFile>, recorder: &Recorder) {
        if self.thread.is_none() {
            let shared = Arc::clone(&self.shared);
            let recorder = recorder.clone();
            self.thread = std::thread::Builder::new()
                .name("atlas-shard-writer".to_string())
                .spawn(move || write_loop(&shared, &recorder))
                .ok();
        }
        let (lock, wake) = &*self.shared;
        let mut state = lock.lock().expect("shard writer lock poisoned");
        debug_assert!(state.queued.is_none() && !state.writing);
        if self.thread.is_some() {
            state.queued = Some(files);
            wake.notify_all();
        } else {
            record_failures(&mut state, write_batch(files, recorder));
        }
    }
}

impl Drop for ShardWriter {
    /// Writes whatever is still queued, then stops the thread.  A failure
    /// of those last writes has no flush point left to report it: flush
    /// before dropping the cache.
    fn drop(&mut self) {
        let Some(thread) = self.thread.take() else {
            return;
        };
        let (lock, wake) = &*self.shared;
        // Setting a flag leaves the state valid whatever a panicking
        // holder did, and a drop must not panic.
        lock.lock().unwrap_or_else(PoisonError::into_inner).closing = true;
        wake.notify_all();
        let _ = thread.join();
    }
}

/// The writer thread: takes one batch at a time until the cache closes.
fn write_loop(shared: &(Mutex<WriterState>, Condvar), recorder: &Recorder) {
    let (lock, wake) = shared;
    let mut state = lock.lock().expect("shard writer lock poisoned");
    loop {
        if let Some(files) = state.queued.take() {
            state.writing = true;
            drop(state);
            let failures = write_batch(files, recorder);
            state = lock.lock().expect("shard writer lock poisoned");
            state.writing = false;
            record_failures(&mut state, failures);
            wake.notify_all();
        } else if state.closing {
            return;
        } else {
            state = wake.wait(state).expect("shard writer lock poisoned");
        }
    }
}

/// Writes one batch in order, as a `shards/write` span on the writer's
/// lane; returns the failed writes.
fn write_batch(files: Vec<ShardFile>, recorder: &Recorder) -> Vec<(usize, StoreError)> {
    let mut lane = recorder.lane(WRITER_LANE);
    let start = lane.begin();
    let count = files.len();
    let failures = files
        .into_iter()
        .filter_map(|file| {
            atomic_write(&file.path, &file.text)
                .err()
                .map(|e| (file.ns, e))
        })
        .collect();
    lane.end(
        start,
        "shards",
        "write",
        vec![("files", ArgValue::from(count))],
    );
    failures
}

/// Keeps the first failure per namespace until a flush point reports it.
fn record_failures(state: &mut WriterState, failures: Vec<(usize, StoreError)>) {
    for (ns, error) in failures {
        if !state.failed.iter().any(|(failed, _)| *failed == ns) {
            state.failed.push((ns, error));
        }
    }
}

/// An LRU cache of closure shards over a store root and its session
/// namespaces.  See the [module docs](self) for the invariants.
pub struct HotShards {
    /// The directory each namespace fronts, by id; id 0 is always the
    /// store root.  Retired namespaces (closed sessions) keep their slot,
    /// so ids never shift.
    namespaces: Vec<PathBuf>,
    budget: usize,
    /// LRU order: least-recently used first, most-recently used last.
    entries: Vec<HotEntry>,
    stats: ShardCacheStats,
    /// Observability handle; mirrors [`ShardCacheStats`] into the shared
    /// `shards.*` counter vocabulary and emits load/evict/flush events.
    recorder: Recorder,
    /// Writes flushed shards to disk off the caller's thread.
    writer: ShardWriter,
}

impl HotShards {
    /// A hot cache over `root` keeping at most `budget` shards resident
    /// across all namespaces (a zero budget is promoted to one — the
    /// cache always holds the shard it is actively serving).
    pub fn new(root: &Path, budget: usize) -> HotShards {
        HotShards {
            namespaces: vec![root.to_path_buf()],
            budget: budget.max(1),
            entries: Vec::new(),
            stats: ShardCacheStats::default(),
            recorder: Recorder::off(),
            writer: ShardWriter::new(),
        }
    }

    /// Attaches an observability recorder (see `atlas-obs`): every
    /// counter in [`ShardCacheStats`] is mirrored as a `shards.*` metric,
    /// and shard loads / evictions / flushes emit trace events.
    pub fn with_recorder(mut self, recorder: Recorder) -> HotShards {
        self.recorder = recorder;
        self
    }

    /// Registers a new namespace over `dir` and returns its stable id.
    /// The directory is owned by one session; the returned id is what the
    /// session passes to [`Engine::run_with_shards`](crate::Engine::run_with_shards).
    pub fn add_namespace(&mut self, dir: PathBuf) -> usize {
        self.namespaces.push(dir);
        self.namespaces.len() - 1
    }

    /// Retires a namespace (a closed session): its resident entries are
    /// dropped — flush first, or dirty shards are lost — and its id stays
    /// allocated so other namespaces' ids never shift.  The root
    /// namespace cannot be retired.
    pub fn retire_namespace(&mut self, ns: usize) {
        if ns != ROOT_NAMESPACE {
            self.entries.retain(|e| e.ns != ns);
        }
    }

    /// The cache counters so far.
    pub fn stats(&self) -> ShardCacheStats {
        self.stats
    }

    /// Shards currently resident (across all namespaces).
    pub fn resident(&self) -> usize {
        self.entries.len()
    }

    /// Resident shards holding unflushed changes.
    pub fn dirty(&self) -> usize {
        self.entries.iter().filter(|e| e.dirty).count()
    }

    /// Makes the shard for `(ns, closure)` resident (loading both files
    /// from the namespace directory on a miss) and returns its index —
    /// always the *last* slot, because residency is an LRU touch.
    fn ensure(&mut self, ns: usize, closure: u64) -> Result<usize, StoreError> {
        if let Some(i) = self
            .entries
            .iter()
            .position(|e| e.ns == ns && e.closure == closure)
        {
            self.stats.hits += 1;
            self.recorder.count("shards.hits", 1);
            let entry = self.entries.remove(i);
            self.entries.push(entry);
            return Ok(self.entries.len() - 1);
        }
        self.stats.misses += 1;
        self.recorder.count("shards.misses", 1);
        let mut lane = self.recorder.lane(SHARDS_LANE);
        let load_start = lane.begin();
        // The shard's files may still be queued: disk is read only once
        // the writer is idle.
        drop(self.writer.idle(&mut lane));
        let paths = shard_entry(&self.namespaces[ns], closure);
        let specs = if paths.specs.exists() {
            Some(load_document(&paths.specs)?)
        } else {
            None
        };
        let cache = if paths.cache.exists() {
            Some(load_cache(&paths.cache)?)
        } else {
            None
        };
        self.entries.push(HotEntry {
            ns,
            closure,
            specs,
            cache,
            dirty: false,
        });
        lane.end(
            load_start,
            "shards",
            "load",
            vec![("closure", ArgValue::Hex(closure))],
        );
        drop(lane);
        self.enforce_budget(Some((ns, closure)));
        Ok(self.entries.len() - 1)
    }

    /// Evicts least-recently-used *clean* shards until the budget holds,
    /// never touching the shard named by `protect` (the one currently
    /// being served).  Dirty shards are pinned; when pins alone exceed
    /// the budget the cache overflows and the overflow is counted.
    fn enforce_budget(&mut self, protect: Option<(usize, u64)>) {
        while self.entries.len() > self.budget {
            match self
                .entries
                .iter()
                .position(|e| !e.dirty && Some((e.ns, e.closure)) != protect)
            {
                Some(i) => {
                    let evicted = self.entries.remove(i);
                    self.stats.evictions += 1;
                    self.recorder.count("shards.evictions", 1);
                    self.recorder.lane(SHARDS_LANE).instant(
                        "shards",
                        "evict",
                        vec![("closure", ArgValue::Hex(evicted.closure))],
                    );
                }
                None => {
                    self.stats.pin_overflows += 1;
                    self.recorder.count("shards.pin_overflows", 1);
                    self.recorder.lane(SHARDS_LANE).instant(
                        "shards",
                        "pin-overflow",
                        vec![("resident", ArgValue::from(self.entries.len()))],
                    );
                    return;
                }
            }
        }
    }

    /// Writes every dirty shard back to disk and returns once the writes
    /// are done: [`HotShards::write_behind`] over every namespace, then a
    /// wait for the writer.  Returns how many shards were written.
    ///
    /// # Errors
    /// Returns the `atlas-store` error of the first failed write not yet
    /// reported — of this flush or of an earlier write-behind one.
    pub fn flush(&mut self) -> Result<usize, StoreError> {
        self.flush_filter(None, true)
    }

    /// [`HotShards::flush`], restricted to one namespace — the session
    /// half of the `flush` op.  Reports only that namespace's failed
    /// writes.
    pub fn flush_namespace(&mut self, ns: usize) -> Result<usize, StoreError> {
        self.flush_filter(Some(ns), true)
    }

    /// The write-behind flush of namespace `ns`: renders its dirty shards
    /// — verdict cache, then specs — in `(namespace, closure)` order
    /// (deterministic file history), marks them clean, hands the files to
    /// the background writer and re-enforces the budget, without waiting
    /// for the writes.  At most one batch is in flight: a flush that finds
    /// the previous one still being written waits for it (a `shards/wait`
    /// span).  Returns how many shards were handed over.
    ///
    /// # Errors
    /// Returns the first failed write of `ns` that no flush point has
    /// reported yet, before rendering anything: the dirty shards then
    /// stay dirty (and pinned) for a later flush.  A shard whose write
    /// fails is clean in memory but not on disk; once evicted, the next
    /// run that needs it finds no shard and re-learns it (forced dirty).
    pub fn write_behind(&mut self, ns: usize) -> Result<usize, StoreError> {
        self.flush_filter(Some(ns), false)
    }

    fn flush_filter(&mut self, only: Option<usize>, drain: bool) -> Result<usize, StoreError> {
        self.stats.flushes += 1;
        self.recorder.count("shards.flushes", 1);
        let mut lane = self.recorder.lane(SHARDS_LANE);
        let flush_start = lane.begin();
        let failure = ShardWriter::take_failure(&mut self.writer.idle(&mut lane), only);
        let result = match failure {
            Some(error) => Err(error),
            None => {
                let written = self.hand_over(only);
                let failure = drain
                    .then(|| ShardWriter::take_failure(&mut self.writer.idle(&mut lane), only))
                    .flatten();
                failure.map_or(Ok(written), Err)
            }
        };
        lane.end(
            flush_start,
            "shards",
            "flush",
            vec![("written", ArgValue::from(*result.as_ref().unwrap_or(&0)))],
        );
        drop(lane);
        self.enforce_budget(None);
        result
    }

    /// Renders the dirty shards of `only` (of every namespace when
    /// `None`), marks them clean and hands the files to the idle writer;
    /// returns how many shards were handed over.
    fn hand_over(&mut self, only: Option<usize>) -> usize {
        let mut dirty: Vec<usize> = (0..self.entries.len())
            .filter(|&i| self.entries[i].dirty && only.is_none_or(|ns| self.entries[i].ns == ns))
            .collect();
        dirty.sort_by_key(|&i| (self.entries[i].ns, self.entries[i].closure));
        let mut files = Vec::with_capacity(2 * dirty.len());
        for &i in &dirty {
            let entry = &mut self.entries[i];
            let paths = shard_entry(&self.namespaces[entry.ns], entry.closure);
            if let Some(cache) = &entry.cache {
                let text = cache.encode().render();
                files.push(ShardFile {
                    ns: entry.ns,
                    path: paths.cache,
                    text,
                });
            }
            if let Some(specs) = &entry.specs {
                let text = specs.render();
                files.push(ShardFile {
                    ns: entry.ns,
                    path: paths.specs,
                    text,
                });
            }
            entry.dirty = false;
        }
        let written = dirty.len();
        self.stats.flushed_shards += written;
        self.recorder.count("shards.flushed_shards", written as u64);
        if !files.is_empty() {
            self.writer.submit(files, &self.recorder);
        }
        written
    }

    /// The decoded spec artifact of the shard for `closure` in namespace
    /// `ns`, or `None` when the shard has no specs yet (the cluster is
    /// then demoted to a re-run).  Method symbols are resolved against
    /// `program`.
    pub(crate) fn load_specs(
        &mut self,
        ns: usize,
        closure: u64,
        program: &atlas_ir::Program,
    ) -> Result<Option<SpecArtifact>, StoreError> {
        let i = self.ensure(ns, closure)?;
        let Some(doc) = &self.entries[i].specs else {
            return Ok(None);
        };
        let paths = shard_entry(&self.namespaces[ns], closure);
        SpecArtifact::decode(doc, program)
            .map(Some)
            .map_err(|e| StoreError::schema(&paths.specs, e))
    }

    /// How many verdicts the shard for `closure` in namespace `ns` holds
    /// under the key context `context` (`CacheProvenance::context`) — the
    /// count reported as "spliced verdicts" for a clean cluster.  A
    /// missing shard holds `0`.
    pub(crate) fn count_verdicts(
        &mut self,
        ns: usize,
        closure: u64,
        context: u64,
    ) -> Result<usize, StoreError> {
        let i = self.ensure(ns, closure)?;
        Ok(self.entries[i]
            .cache
            .as_ref()
            .filter(|cache| cache.provenance.context == context)
            .map_or(0, |cache| cache.entries.len()))
    }

    /// Persists one re-ran cluster into the shard for `closure` in
    /// namespace `ns`: its verdicts (`fresh`, filtered by `provenance`'s
    /// context) and `specs` replace whatever the shard held, and the shard
    /// stays dirty until the next flush.  Both halves are replaced, so
    /// nothing is read: a resident shard is touched, any other becomes
    /// resident as a fresh entry, and neither counts as a lookup.
    pub(crate) fn persist_cluster(
        &mut self,
        ns: usize,
        closure: u64,
        fresh: &VerdictCache,
        provenance: CacheProvenance,
        specs: &SpecArtifact,
        program: &atlas_ir::Program,
    ) -> Result<(), StoreError> {
        let paths = shard_entry(&self.namespaces[ns], closure);
        let doc = specs
            .encode(program)
            .map_err(|e| StoreError::schema(&paths.specs, e))?;
        let entry = HotEntry {
            ns,
            closure,
            specs: Some(doc),
            cache: Some(CacheArtifact::from_cache(fresh, provenance)),
            dirty: true,
        };
        match self
            .entries
            .iter()
            .position(|e| e.ns == ns && e.closure == closure)
        {
            Some(i) => {
                self.entries.remove(i);
                self.entries.push(entry);
            }
            None => {
                self.entries.push(entry);
                self.enforce_budget(Some((ns, closure)));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("atlas-hot-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn missing_shards_resolve_to_empty_without_touching_disk_layout() {
        let root = scratch("missing");
        let mut hot = HotShards::new(&root, 2);
        assert_eq!(hot.count_verdicts(ROOT_NAMESPACE, 7, 1).unwrap(), 0);
        assert_eq!(hot.resident(), 1);
        assert_eq!(hot.stats().misses, 1);
        // The second lookup is a hit.
        assert_eq!(hot.count_verdicts(ROOT_NAMESPACE, 7, 1).unwrap(), 0);
        assert_eq!(hot.stats().hits, 1);
        assert!(!root.exists(), "reads must not create the store root");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn clean_shards_evict_in_lru_order() {
        let root = scratch("lru");
        let mut hot = HotShards::new(&root, 2);
        hot.count_verdicts(ROOT_NAMESPACE, 1, 0).unwrap();
        hot.count_verdicts(ROOT_NAMESPACE, 2, 0).unwrap();
        hot.count_verdicts(ROOT_NAMESPACE, 1, 0).unwrap(); // touch 1: now 2 is the LRU
        hot.count_verdicts(ROOT_NAMESPACE, 3, 0).unwrap(); // evicts 2
        assert_eq!(hot.resident(), 2);
        assert_eq!(hot.stats().evictions, 1);
        hot.count_verdicts(ROOT_NAMESPACE, 1, 0).unwrap(); // still resident: a hit
        assert_eq!(hot.stats().hits, 2);
        hot.count_verdicts(ROOT_NAMESPACE, 2, 0).unwrap(); // was evicted: a miss again
        assert_eq!(hot.stats().misses, 4);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn namespaces_do_not_alias_and_share_the_budget() {
        let root = scratch("ns");
        let mut hot = HotShards::new(&root, 2);
        let ns = hot.add_namespace(root.join("sessions").join("a"));
        // The same closure id in two namespaces is two distinct entries.
        hot.count_verdicts(ROOT_NAMESPACE, 7, 0).unwrap();
        hot.count_verdicts(ns, 7, 0).unwrap();
        assert_eq!(hot.resident(), 2);
        assert_eq!(hot.stats().misses, 2);
        // A third shard — in either namespace — evicts across namespaces:
        // the budget is shared, the oldest clean shard goes first.
        hot.count_verdicts(ns, 8, 0).unwrap();
        assert_eq!(hot.resident(), 2);
        assert_eq!(hot.stats().evictions, 1);
        hot.count_verdicts(ROOT_NAMESPACE, 7, 0).unwrap(); // the root shard was evicted
        assert_eq!(hot.stats().misses, 4);
        // Retiring the namespace drops its entries, not the root's.
        hot.retire_namespace(ns);
        assert_eq!(hot.resident(), 1);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn persisting_over_a_shard_on_disk_reads_nothing_and_replaces_both_halves() {
        let program = atlas_ir::Program::new();
        let provenance = CacheProvenance::for_closure(
            0xab,
            7,
            atlas_synth::InitStrategy::Instantiate,
            atlas_interp::ExecLimits::for_unit_tests(),
        );
        // A cluster's persisted halves: `verdicts` under the provenance's
        // context, and specs stamped with `extraction`.
        let halves = |verdicts: &[(u64, bool)], extraction: (usize, usize)| {
            let mut cache = VerdictCache::new();
            for &(word, verdict) in verdicts {
                let key = atlas_learn::VerdictKey::from_parts(provenance.context, word, !word);
                cache.insert(key, verdict);
            }
            let specs = SpecArtifact {
                fingerprint: 7,
                extraction,
                clusters: Vec::new(),
            };
            (cache, specs)
        };
        let persist = |root: &Path, verdicts: &[(u64, bool)], extraction| {
            let (cache, specs) = halves(verdicts, extraction);
            let mut hot = HotShards::new(root, 4);
            hot.persist_cluster(ROOT_NAMESPACE, 7, &cache, provenance, &specs, &program)
                .unwrap();
            hot
        };
        let files = |root: &Path| {
            let paths = shard_entry(root, 7);
            (
                std::fs::read(paths.cache).unwrap(),
                std::fs::read(paths.specs).unwrap(),
            )
        };

        // An earlier run left both files of the shard on disk.
        let root = scratch("persist");
        persist(&root, &[(1, true), (2, false)], (4, 16))
            .flush()
            .unwrap();
        let old = files(&root);

        // A re-run persists over them: no lookup, no read.
        let fresh = [(3, true)];
        let mut hot = persist(&root, &fresh, (8, 64));
        assert_eq!(hot.stats(), ShardCacheStats::default());
        assert_eq!((hot.resident(), hot.dirty()), (1, 1));
        // The resident entry already holds the new verdicts: a hit.
        assert_eq!(
            hot.count_verdicts(ROOT_NAMESPACE, 7, provenance.context)
                .unwrap(),
            1
        );
        assert_eq!((hot.stats().hits, hot.stats().misses), (1, 0));
        hot.flush().unwrap();

        // Both halves are what a root that never held the shard gets.
        let clean = scratch("persist-clean");
        persist(&clean, &fresh, (8, 64)).flush().unwrap();
        let replaced = files(&root);
        assert_eq!(replaced, files(&clean));
        assert_ne!(replaced.0, old.0, "the verdict half was replaced");
        assert_ne!(replaced.1, old.1, "the specs half was replaced");
        for dir in [root, clean] {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}
