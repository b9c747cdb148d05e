//! The resident daemon: a table of independent sessions over one shared
//! hot shard cache, plus the pristine base state new sessions seed from.
//!
//! `atlas-serve/2` makes the daemon multi-session.  Every request is
//! routed to a session — the one named by its `session` field, or the
//! reserved **default session** when the field is absent, which is how
//! unmodified `atlas-serve/1` clients keep working unchanged:
//!
//! * **Startup** builds the configured library and runs the store-backed
//!   run (`Engine::run_with_shards`) against its own provenance in the
//!   *root namespace* of the daemon's [`HotShards`] — the shard store
//!   `Engine::run_with_store` writes through too, so a flushed daemon
//!   root holds what a batch run writes.  Over a warm store every
//!   cluster splices (zero executions); over a cold store every cluster
//!   is forced-dirty, runs, and seeds the store — so a restart is exactly
//!   a cache-warming, never a semantic event.  The post-flush shard files
//!   are captured byte-for-byte as the `BaseState` seed set.
//! * **`open`** registers a new session: a fresh namespace under
//!   `<store>/sessions/<name>/` seeded with the captured base shard
//!   bytes, plus clones of the base program, interface, provenance and
//!   specs document, and the base content index and compiled image,
//!   shared until the session's first edit.  A session opened at any point therefore behaves
//!   byte-identically to the same session on a freshly-started daemon —
//!   edits in other sessions (including the default one) can never leak
//!   into it.
//! * **Edits** are per-session state transitions (see the `session`
//!   module); different sessions' edits run
//!   concurrently on the service worker pool, each with its `inner`
//!   share of the global [`ThreadBudget`].
//! * **`close`** flushes the session's namespace, retires it from the
//!   hot cache, and forgets the session.  The default session cannot be
//!   closed.
//!
//! The daemon is internally locked (`handle` takes `&self`), with one
//! lock-order rule — session state, then session table, then hot cache —
//! so the service can call it from many workers at once.  The
//! observational-equivalence invariant of /1 still holds per session:
//! after any edit sequence, a session's `specs` artifact is
//! byte-identical to a cold batch `Engine` run over the same edited
//! program (`tests/serve_equivalence.rs`, `tests/serve_sessions.rs`).

use crate::config::ServeConfig;
use crate::proto::{
    Envelope, ErrorCode, Request, Response, WireError, WIRE_SCHEMA, WIRE_SCHEMA_V2,
};
use crate::session::{
    store_error, SessionState, SessionStats, REQUEST_LANE, SESSION_LANE_STRIDE,
    SESSION_ORDINAL_STRIDE,
};
use atlas_apps::RegistryError;
use atlas_core::{
    AtlasConfig, BudgetSplit, CompiledProgram, Engine, HotShards, RunProvenance, StoreError,
    ThreadBudget, EXTRACTION, ROOT_NAMESPACE,
};
use atlas_ir::{ClassId, ContentIndex, LibraryInterface, Program};
use atlas_obs::{ArgValue, Recorder};
use atlas_store::{atomic_write, hex64_string, shard_entry, Json};
use std::fmt;
use std::sync::{Arc, Mutex};

/// The name of the session that requests without a `session` field — in
/// particular every `atlas-serve/1` request — are routed to.
pub const DEFAULT_SESSION: &str = "default";

/// Worker-pool size when `ServeConfig::workers` is 0 ("auto"): enough to
/// overlap a few sessions, still clamped by the thread budget (a budget
/// of 1 always yields a single /1-style FIFO worker).
const DEFAULT_WORKERS: usize = 4;

/// An error raised while constructing or persisting the daemon.
#[derive(Debug)]
pub enum ServeError {
    /// The configured library name is not in the registry.
    Registry(RegistryError),
    /// A store operation failed.
    Store(StoreError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Registry(e) => write!(f, "{e}"),
            ServeError::Store(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<RegistryError> for ServeError {
    fn from(e: RegistryError) -> ServeError {
        ServeError::Registry(e)
    }
}

impl From<StoreError> for ServeError {
    fn from(e: StoreError) -> ServeError {
        ServeError::Store(e)
    }
}

/// The pristine post-startup state every new session is cloned from.
struct BaseState {
    program: Program,
    interface: LibraryInterface,
    /// The start-up engine's content index of `program`, shared by every
    /// session until its first edit.
    index: Arc<ContentIndex>,
    /// The start-up engine's compilation of `program`, shared the same
    /// way.
    compiled: Arc<CompiledProgram>,
    provenance: RunProvenance,
    specs_doc: Json,
    /// The raw shard *file bytes* captured after the startup flush, one
    /// `(closure, cache file, specs file)` triple per cluster.  Seeding
    /// a namespace from bytes (not from live state) guarantees a fresh
    /// session starts from exactly what a fresh daemon would read, no
    /// matter what the default session has done since startup.
    seeds: Vec<(u64, Option<String>, Option<String>)>,
}

/// The open sessions, by wire name.  A `Vec` keeps `stats` output in
/// open order; session counts stay far too small for map lookups to
/// matter.
struct SessionTable {
    sessions: Vec<(String, Arc<Mutex<SessionState>>)>,
    /// Sessions opened since startup (the ordinal source; the default
    /// session is ordinal 0 and not counted).
    opened: u64,
    /// Sessions closed since startup.
    closed: u64,
}

fn valid_session_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
}

/// The resident inference service state.  See the [module docs](self).
pub struct Daemon {
    config: ServeConfig,
    /// The configured clusters; ids stay valid across edits because the
    /// mutation primitives are append-only.
    clusters: Vec<Vec<ClassId>>,
    /// The resolved global thread budget.
    budget_total: usize,
    /// How the budget divides: `outer` pool workers × `inner` engine
    /// threads per in-flight edit.
    split: BudgetSplit,
    base: BaseState,
    /// The hot shard cache over the store root and every session
    /// namespace — one shared LRU budget across all of them.
    hot: Mutex<HotShards>,
    sessions: Mutex<SessionTable>,
    /// The observability session: always at least the metrics level (the
    /// `stats` op serves its snapshot), tracing when the config asks.
    recorder: Recorder,
}

impl Daemon {
    /// Builds the configured library and warms up: one store-backed run
    /// against the daemon's own provenance, in the root namespace.  A
    /// warm store splices every cluster without executing anything; a
    /// cold store runs the full pipeline once and seeds it.
    /// Either way the store is flushed — and its shard bytes captured as
    /// the session seed set — before the daemon accepts requests.
    ///
    /// # Errors
    /// Returns [`ServeError`] on an unknown library name or a store
    /// failure.
    pub fn new(config: ServeConfig) -> Result<Daemon, ServeError> {
        let lib = atlas_apps::build_library(&config.library, config.synth_seed)?;
        let interface = LibraryInterface::from_program(&lib.program);
        let budget = ThreadBudget::resolve(config.threads);
        let requested = if config.workers == 0 {
            DEFAULT_WORKERS
        } else {
            config.workers
        };
        let split = budget.split_workers(requested);
        let recorder = if config.trace {
            Recorder::tracing()
        } else {
            Recorder::metrics()
        };
        // The resolved split, visible in every `atlas-metrics/1`
        // snapshot (and therefore in `stats` responses and bench
        // reports) without a round-trip to `hello`.
        recorder.count("serve.budget.total", budget.total() as u64);
        recorder.count("serve.budget.outer_workers", split.outer as u64);
        recorder.count("serve.budget.inner_threads", split.inner as u64);
        let hot = Mutex::new(
            HotShards::new(&config.store, config.shard_budget).with_recorder(recorder.clone()),
        );
        let atlas_config = AtlasConfig {
            samples_per_cluster: config.samples,
            clusters: lib.clusters.clone(),
            // Startup has the machine to itself: no concurrent edits
            // yet, so the whole budget goes inner.
            num_threads: budget.total(),
            ..AtlasConfig::default()
        };
        let engine = Engine::new(&lib.program, &interface, atlas_config)
            .with_recorder(recorder.with_lane_base(SESSION_LANE_STRIDE));
        let provenance = engine.run_provenance();
        let outcome = engine.run_with_shards(&provenance, &hot, ROOT_NAMESPACE, EXTRACTION)?;
        let specs_doc = outcome
            .spec_artifact(&lib.program)
            .encode(&lib.program)
            .map_err(|e| StoreError::schema(&config.store, e))?;
        let index = Arc::clone(engine.content_index());
        let compiled = engine.compiled_program();
        drop(engine);
        hot.lock().expect("hot shard cache lock poisoned").flush()?;
        // Capture the post-startup shard bytes: the seed set of every
        // session opened later.  A missing file (nothing learned for a
        // cluster) seeds as "absent", which is exactly what a fresh
        // daemon would see.
        let seeds = provenance
            .clusters
            .iter()
            .map(|cluster| {
                let entry = shard_entry(&config.store, cluster.closure);
                (
                    cluster.closure,
                    std::fs::read_to_string(&entry.cache).ok(),
                    std::fs::read_to_string(&entry.specs).ok(),
                )
            })
            .collect();
        let base = BaseState {
            program: lib.program.clone(),
            interface: interface.clone(),
            index: Arc::clone(&index),
            compiled: Arc::clone(&compiled),
            provenance: provenance.clone(),
            specs_doc: specs_doc.clone(),
            seeds,
        };
        let default_session = SessionState {
            name: DEFAULT_SESSION.to_string(),
            ns: ROOT_NAMESPACE,
            ordinal: 0,
            program: lib.program,
            interface,
            index,
            compiled,
            provenance,
            specs_doc,
            generation: 0,
            edits_since_flush: 0,
            stats: SessionStats::default(),
        };
        Ok(Daemon {
            clusters: lib.clusters,
            budget_total: budget.total(),
            split,
            base,
            hot,
            sessions: Mutex::new(SessionTable {
                sessions: vec![(
                    DEFAULT_SESSION.to_string(),
                    Arc::new(Mutex::new(default_session)),
                )],
                opened: 0,
                closed: 0,
            }),
            recorder,
            config,
        })
    }

    /// The daemon's observability handle — clone it to export the Chrome
    /// trace or a metrics snapshot after the daemon is gone.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// The default session's edit count since startup.
    pub fn generation(&self) -> u64 {
        self.with_default(|s| s.generation)
    }

    /// The default session's current library fingerprint.
    pub fn fingerprint(&self) -> u64 {
        self.with_default(|s| s.provenance.library)
    }

    /// The configuration the daemon was built with.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The resolved service-pool size (`outer` of the budget split).
    pub fn workers(&self) -> usize {
        self.split.outer
    }

    /// Engine threads each in-flight edit uses (`inner` of the split).
    pub fn inner_threads(&self) -> usize {
        self.split.inner
    }

    fn with_default<T>(&self, f: impl FnOnce(&SessionState) -> T) -> T {
        let state = self
            .lookup(DEFAULT_SESSION)
            .expect("the default session is never closed");
        let session = state.lock().expect("session state lock poisoned");
        f(&session)
    }

    fn lookup(&self, name: &str) -> Option<Arc<Mutex<SessionState>>> {
        let table = self.sessions.lock().expect("session table lock poisoned");
        table
            .sessions
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, state)| Arc::clone(state))
    }

    /// Serves one request.  Never panics: every failure mode maps to a
    /// structured error response.  Responses echo the session they were
    /// served by iff the request addressed one explicitly (or opened
    /// one), which is also what selects the `atlas-serve/2` frame stamp
    /// — plain /1 traffic gets byte-identical /1 responses.
    pub fn handle(&self, envelope: &Envelope) -> Response {
        let id = envelope.id.clone();
        self.recorder.count("serve.requests", 1);
        let (result, echo) = match &envelope.request {
            Request::Open | Request::Close | Request::Shutdown => {
                // Control ops record on the base request lane; they are
                // not part of any session's stripe.
                let mut lane = self.recorder.lane(REQUEST_LANE);
                let span = lane.begin();
                let out = match &envelope.request {
                    Request::Open => match self.open(envelope.session.as_deref()) {
                        Ok((name, body)) => (Ok(body), Some(name)),
                        Err(error) => (Err(error), envelope.session.clone()),
                    },
                    Request::Close => (
                        self.close(envelope.session.as_deref()),
                        envelope.session.clone(),
                    ),
                    _ => (
                        Ok(Json::obj().set("stopping", true)),
                        envelope.session.clone(),
                    ),
                };
                lane.end(
                    span,
                    "serve",
                    "request",
                    vec![("op", ArgValue::from(envelope.request.op()))],
                );
                out
            }
            _ => (self.on_session(envelope), envelope.session.clone()),
        };
        let mut response = match result {
            Ok(result) => Response::ok(id, result),
            Err(error) => {
                // One counter per protocol error class, so a daemon that
                // is rejecting traffic is diagnosable from `stats` alone.
                self.recorder
                    .count(&format!("serve.errors.{}", error.code.as_str()), 1);
                Response::err(id, error)
            }
        };
        response.session = echo;
        response
    }

    /// Serves a session-scoped op inside the addressed session's lock.
    /// The request span lands on the session's lane stripe, so ordinal 0
    /// (the default session) reproduces the /1 trace layout exactly.
    fn on_session(&self, envelope: &Envelope) -> Result<Json, WireError> {
        let name = envelope.session.as_deref().unwrap_or(DEFAULT_SESSION);
        let state = self.lookup(name).ok_or_else(|| {
            WireError::new(
                ErrorCode::UnknownSession,
                format!("no open session named '{name}'"),
            )
        })?;
        let mut session = state.lock().expect("session state lock poisoned");
        let mut lane = self
            .recorder
            .with_lane_base(session.ordinal * SESSION_ORDINAL_STRIDE)
            .lane(REQUEST_LANE);
        let span = lane.begin();
        let result = match &envelope.request {
            Request::Hello => Ok(self.hello(&session)),
            Request::Ping => Ok(Json::obj()
                .set("pong", true)
                .set("generation", session.generation as i64)),
            Request::Edit(edit) => session.apply_edit(
                edit,
                &self.config,
                &self.clusters,
                self.split.inner,
                &self.hot,
                &self.recorder,
            ),
            Request::Specs => {
                session.stats.queries += 1;
                Ok(Json::obj()
                    .set(
                        "library_fingerprint",
                        hex64_string(session.provenance.library),
                    )
                    .set("artifact", session.specs_doc.clone()))
            }
            Request::Fingerprint => {
                session.stats.queries += 1;
                Ok(Json::obj().set(
                    "library_fingerprint",
                    hex64_string(session.provenance.library),
                ))
            }
            Request::Stats => Ok(self.stats_json(&session)),
            Request::Flush => session
                .flush(&self.hot)
                .map(|written| Json::obj().set("flushed_shards", written))
                .map_err(store_error),
            // Routed in `handle`; unreachable here, but never panic.
            Request::Open | Request::Close | Request::Shutdown => Err(WireError::new(
                ErrorCode::BadRequest,
                "not a session-scoped op",
            )),
        };
        lane.end(
            span,
            "serve",
            "request",
            vec![("op", ArgValue::from(envelope.request.op()))],
        );
        result
    }

    /// Opens a session: validates or generates the name, registers a
    /// namespace, seeds it with the base shard bytes, and clones the
    /// base state.  Holds the table lock throughout so a generated name
    /// is never raced and a session is only visible once fully seeded.
    fn open(&self, requested: Option<&str>) -> Result<(String, Json), WireError> {
        let mut table = self.sessions.lock().expect("session table lock poisoned");
        if table.sessions.len() >= self.config.max_sessions {
            return Err(WireError::new(
                ErrorCode::BadRequest,
                format!("session limit reached ({} open)", table.sessions.len()),
            ));
        }
        let name = match requested {
            Some(name) => {
                if !valid_session_name(name) {
                    return Err(WireError::new(
                        ErrorCode::BadRequest,
                        "session names are 1-64 chars of [A-Za-z0-9_-]",
                    ));
                }
                if table.sessions.iter().any(|(n, _)| n == name) {
                    return Err(WireError::new(
                        ErrorCode::BadRequest,
                        format!("session '{name}' is already open"),
                    ));
                }
                name.to_string()
            }
            None => {
                // Generated names never collide with open sessions; skip
                // over client-claimed spellings.
                let mut k = table.opened + 1;
                loop {
                    let candidate = format!("s{k}");
                    if !table.sessions.iter().any(|(n, _)| n == &candidate) {
                        break candidate;
                    }
                    k += 1;
                }
            }
        };
        table.opened += 1;
        let ordinal = table.opened;
        let dir = self.config.store.join("sessions").join(&name);
        let ns = {
            let mut hot = self.hot.lock().expect("hot shard cache lock poisoned");
            hot.add_namespace(dir.clone())
        };
        for (closure, cache, specs) in &self.base.seeds {
            let entry = shard_entry(&dir, *closure);
            if let Some(text) = cache {
                atomic_write(&entry.cache, text).map_err(store_error)?;
            }
            if let Some(text) = specs {
                atomic_write(&entry.specs, text).map_err(store_error)?;
            }
        }
        let state = SessionState {
            name: name.clone(),
            ns,
            ordinal,
            program: self.base.program.clone(),
            interface: self.base.interface.clone(),
            index: Arc::clone(&self.base.index),
            compiled: Arc::clone(&self.base.compiled),
            provenance: self.base.provenance.clone(),
            specs_doc: self.base.specs_doc.clone(),
            generation: 0,
            edits_since_flush: 0,
            stats: SessionStats::default(),
        };
        table
            .sessions
            .push((name.clone(), Arc::new(Mutex::new(state))));
        let body = Json::obj()
            .set("session", name.as_str())
            .set(
                "library_fingerprint",
                hex64_string(self.base.provenance.library),
            )
            .set("generation", 0_i64)
            .set("seeded_shards", self.base.seeds.len());
        Ok((name, body))
    }

    /// Closes a session: flushes its namespace, drops it from the hot
    /// cache, and forgets it.  The default session cannot be closed.
    fn close(&self, requested: Option<&str>) -> Result<Json, WireError> {
        let name = requested
            .ok_or_else(|| WireError::new(ErrorCode::BadRequest, "'close' requires a 'session'"))?;
        if name == DEFAULT_SESSION {
            return Err(WireError::new(
                ErrorCode::BadRequest,
                "the default session cannot be closed",
            ));
        }
        let state = self.lookup(name).ok_or_else(|| {
            WireError::new(
                ErrorCode::UnknownSession,
                format!("no open session named '{name}'"),
            )
        })?;
        // The scheduler serializes per session, so nothing is in flight
        // for this session while close holds its lock.
        let mut session = state.lock().expect("session state lock poisoned");
        let written = session.flush(&self.hot).map_err(store_error)?;
        let ns = session.ns;
        drop(session);
        {
            let mut table = self.sessions.lock().expect("session table lock poisoned");
            if let Some(pos) = table.sessions.iter().position(|(n, _)| n == name) {
                table.sessions.remove(pos);
                table.closed += 1;
            }
        }
        self.hot
            .lock()
            .expect("hot shard cache lock poisoned")
            .retire_namespace(ns);
        Ok(Json::obj()
            .set("closed", name)
            .set("flushed_shards", written))
    }

    fn hello(&self, session: &SessionState) -> Json {
        Json::obj()
            .set("server", WIRE_SCHEMA)
            .set(
                "protocols",
                vec![Json::str(WIRE_SCHEMA), Json::str(WIRE_SCHEMA_V2)],
            )
            .set("default_session", DEFAULT_SESSION)
            .set("session", session.name.as_str())
            .set("library", self.config.library.as_str())
            .set(
                "library_fingerprint",
                hex64_string(session.provenance.library),
            )
            .set("generation", session.generation as i64)
            .set("clusters", self.clusters.len())
            .set("threads", self.budget_total)
            .set("workers", self.split.outer)
            .set("inner_threads", self.split.inner)
            .set("max_sessions", self.config.max_sessions)
            .set("shard_budget", self.config.shard_budget)
            .set("queue_capacity", self.config.queue_capacity)
            .set("flush_every", self.config.flush_every)
    }

    /// Persists every session's dirty shards now and resets all
    /// write-behind clocks.
    ///
    /// # Errors
    /// Returns the `atlas-store` error of the first failed write.
    pub fn flush(&self) -> Result<usize, StoreError> {
        let states: Vec<Arc<Mutex<SessionState>>> = {
            let table = self.sessions.lock().expect("session table lock poisoned");
            table
                .sessions
                .iter()
                .map(|(_, state)| Arc::clone(state))
                .collect()
        };
        for state in &states {
            state
                .lock()
                .expect("session state lock poisoned")
                .edits_since_flush = 0;
        }
        self.hot
            .lock()
            .expect("hot shard cache lock poisoned")
            .flush()
    }

    fn stats_json(&self, session: &SessionState) -> Json {
        let (open, opened, closed) = {
            let table = self.sessions.lock().expect("session table lock poisoned");
            (table.sessions.len(), table.opened, table.closed)
        };
        let (shards, resident, dirty) = {
            let hot = self.hot.lock().expect("hot shard cache lock poisoned");
            (hot.stats(), hot.resident(), hot.dirty())
        };
        Json::obj()
            .set("session", session.name.as_str())
            .set("generation", session.generation as i64)
            .set("edits_ok", session.stats.edits_ok as i64)
            .set("edits_failed", session.stats.edits_failed as i64)
            .set("queries", session.stats.queries as i64)
            .set(
                "sessions",
                Json::obj()
                    .set("open", open)
                    .set("opened", opened as i64)
                    .set("closed", closed as i64),
            )
            .set(
                "budget",
                Json::obj()
                    .set("total", self.budget_total)
                    .set("outer_workers", self.split.outer)
                    .set("inner_threads", self.split.inner),
            )
            .set(
                "shards",
                Json::obj()
                    .set("resident", resident)
                    .set("dirty", dirty)
                    .set("budget", self.config.shard_budget)
                    .set("hits", shards.hits)
                    .set("misses", shards.misses)
                    .set("evictions", shards.evictions)
                    .set("pin_overflows", shards.pin_overflows)
                    .set("flushes", shards.flushes)
                    .set("flushed_shards", shards.flushed_shards),
            )
            // The live `atlas-metrics/1` snapshot: every counter and
            // histogram the observability spine has collected since
            // startup, so a resident daemon is inspectable over the wire
            // without restarting it under different flags.
            .set("metrics", atlas_obs::metrics_snapshot(&self.recorder))
    }
}
