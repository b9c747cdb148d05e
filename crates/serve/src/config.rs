//! Service configuration: every `ATLAS_SERVE_*` knob parsed in one place.
//!
//! | Variable | Meaning | Default |
//! |---|---|---|
//! | `ATLAS_SERVE_LIBRARY` | registry name of the library under service | `javalib` |
//! | `ATLAS_SAMPLES` | phase-one sampling budget per cluster | `2000` |
//! | `ATLAS_THREADS` | engine worker-thread budget (`0` = all cores) | `0` |
//! | `ATLAS_SERVE_WORKERS` | service worker-pool size (`0` = auto) | `0` |
//! | `ATLAS_SERVE_STORE` | closure-sharded store root | `target/atlas-serve` |
//! | `ATLAS_SERVE_SHARDS` | hot-shard LRU budget (resident shards) | `64` |
//! | `ATLAS_SERVE_QUEUE` | request-queue capacity (backpressure bound) | `64` |
//! | `ATLAS_SERVE_FLUSH` | write-behind: flush after this many edits | `8` |
//! | `ATLAS_SERVE_MAX_FRAME` | largest accepted request frame, bytes | `262144` |
//! | `ATLAS_SERVE_MAX_SESSIONS` | open-session cap (incl. the default) | `32` |
//! | `ATLAS_TRACE` | `1`/`true`: record span events for the Chrome-trace sink | off |
//!
//! The sampling/thread knobs deliberately reuse the fleet-wide names
//! (`ATLAS_SAMPLES`, `ATLAS_THREADS`), so a service and a batch run under
//! the same shell see the same budgets — a requirement for the
//! batch-equivalence invariant to be testable from the command line.
//! Parsing goes through [`atlas_core::env`] — the same helpers, and the
//! same fallback-on-malformed error style, as the bench harness.

use atlas_core::env::{env_flag, env_parse, env_path, env_string};
use std::path::PathBuf;

/// Default phase-one sampling budget (matches `atlas-bench`'s default).
const DEFAULT_SAMPLES: usize = 2000;

/// The full configuration of one resident service.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Registry name of the library under service.
    pub library: String,
    /// Phase-one sampling budget per class cluster.
    pub samples: usize,
    /// Engine worker-thread budget (`0` = one per core).  The service
    /// splits it `outer × inner`: pool workers times engine threads per
    /// in-flight edit ([`atlas_core::ThreadBudget::split_workers`]).
    pub threads: usize,
    /// Service worker-pool size; `0` picks a small default, and the
    /// thread budget always clamps it (a budget of 1 runs 1 worker).
    pub workers: usize,
    /// Closure-sharded store root the service owns while resident.
    pub store: PathBuf,
    /// Hot-shard LRU budget: how many closure shards stay decoded in
    /// memory — shared across all session namespaces.  Dirty shards are
    /// pinned and never count against evictions.
    pub shard_budget: usize,
    /// Bounded request-queue capacity; producers block when it is full.
    pub queue_capacity: usize,
    /// Write-behind schedule: hand dirty shards to the background shard
    /// writer after this many edits (and write them, waiting for the
    /// writer, on `flush`/`close`/`shutdown`).  `0` hands them over after
    /// every edit.
    pub flush_every: usize,
    /// Largest accepted request frame in bytes; longer lines are answered
    /// with an `oversized-frame` error and skipped.
    pub max_frame: usize,
    /// Open-session cap, counting the default session; `open` past it is
    /// rejected with a `bad-request` error.
    pub max_sessions: usize,
    /// Seed for synthetic registry members (fixed: the service serves one
    /// deterministic library content).
    pub synth_seed: u64,
    /// Whether the daemon's recorder collects span events (`ATLAS_TRACE`).
    /// Metrics (counters, histograms) are always collected — they are what
    /// the `stats` op serves — tracing adds the per-span event stream for
    /// the Chrome-trace sink.  Either way recording never changes results.
    pub trace: bool,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            library: "javalib".to_string(),
            samples: DEFAULT_SAMPLES,
            threads: 0,
            workers: 0,
            store: PathBuf::from("target/atlas-serve"),
            shard_budget: 64,
            queue_capacity: 64,
            flush_every: 8,
            max_frame: 256 * 1024,
            max_sessions: 32,
            synth_seed: 0x5EED,
            trace: false,
        }
    }
}

impl ServeConfig {
    /// Starts a builder chain from the defaults: the `with_*` methods
    /// below consume and return the config, so a bespoke configuration
    /// reads as one expression —
    ///
    /// ```
    /// use atlas_serve::ServeConfig;
    /// let config = ServeConfig::new()
    ///     .with_library("javalib-lang")
    ///     .with_samples(250)
    ///     .with_threads(4)
    ///     .with_workers(2)
    ///     .with_store("target/scratch".into());
    /// assert_eq!(config.workers, 2);
    /// ```
    pub fn new() -> ServeConfig {
        ServeConfig::default()
    }

    /// Sets the registry name of the library under service.
    pub fn with_library(mut self, library: impl Into<String>) -> ServeConfig {
        self.library = library.into();
        self
    }

    /// Sets the phase-one sampling budget per cluster.
    pub fn with_samples(mut self, samples: usize) -> ServeConfig {
        self.samples = samples;
        self
    }

    /// Sets the engine worker-thread budget (`0` = one per core).
    pub fn with_threads(mut self, threads: usize) -> ServeConfig {
        self.threads = threads;
        self
    }

    /// Sets the service worker-pool size (`0` = auto).
    pub fn with_workers(mut self, workers: usize) -> ServeConfig {
        self.workers = workers;
        self
    }

    /// Sets the closure-sharded store root.
    pub fn with_store(mut self, store: PathBuf) -> ServeConfig {
        self.store = store;
        self
    }

    /// Sets the hot-shard LRU budget.
    pub fn with_shard_budget(mut self, shard_budget: usize) -> ServeConfig {
        self.shard_budget = shard_budget;
        self
    }

    /// Sets the bounded request-queue capacity.
    pub fn with_queue_capacity(mut self, queue_capacity: usize) -> ServeConfig {
        self.queue_capacity = queue_capacity;
        self
    }

    /// Sets the write-behind flush schedule.
    pub fn with_flush_every(mut self, flush_every: usize) -> ServeConfig {
        self.flush_every = flush_every;
        self
    }

    /// Sets the open-session cap.
    pub fn with_max_sessions(mut self, max_sessions: usize) -> ServeConfig {
        self.max_sessions = max_sessions;
        self
    }

    /// Enables or disables span tracing.
    pub fn with_trace(mut self, trace: bool) -> ServeConfig {
        self.trace = trace;
        self
    }

    /// Reads the configuration from the environment (see the
    /// [module docs](self) for the knob table).
    pub fn from_env() -> ServeConfig {
        let defaults = ServeConfig::default();
        ServeConfig {
            library: env_string("ATLAS_SERVE_LIBRARY").unwrap_or(defaults.library),
            samples: env_parse("ATLAS_SAMPLES").unwrap_or(defaults.samples),
            threads: env_parse("ATLAS_THREADS").unwrap_or(defaults.threads),
            workers: env_parse("ATLAS_SERVE_WORKERS").unwrap_or(defaults.workers),
            store: env_path("ATLAS_SERVE_STORE").unwrap_or(defaults.store),
            shard_budget: env_parse("ATLAS_SERVE_SHARDS").unwrap_or(defaults.shard_budget),
            queue_capacity: env_parse("ATLAS_SERVE_QUEUE").unwrap_or(defaults.queue_capacity),
            flush_every: env_parse("ATLAS_SERVE_FLUSH").unwrap_or(defaults.flush_every),
            max_frame: env_parse("ATLAS_SERVE_MAX_FRAME").unwrap_or(defaults.max_frame),
            max_sessions: env_parse("ATLAS_SERVE_MAX_SESSIONS").unwrap_or(defaults.max_sessions),
            synth_seed: defaults.synth_seed,
            trace: env_flag("ATLAS_TRACE"),
        }
    }

    /// A small configuration suitable for tests: a tiny library, a modest
    /// sampling budget, one engine thread (which also pins the service
    /// pool to a single worker), and the given store root.
    pub fn small(store: PathBuf) -> ServeConfig {
        ServeConfig::new()
            .with_library("javalib-lang")
            .with_samples(250)
            .with_threads(1)
            .with_store(store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let config = ServeConfig::default();
        assert_eq!(config.library, "javalib");
        assert!(config.shard_budget > 0);
        assert!(config.queue_capacity > 0);
        assert!(config.max_frame >= 1024);
        assert!(config.max_sessions >= 2);
    }

    #[test]
    fn builder_chains_compose() {
        let config = ServeConfig::new()
            .with_library("javalib-lang")
            .with_workers(3)
            .with_max_sessions(5)
            .with_flush_every(0)
            .with_trace(true);
        assert_eq!(config.library, "javalib-lang");
        assert_eq!(config.workers, 3);
        assert_eq!(config.max_sessions, 5);
        assert_eq!(config.flush_every, 0);
        assert!(config.trace);
        // Untouched knobs keep their defaults.
        assert_eq!(config.samples, ServeConfig::default().samples);
    }
}
