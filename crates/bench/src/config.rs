//! The one place environment knobs are parsed.
//!
//! Every binary and module of the harness reads its budgets through these
//! helpers, so a knob means the same thing everywhere:
//!
//! | Variable | Meaning | Default |
//! |---|---|---|
//! | `ATLAS_SAMPLES` | phase-one sampling budget per class cluster | 4000 |
//! | `ATLAS_APPS` | generated benchmark app count | 46 |
//! | `ATLAS_THREADS` | total worker-thread budget (0 = one per core) | 0 |
//! | `ATLAS_STORE` | batch store root: one closure shard per cluster + the `specs.json` export | unset |
//! | `ATLAS_FLEET_STORE` | fleet store root: member `m`'s closure-sharded root is `<root>/m/` | unset |
//! | `ATLAS_FLEET_SEED` | base seed of the synthetic fleet libraries | `0x5EED` |
//! | `ATLAS_FLEET_LIBS` | comma-separated fleet library names | registry default |
//! | `ATLAS_SERVE_EDITS` | serve-leg edit-stream length per session | 1000 |
//! | `ATLAS_SERVE_SESSIONS` | serve-leg concurrent sessions | 1 |
//! | `ATLAS_TRACE` | record span events (`1`/`true`/`yes`/`on`) | off |
//! | `ATLAS_TRACE_OUT` | Chrome trace-event JSON output path | unset |
//!
//! The resident-service daemon reads its own `ATLAS_SERVE_*` family
//! (store root, shard budget, queue capacity, flush schedule, frame
//! bound) in `atlas_serve::config`; the serve leg combines those with the
//! shared budgets above.
//!
//! Malformed values fall back to the default rather than aborting — a CI
//! matrix that exports an empty string must not change behavior.  The
//! primitive parsers live in [`atlas_core::env`], shared with the serve
//! daemon's knob table, and are re-exported here; this module only adds
//! the knob *names* and their defaults.

use atlas_core::env::{env_flag, parse_u64};
pub use atlas_core::env::{env_parse, env_path};
use std::path::PathBuf;

/// Reads the per-cluster sampling budget from `ATLAS_SAMPLES` (default 4000).
pub fn sample_budget() -> usize {
    env_parse("ATLAS_SAMPLES").unwrap_or(4_000)
}

/// Reads the global worker-thread budget from `ATLAS_THREADS` (default 0 =
/// one per available core).  The thread count never changes results, only
/// wall-clock; in fleet runs it bounds the *total* worker count across the
/// outer scheduler and every engine (see `atlas_core::ThreadBudget`).
pub fn thread_budget() -> usize {
    env_parse("ATLAS_THREADS").unwrap_or(0)
}

/// Reads the app count from `ATLAS_APPS` (default 46).
pub fn app_count() -> usize {
    env_parse("ATLAS_APPS").unwrap_or(46)
}

/// Reads the batch pipeline's closure-sharded store root from `ATLAS_STORE`.
pub fn store_dir() -> Option<PathBuf> {
    env_path("ATLAS_STORE")
}

/// Reads the fleet pipeline's store root from `ATLAS_FLEET_STORE` (one
/// closure-sharded root per member beneath it).
pub fn fleet_store_root() -> Option<PathBuf> {
    env_path("ATLAS_FLEET_STORE")
}

/// Reads the synthetic-library base seed from `ATLAS_FLEET_SEED` —
/// decimal or `0x`-prefixed hex, matching how the default (`0x5EED`) and
/// the fingerprints in reports are written.
pub fn fleet_seed() -> u64 {
    std::env::var("ATLAS_FLEET_SEED")
        .ok()
        .and_then(|s| parse_u64(&s))
        .unwrap_or(0x5EED)
}

/// Whether `ATLAS_TRACE` asks for span recording (`1`/`true`/`yes`/`on`,
/// case-insensitive).  Tracing never changes results — the recorder
/// observes the pipelines from outside every verdict and artifact path —
/// only adds the event stream behind `ATLAS_TRACE_OUT`.
pub fn trace_enabled() -> bool {
    env_flag("ATLAS_TRACE")
}

/// Reads the Chrome trace-event sink path from `ATLAS_TRACE_OUT`.
pub fn trace_out() -> Option<PathBuf> {
    env_path("ATLAS_TRACE_OUT")
}

/// Builds the recorder a pipeline leg should run under: span tracing when
/// [`trace_enabled`], bare metrics otherwise.  Metrics stay cheap enough
/// to keep on for every run — the report legs fold them into their JSON.
pub fn recorder_from_env() -> atlas_obs::Recorder {
    if trace_enabled() {
        atlas_obs::Recorder::tracing()
    } else {
        atlas_obs::Recorder::metrics()
    }
}

/// Writes the Chrome trace sink to `out` — or, when `out` is `None`, to
/// the path named by `ATLAS_TRACE_OUT` (a no-op when neither is set).
/// Logs (not fails) on I/O errors — a missing trace must never turn a
/// green benchmark red.
pub fn export_trace(recorder: &atlas_obs::Recorder, out: Option<PathBuf>) {
    let Some(path) = out.or_else(trace_out) else {
        return;
    };
    match atlas_obs::write_chrome_trace(recorder, &path) {
        Ok(()) => eprintln!("trace: wrote {}", path.display()),
        Err(e) => eprintln!("trace: failed to write {}: {e}", path.display()),
    }
}

/// Parses a comma-separated library-name list (the `ATLAS_FLEET_LIBS` /
/// `fleet --libraries` syntax): names are trimmed, empty segments dropped.
pub fn parse_library_list(raw: &str) -> Vec<String> {
    raw.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect()
}

/// Reads the fleet library selection from `ATLAS_FLEET_LIBS`
/// (comma-separated registry names); `None` means the registry default.
pub fn fleet_libraries() -> Option<Vec<String>> {
    let raw = std::env::var("ATLAS_FLEET_LIBS").ok()?;
    let names = parse_library_list(&raw);
    if names.is_empty() {
        None
    } else {
        Some(names)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_historical() {
        // The suite must not depend on ambient ATLAS_* values; these
        // helpers are exercised against explicitly absent variables.
        assert_eq!(env_parse::<usize>("ATLAS_DOES_NOT_EXIST"), None);
        assert!(env_path("ATLAS_DOES_NOT_EXIST").is_none());
    }
}
