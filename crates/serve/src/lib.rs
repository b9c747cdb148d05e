//! # atlas-serve
//!
//! The resident inference service: everything else in this workspace is a
//! batch binary that cold-loads a store, runs once, and exits; this crate
//! keeps an inference engine *resident*, with closure shards hot in
//! memory, and serves a continuous stream of library edits and
//! specification queries over a small newline-delimited JSON protocol
//! (`atlas-serve/2`, with `atlas-serve/1` clients served unchanged —
//! [`proto`]).
//!
//! The moving parts:
//!
//! * [`proto`] — the versioned wire protocol: request/response codec,
//!   compact rendering, bounded frame reading.  `/2` adds first-class
//!   sessions (`open`/`close`, a `session` field on every scoped op);
//!   frames without a session address the default session and get
//!   byte-identical `/1` responses.  Malformed input maps to structured
//!   error responses, never panics.
//! * `session` — the per-session state: program (edited in place), the
//!   interface, content index and compilation carried across its edits,
//!   provenance chain, current spec artifact, and a *namespace* of the
//!   daemon's shard store.
//! * [`daemon`] — [`Daemon`]: the internally-locked service core.  It
//!   keeps the one shard store every store-backed run writes through,
//!   [`atlas_core::HotShards`], resident over the store root: an LRU of
//!   decoded closure shards with dirty-shard pinning, write-behind
//!   flushing through a background writer thread, and one namespace per
//!   session sharing a single budget.
//!   Start-up and each edit run `Engine::run_with_shards` on it against
//!   the previous provenance, splicing clean clusters from memory; a
//!   re-run cluster's verdicts persist into its shard, so the shards are
//!   the only verdict store a session has.  New sessions seed from the
//!   byte-captured post-startup store.
//! * [`service`] — [`Service`]: the bounded session-aware queue
//!   (backpressure), the worker pool (`outer` of the thread-budget
//!   split; each in-flight edit gets the `inner` share), stream
//!   plumbing, and the in-process [`ServeHandle`] used by tests and the
//!   bench harness.
//! * [`config`] — [`ServeConfig`]: the `ATLAS_SERVE_*` environment
//!   knobs, shared-parsed via [`atlas_core::env`], with a builder-style
//!   constructor for in-process use.
//!
//! The contract the test suite pins down: the service is observationally
//! equivalent to the batch engine, *per session*.  After any sequence of
//! edits, a session's `specs` query returns an artifact byte-identical
//! to a cold batch run over the equivalently edited program, whatever
//! the interleaving of other sessions' edits, queries, flushes, cache
//! evictions, and restarts in between.

#![warn(missing_docs)]

pub mod config;
pub mod daemon;
pub mod proto;
pub mod service;
mod session;

/// The spec-extraction bounds every served artifact uses: the store-backed
/// run's, re-exported so clients comparing against a cold batch run need
/// no `atlas-core` import.
pub use atlas_core::EXTRACTION;
pub use config::ServeConfig;
pub use daemon::{Daemon, ServeError, DEFAULT_SESSION};
pub use proto::{
    decode_request, decode_response, encode_request, encode_response, parse_mutation_kind,
    read_frame, render_compact, salvage_id, salvage_session, EditRequest, Envelope, ErrorCode,
    Frame, Request, Response, WireError, WIRE_SCHEMA, WIRE_SCHEMA_V2,
};
pub use service::{ServeHandle, Service};
