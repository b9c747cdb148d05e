//! # atlas-store
//!
//! The persistent artifact registry: inferred specifications and oracle
//! verdict caches as durable, versioned, content-addressed on-disk
//! artifacts.
//!
//! The paper's central observation is that oracle executions dominate the
//! cost of inferring points-to specifications; the in-memory verdict cache
//! (`atlas-learn::cache`) makes that cost amortizable within a process, and
//! this crate makes it durable *across* processes: a cold run persists what
//! it paid for, any later run — minutes or months later, in a different
//! process — warm-starts from the file and re-executes nothing that is
//! already known.  Because cache keys and fingerprints are content hashes
//! (shared implementation in `atlas_ir::hash`), a persisted verdict means
//! the same thing to every process that rebuilds the same library, and it
//! can never be mistakenly applied to a different library variant.
//!
//! The pieces:
//!
//! * [`json`] — a self-contained JSON value/writer/parser (no crates.io
//!   access, so no `serde`); the parser reports 1-based error positions.
//! * [`artifact`] — the `atlas-cache/2` ([`CacheArtifact`]) and
//!   `atlas-spec/1` ([`SpecArtifact`]) schemas: encode/decode, first-entry-
//!   wins [`CacheArtifact::merge`], and GC by library fingerprint
//!   ([`CacheArtifact::retain_fingerprint`]).
//! * [`registry`] — file operations: atomic write-rename persistence
//!   ([`atomic_write`]), loading with path-carrying errors, multi-file
//!   merge ([`merge_cache_files`]).
//! * the `store` binary — `inspect`, `merge`, `gc`, `export-specs`, and
//!   `diff-specs` against the handwritten `atlas-javalib` corpus.
//!
//! The engine-facing entry points live in `atlas-core`
//! (`Engine::warm_start_from_path`, `Session::persist`); the batch pipeline
//! in `atlas-bench` drives them end to end and proves cross-process
//! determinism (same spec set, zero re-executions) in CI.

#![warn(missing_docs)]

pub mod artifact;
pub mod json;
pub mod registry;

pub use artifact::{
    document_schema, hex64_string, parse_hex64, CacheArtifact, CacheEntry, CacheProvenance,
    CacheShard, GcSummary, SchemaError, SpecArtifact, SpecCluster,
};
pub use json::{Json, JsonError};
pub use registry::{
    atomic_write, gc_shards, gc_shards_with_history, list_shards, load_cache, load_document,
    load_specs, merge_cache_files, merge_shards, save_cache, save_specs, shard_dir, shard_entry,
    ShardEntry, ShardGcSummary, StoreError,
};
