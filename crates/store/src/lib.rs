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
//! it learned, and any later run — minutes or months later, in a different
//! process — splices it back without re-running the learner or
//! re-executing a unit test.  Because cache keys and fingerprints are
//! content hashes (shared implementation in `atlas_ir::hash`), a persisted
//! verdict means the same thing to every process that rebuilds the same
//! library, and it can never be mistakenly applied to a different library
//! variant.
//!
//! The pieces:
//!
//! * [`json`] — a self-contained JSON value/writer/parser (no crates.io
//!   access, so no `serde`); the parser reports 1-based error positions.
//! * [`artifact`] — the `atlas-cache/2` ([`CacheArtifact`]) and
//!   `atlas-spec/1` ([`SpecArtifact`]) schemas: encode/decode.  A cache
//!   artifact holds one closure shard's verdicts under one provenance;
//!   the decoder rejects any other group count.
//! * [`registry`] — file operations: atomic write-rename persistence
//!   ([`atomic_write`]), loading with path-carrying errors, and the
//!   closure-sharded store root ([`shard_entry`], [`list_shards`],
//!   [`gc_shards_with_history`]).
//! * the `store` binary — `inspect`, `stats`, `gc-shards`,
//!   `export-specs`, and `diff-specs` against the handwritten
//!   `atlas-javalib` corpus.
//!
//! A store root has one layout: one shard per cluster,
//! `<root>/0x<closure>/{cache,specs}.json`, plus the whole-run
//! `specs.json` export the batch and fleet pipelines write beside them.
//! A re-run cluster's shard is written whole, so nothing ever merges two
//! artifacts.
//! The engine-facing side lives in `atlas-core`: the store-backed run
//! (`engine.run_with_store(&engine.run_provenance(), root, EXTRACTION)`)
//! fills an empty root cluster by cluster and splices every cluster of a
//! seeded one back without running the learner; the batch and fleet
//! pipelines in `atlas-bench` and the resident service in `atlas-serve`
//! all go through it, and through its one shard store (`atlas-core`'s
//! `HotShards`), and CI proves cross-process determinism (same spec
//! bytes, zero re-executions) on it.

#![warn(missing_docs)]

pub mod artifact;
pub mod json;
pub mod registry;

pub use artifact::{
    document_schema, hex64_string, parse_hex64, CacheArtifact, CacheEntry, CacheProvenance,
    SchemaError, SpecArtifact, SpecCluster,
};
pub use json::{Json, JsonError};
pub use registry::{
    atomic_write, gc_shards_with_history, list_shards, load_cache, load_document, load_specs,
    save_cache, save_specs, shard_entry, ShardEntry, ShardGcSummary, StoreError,
};
