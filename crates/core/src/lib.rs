//! # atlas-core
//!
//! The top-level Atlas pipeline: ACtive Learning of Alias Specifications.
//!
//! Given a program containing a library implementation (used only as a
//! blackbox) and the library's interface, an [`Engine`] runs the two-phase
//! algorithm of the paper —
//!
//! 1. sample candidate path specifications and keep those whose synthesized
//!    unit test passes (phase one, `atlas-learn::sample`),
//! 2. inductively generalize the positives to a regular language with the
//!    RPNI-style learner (phase two, `atlas-learn::rpni`) —
//!
//! and returns the learned automata together with the equivalent
//! code-fragment specifications, ready to be consumed by the points-to
//! analysis in place of the library implementation.
//!
//! Class clusters are independent, so the engine schedules the per-cluster
//! pipelines across a configurable thread pool ([`engine`]); the thread
//! count never changes the result, only the wall-clock.
//! [`infer_specifications`] remains as the one-call convenience wrapper.
//!
//! Oracle verdicts are memoized in a content-addressed [`VerdictCache`]
//! that can be harvested from one run ([`Session::into_cache`]) and fed to
//! the next ([`Engine::warm_start`]), so repeated in-process runs of one
//! configuration skip already-proven verdicts without ever changing
//! results.  The store-backed run ([`Engine::run_with_store`], see
//! [`incremental`]) hands no cache back: it persists each re-run
//! cluster's automaton and verdicts as a closure shard and splices clean
//! clusters back without running the learner at all — across processes,
//! and across a resident service's edits.  Every store-backed run reads
//! and writes its shards through one store, the [`HotShards`] cache of
//! [`shards`]: `run_with_store` over a private cache it flushes before
//! returning, the resident service over one cache its sessions share.
//!
//! [`report`] contains the machinery used by the evaluation to compare an
//! inferred specification set against a reference corpus (handwritten or
//! ground truth), using the fractional statement-level counting described in
//! Section 6.

#![warn(missing_docs)]

pub mod budget;
pub mod engine;
pub mod env;
pub mod incremental;
pub mod inference;
pub mod report;
pub mod shards;

pub use budget::{map_indexed, BudgetSplit, ThreadBudget};
pub use engine::{ClusterJob, Engine, Session};
pub use incremental::{
    ClusterDisposition, ClusterProvenance, IncrementalCluster, IncrementalOutcome, RunProvenance,
    EXTRACTION,
};
pub use inference::{
    infer_specifications, AtlasConfig, ClusterOutcome, InferenceOutcome, ParallelismSummary,
};
pub use report::{compare_fragments, MethodComparison, SpecComparison};
pub use shards::{HotShards, ROOT_NAMESPACE};

// The verdict-cache vocabulary of the Engine API, re-exported so engine
// users don't need a direct `atlas-learn` dependency.
pub use atlas_learn::{library_fingerprint, CacheKeyer, CacheStats, VerdictCache, VerdictKey};

// The persistence vocabulary of the Engine API (the store-backed run,
// `InferenceOutcome::spec_artifact`), re-exported so engine users don't
// need a direct `atlas-store` dependency.
pub use atlas_obs::Recorder;
pub use atlas_store::{SpecArtifact, SpecCluster, StoreError};

// The compiled image `Engine::with_compiled` takes, re-exported so engine
// users that carry one across edits don't need a direct `atlas-interp`
// dependency.
pub use atlas_interp::CompiledProgram;
