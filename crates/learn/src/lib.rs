//! # atlas-learn
//!
//! The active-learning machinery of Atlas (Section 5):
//!
//! * [`oracle`] — the noisy oracle `O : V_path* → {0,1}`: synthesize a
//!   potential witness for a candidate path specification and execute it
//!   against the blackbox library; `0` is always returned for imprecise
//!   candidates, `1` is ideally returned for precise ones (but may be `0`,
//!   e.g. when the heuristically chosen inputs fail to exercise the
//!   behaviour);
//! * [`cache`] — the verdict cache: content-addressed memoization of
//!   oracle answers, movable between oracles, clusters, and sessions
//!   (warm starts);
//! * [`sample`] — phase one: sampling candidate path specifications symbol
//!   by symbol, either uniformly at random or guided by Monte-Carlo tree
//!   search (Section 5.2);
//! * [`rpni`] — phase two: the RPNI-style language-inference algorithm that
//!   inductively generalizes the positive examples into a regular set of
//!   path specifications, querying the oracle about the words each state
//!   merge would add (Section 5.3).

#![warn(missing_docs)]

pub mod cache;
pub mod oracle;
pub mod rpni;
pub mod sample;

pub use cache::{library_fingerprint, CacheKeyer, CacheStats, VerdictCache, VerdictKey};
pub use oracle::{Oracle, OracleConfig, OracleStats};
pub use rpni::{infer_fsa, RpniConfig, RpniResult};
pub use sample::{sample_positive_examples, SampleResult, SamplerConfig, SamplingStrategy};
