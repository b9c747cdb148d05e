//! # atlas-pointsto
//!
//! A flow- and context-insensitive Andersen-style points-to analysis,
//! formulated (as in Section 3 of the paper) as context-free language
//! reachability over the graph `G` extracted from a program:
//!
//! * [`graph`] implements the extraction rules of Figure 2 (assign,
//!   allocation, store, load, call parameter/return), collapsing arrays into
//!   a single synthetic `$elems` field;
//! * [`grammar`] contains the context-free grammar `C_pt` of Figure 3
//!   (`Transfer`, `Transfer-bar`, `Alias`, `FlowsTo`) together with a small
//!   derivation checker used to validate the solver on tiny graphs;
//! * [`solver`] computes the transitive closure `G~` with a worklist
//!   fixpoint, and answers `FlowsTo`/`Alias`/`Transfer` queries;
//! * [`result`] post-processes the closure into the metrics used by the
//!   paper's evaluation (non-trivial points-to edges between client
//!   variables, the `R_pt` ratio, ...).
//!
//! Library code can be analyzed in three modes: with its real implementation
//! (the `S_impl` configuration of Figure 9c), omitted entirely (the trivial
//! `Π(∅)` baseline), or replaced by *code-fragment specifications* provided
//! as per-method body overrides (how inferred/handwritten/ground-truth
//! specifications are consumed).

#![warn(missing_docs)]

pub mod grammar;
pub mod graph;
pub mod result;
pub mod solver;

pub use graph::{ExtractionOptions, Graph, LoadEdge, Node, NodeId, ObjId, StoreEdge};
pub use result::{PointsToStats, RatioSummary};
pub use solver::{solve_naive, PointsToResult, Solver};
