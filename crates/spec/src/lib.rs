//! # atlas-spec
//!
//! Path specifications — the central abstraction of the paper — together with
//! the machinery to represent (possibly infinite) *regular sets* of path
//! specifications as finite-state automata and to compile them into
//! code-fragment specifications that a points-to analysis can consume.
//!
//! * [`path_spec`] — the syntax and well-formedness constraints of a single
//!   path specification `z₁ ⊣ w₁ → z₂ ⊣ … ⊣ wₖ` (Section 4), and its
//!   semantics as a premise ⇒ conclusion rule over `Transfer`/`Alias` edges;
//! * [`fsa`] — nondeterministic finite automata over the alphabet `V_path`,
//!   prefix-tree acceptors, state merging, and bounded language enumeration
//!   (the ingredients of the RPNI-style learner in `atlas-learn`);
//! * [`codegen`] — conversion of a regular set of path specifications into
//!   equivalent code-fragment specifications with ghost fields (Appendix A),
//!   ready to be used as body overrides by `atlas-pointsto`.

#![warn(missing_docs)]

pub mod codegen;
pub mod fsa;
pub mod path_spec;

pub use codegen::{fragment_signature, CodeFragments};
pub use fsa::{Fsa, MergeCheck, MergeWalk, StateId};
pub use path_spec::{EdgeRel, PathSpec, PathSpecError, SpecRule};
