//! # atlas-interp
//!
//! A concrete interpreter for the mini-Java IR of [`atlas_ir`].
//!
//! Atlas only requires *blackbox access* to the library: the ability to
//! execute sequences of library functions on chosen inputs and observe the
//! outputs (Section 5.1 of the paper).  This crate provides that blackbox:
//! it executes synthesized unit tests (and any other IR program) against the
//! modeled library implementation, with a real heap, real arrays, and
//! builtin implementations of "native" methods such as `System.arraycopy`.
//!
//! Two engines implement the same [`Executor`] semantics:
//!
//! * [`Vm`] — the oracle's runtime engine, which executes flat bytecode
//!   produced by [`CompiledProgram::compile`] with register frames and an
//!   arena-backed heap; and
//! * [`Interpreter`] — the tree-walking reference, which executes
//!   [`atlas_ir::Stmt`] bodies directly.  Only tests and benches run it,
//!   as the ground truth the VM is checked against.
//!
//! The engines are interchangeable bit for bit: same outcomes, same step
//! counts, same errors.  Both charge the shared [`StepBudget`], so an
//! execution is bounded by the same [`ExecLimits`] regardless of engine
//! and the oracle never diverges on an ill-formed candidate.

#![warn(missing_docs)]

pub mod builtins;
pub mod compile;
pub mod eval;
pub mod frame;
pub mod heap;
pub mod limits;
pub mod value;
pub mod vm;

pub use builtins::BuiltinRegistry;
pub use compile::{CompiledMethod, CompiledProgram, CompiledWitness, Instr};
pub use eval::{ExecError, ExecOutcome, Executor, Interpreter};
pub use heap::{Heap, ObjRef};
pub use limits::{ExecLimits, StepBudget};
pub use value::Value;
pub use vm::{Vm, VmScratch};
