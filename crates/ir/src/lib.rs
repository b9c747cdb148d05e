//! # atlas-ir
//!
//! A small, Java-like intermediate representation (IR) used throughout the
//! Atlas reproduction.  The IR contains exactly the statement forms that the
//! paper's static points-to analysis consumes (Figure 2 of the paper):
//! assignments, allocations, field stores and loads, and calls — plus the
//! array accesses, constants, simple arithmetic and structured control flow
//! needed so that the modeled Java standard library is *executable* by the
//! concrete interpreter in `atlas-interp`.
//!
//! The IR is deliberately minimal:
//!
//! * all reference values are untyped at the analysis level (the points-to
//!   analysis only distinguishes abstract objects by their allocation site),
//! * method calls are statically resolved (no virtual dispatch), matching the
//!   paper's treatment of the library as a set of named functions,
//! * arrays are first-class in the IR but collapsed to a single `$elems`
//!   field by the static analysis, exactly as described in Section 2.
//!
//! # Example
//!
//! ```
//! use atlas_ir::builder::ProgramBuilder;
//! use atlas_ir::Type;
//!
//! let mut pb = ProgramBuilder::new();
//! let object = pb.class("Object").build();
//! let boxc = {
//!     let mut c = pb.class("Box");
//!     c.field("f", Type::object());
//!     let mut set = c.method("set");
//!     let ob = set.param("ob", Type::object());
//!     let this = set.this();
//!     set.store(this, "f", ob);
//!     set.finish();
//!     let mut get = c.method("get");
//!     get.returns(Type::object());
//!     let this = get.this();
//!     let r = get.local("r", Type::object());
//!     get.load(r, this, "f");
//!     get.ret(Some(r));
//!     get.finish();
//!     c.build()
//! };
//! let program = pb.build();
//! assert!(program.method_of(boxc, "set").is_some());
//! assert_eq!(program.class(object).name(), "Object");
//! ```

#![warn(missing_docs)]

pub mod builder;
pub mod class;
pub mod depgraph;
pub mod hash;
pub mod index;
pub mod interface;
pub mod method;
pub mod mutate;
pub mod pretty;
pub mod program;
pub mod stmt;
pub mod types;

pub use class::{Class, Field};
pub use depgraph::{Closure, DepGraph};
pub use index::ContentIndex;
pub use interface::{LibraryInterface, MethodSig, ParamSlot, SlotKind};
pub use method::{Method, Var, VarData};
pub use mutate::{MutationKind, MutationOutcome};
pub use program::{ClassId, FieldId, MethodId, Program};
pub use stmt::{visit_block, AllocSite, BinOp, Constant, Stmt};
pub use types::Type;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;

    #[test]
    fn build_box_program() {
        let mut pb = ProgramBuilder::new();
        pb.class("Object").build();
        let mut c = pb.class("Box");
        c.field("f", Type::object());
        let mut m = c.method("set");
        let ob = m.param("ob", Type::object());
        let this = m.this();
        m.store(this, "f", ob);
        m.finish();
        c.build();
        let p = pb.build();
        assert_eq!(p.num_classes(), 2);
        let boxc = p.class_named("Box").unwrap();
        assert_eq!(p.class(boxc).fields().len(), 1);
    }
}
