//! Controlled, deterministic mutations of a built [`Program`] — the edit
//! primitives the incremental-inference pipeline uses to model "a developer
//! touched the library".
//!
//! Each primitive changes the *content* of exactly one method (or adds
//! one), so the dependency-closure machinery in [`crate::depgraph`] can be
//! exercised and tested: a mutation must dirty precisely the clusters whose
//! closure contains the mutated method.
//!
//! The primitives here are mechanical; the policy of *which* method to
//! mutate (eligibility, seeding, knobs) lives in `atlas-apps`' mutation
//! generator.  All primitives are append-only with respect to ids: existing
//! class/method/field ids never shift, so ids remain comparable across the
//! original and the mutated program.
//!
//! **The contract a carried [`ContentIndex`](crate::ContentIndex) relies
//! on.**  Each primitive edits exactly one method in place or appends one
//! method to its class — the [`MutationOutcome::method`] it returns — and
//! changes no other method's content and no class declaration (names,
//! superclasses, fields) — a call site's printed form names only its
//! target, and no primitive renames a method or class.
//! [`ContentIndex::rehash`](crate::ContentIndex::rehash) of that one method
//! therefore yields exactly the index a fresh build of the mutated program
//! would; a new primitive must keep this contract or re-hash what else it
//! touches.  An [`Undo`] captured before an edit takes it back, so the
//! same one-method re-hash brings a carried index back in step too.

use crate::method::{Method, Var, VarData};
use crate::program::{ClassId, MethodId, Program};
use crate::stmt::{Constant, Stmt};
use crate::types::Type;
use std::fmt;

/// The kinds of library edit the mutation primitives model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutationKind {
    /// Rename a method-local variable (content change, semantics
    /// preserved — invalidation is conservative by design).
    RenameLocal,
    /// Prepend a dead statement to a method body (content change,
    /// behavior preserved).
    BodyEdit,
    /// Add a new public no-op method to a class (interface growth).
    AddMethod,
    /// Append an unused primitive parameter to a method (signature
    /// change).  Only safe on methods without intra-program callers.
    SignatureChange,
}

impl fmt::Display for MutationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MutationKind::RenameLocal => "rename-local",
            MutationKind::BodyEdit => "body-edit",
            MutationKind::AddMethod => "add-method",
            MutationKind::SignatureChange => "signature-change",
        };
        write!(f, "{s}")
    }
}

/// What a mutation primitive did: the method whose content changed (for
/// [`MutationKind::AddMethod`], the *added* method) and a human-readable
/// description.
#[derive(Debug, Clone)]
pub struct MutationOutcome {
    /// The kind of edit applied.
    pub kind: MutationKind,
    /// The class the edit happened in.
    pub class: ClassId,
    /// The method whose content changed (or was added).
    pub method: MethodId,
    /// Human-readable description, e.g. `body-edit ArrayList.add`.
    pub description: String,
}

/// How to take one primitive edit back: the edited method as it was
/// before the edit, or nothing when the edit appended it.  Capture it with
/// [`Undo::before_edit`] or [`Undo::before_append`] *before* the edit;
/// [`Undo::apply`] on the edited program then gives back the program as it
/// was, field for field.
#[derive(Debug, Clone)]
pub struct Undo {
    method: MethodId,
    /// The method before an in-place edit; `None` for an append.
    prior: Option<Method>,
}

impl Undo {
    /// Captures `method` before it is edited in place.
    pub fn before_edit(program: &Program, method: MethodId) -> Undo {
        Undo {
            method,
            prior: Some(program.method(method).clone()),
        }
    }

    /// Captures `program` before a method is appended to it.
    pub fn before_append(program: &Program) -> Undo {
        Undo {
            method: MethodId::from_index(program.methods.len() as u32),
            prior: None,
        }
    }

    /// Takes the edit back: puts the edited method back as it was, or
    /// removes the appended method from the program and its class.
    ///
    /// # Panics
    /// Panics if an appended method is no longer the program's last.
    pub fn apply(self, program: &mut Program) {
        let i = self.method.index() as usize;
        match self.prior {
            Some(method) => program.methods[i] = method,
            None => {
                assert_eq!(
                    i + 1,
                    program.methods.len(),
                    "{} is not the last method",
                    self.method
                );
                let method = program.methods.pop().expect("the appended method");
                let class = &mut program.classes[method.class.index() as usize];
                assert_eq!(class.methods.pop(), Some(self.method));
            }
        }
    }
}

fn outcome(
    program: &Program,
    kind: MutationKind,
    class: ClassId,
    method: MethodId,
) -> MutationOutcome {
    MutationOutcome {
        kind,
        class,
        method,
        description: format!("{kind} {}", program.qualified_name(method)),
    }
}

/// Renames the first declared local of `method` (receiver and parameters
/// are left alone) to `<name>_r<tag>`.  Returns `None` when the method has
/// no locals to rename.
pub fn rename_local(program: &mut Program, method: MethodId, tag: u64) -> Option<MutationOutcome> {
    let m = &mut program.methods[method.index() as usize];
    let first_local = usize::from(m.has_this) + m.num_params;
    let data = m.vars.get_mut(first_local)?;
    data.name = format!("{}_r{tag}", data.name);
    let class = m.class;
    Some(outcome(program, MutationKind::RenameLocal, class, method))
}

/// Prepends a dead `int __edit<tag> = <tag>` statement to `method`'s body.
/// The new local is never read, so execution behavior is unchanged — but
/// the method's content hash (and every closure containing it) changes.
pub fn edit_body(program: &mut Program, method: MethodId, tag: u64) -> MutationOutcome {
    let m = &mut program.methods[method.index() as usize];
    let dst = Var::from_index(m.vars.len() as u32);
    m.vars.push(VarData {
        name: format!("__edit{tag}"),
        ty: Type::Int,
    });
    m.body.insert(
        0,
        Stmt::Const {
            dst,
            value: Constant::Int(tag as i64),
            site: None,
        },
    );
    let class = m.class;
    outcome(program, MutationKind::BodyEdit, class, method)
}

/// Adds a new public no-op instance method `probe<tag>` to `class`.  The
/// method id is appended, so existing ids are untouched; if the class is a
/// library class the interface (and the class's dependency closure) grows.
///
/// # Panics
/// Panics if the class already declares a method of that name.
pub fn add_method(program: &mut Program, class: ClassId, tag: u64) -> MutationOutcome {
    let name = format!("probe{tag}");
    assert!(
        program.method_of(class, &name).is_none(),
        "class {} already declares {name}",
        program.class(class).name()
    );
    let id = MethodId::from_index(program.methods.len() as u32);
    let class_name = program.class(class).name().to_string();
    program.methods.push(crate::method::Method {
        id,
        class,
        name,
        vars: vec![VarData {
            name: "this".to_string(),
            ty: Type::Object(class_name),
        }],
        has_this: true,
        num_params: 0,
        return_type: Type::Void,
        body: vec![Stmt::Return { var: None }],
        is_native: false,
        is_constructor: false,
        is_public: true,
    });
    // The appended id is the largest, so the class's sorted method list
    // stays sorted.
    program.classes[class.index() as usize].methods.push(id);
    outcome(program, MutationKind::AddMethod, class, id)
}

/// Appends an unused `int __x<tag>` parameter to `method`, shifting the
/// locals' variable indices up by one (all body references are remapped).
///
/// Existing *call sites* are **not** patched: only apply this to methods
/// without intra-program callers (see `DepGraph::callers_of`); the
/// unit-test synthesizer re-reads the signature, so interface-level calls
/// stay well-formed.
pub fn change_signature(program: &mut Program, method: MethodId, tag: u64) -> MutationOutcome {
    let m = &mut program.methods[method.index() as usize];
    let insert_at = usize::from(m.has_this) + m.num_params;
    m.vars.insert(
        insert_at,
        VarData {
            name: format!("__x{tag}"),
            ty: Type::Int,
        },
    );
    m.num_params += 1;
    let shift = |v: Var| {
        if v.index() as usize >= insert_at {
            Var::from_index(v.index() + 1)
        } else {
            v
        }
    };
    for stmt in &mut m.body {
        remap_vars(stmt, &shift);
    }
    let class = m.class;
    outcome(program, MutationKind::SignatureChange, class, method)
}

/// Rewrites every variable reference in a statement (recursing into nested
/// blocks) through `f`.
fn remap_vars(stmt: &mut Stmt, f: &impl Fn(Var) -> Var) {
    match stmt {
        Stmt::Assign { dst, src } => {
            *dst = f(*dst);
            *src = f(*src);
        }
        Stmt::New { dst, .. } => *dst = f(*dst),
        Stmt::NewArray { dst, len, .. } => {
            *dst = f(*dst);
            *len = f(*len);
        }
        Stmt::Store { obj, src, .. } => {
            *obj = f(*obj);
            *src = f(*src);
        }
        Stmt::Load { dst, obj, .. } => {
            *dst = f(*dst);
            *obj = f(*obj);
        }
        Stmt::ArrayStore { arr, index, src } => {
            *arr = f(*arr);
            *index = f(*index);
            *src = f(*src);
        }
        Stmt::ArrayLoad { dst, arr, index } => {
            *dst = f(*dst);
            *arr = f(*arr);
            *index = f(*index);
        }
        Stmt::Call {
            dst, recv, args, ..
        } => {
            if let Some(d) = dst {
                *d = f(*d);
            }
            if let Some(r) = recv {
                *r = f(*r);
            }
            for a in args {
                *a = f(*a);
            }
        }
        Stmt::Const { dst, .. } => *dst = f(*dst),
        Stmt::Bin { dst, a, b, .. } => {
            *dst = f(*dst);
            *a = f(*a);
            *b = f(*b);
        }
        Stmt::RefEq { dst, a, b } => {
            *dst = f(*dst);
            *a = f(*a);
            *b = f(*b);
        }
        Stmt::IsNull { dst, a } => {
            *dst = f(*dst);
            *a = f(*a);
        }
        Stmt::Not { dst, a } => {
            *dst = f(*dst);
            *a = f(*a);
        }
        Stmt::ArrayLen { dst, arr } => {
            *dst = f(*dst);
            *arr = f(*arr);
        }
        Stmt::If { cond, then, els } => {
            *cond = f(*cond);
            for s in then {
                remap_vars(s, f);
            }
            for s in els {
                remap_vars(s, f);
            }
        }
        Stmt::While { header, cond, body } => {
            *cond = f(*cond);
            for s in header {
                remap_vars(s, f);
            }
            for s in body {
                remap_vars(s, f);
            }
        }
        Stmt::Return { var } => {
            if let Some(v) = var {
                *v = f(*v);
            }
        }
        Stmt::Throw { .. } => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::depgraph::deep_method_hash;

    fn sample() -> Program {
        let mut pb = ProgramBuilder::new();
        pb.class("Object").build();
        let mut c = pb.class("Box");
        c.library(true);
        c.field("f", Type::object());
        let mut set = c.method("set");
        let this = set.this();
        let ob = set.param("ob", Type::object());
        let tmp = set.local("tmp", Type::object());
        set.assign(tmp, ob);
        set.store(this, "f", tmp);
        set.finish();
        c.build();
        pb.build()
    }

    #[test]
    fn rename_local_changes_content_not_shape() {
        let mut p = sample();
        let set = p.method_qualified("Box.set").unwrap();
        let before = deep_method_hash(&p, set);
        let out = rename_local(&mut p, set, 3).expect("set has a local");
        assert_eq!(out.kind, MutationKind::RenameLocal);
        assert!(out.description.contains("Box.set"), "{}", out.description);
        assert_ne!(deep_method_hash(&p, set), before);
        assert!(p.method(set).var_named("tmp_r3").is_some());
        // A method without locals cannot be rename-mutated.
        let mut pb = ProgramBuilder::new();
        pb.class("Object").build();
        let mut c = pb.class("A");
        let mut m = c.method("m");
        m.this();
        m.finish();
        c.build();
        let mut p2 = pb.build();
        let m = p2.method_qualified("A.m").unwrap();
        assert!(rename_local(&mut p2, m, 1).is_none());
    }

    #[test]
    fn body_edit_prepends_dead_statement() {
        let mut p = sample();
        let set = p.method_qualified("Box.set").unwrap();
        let before_len = p.method(set).body().len();
        let before = deep_method_hash(&p, set);
        edit_body(&mut p, set, 9);
        assert_eq!(p.method(set).body().len(), before_len + 1);
        assert!(matches!(
            p.method(set).body()[0],
            Stmt::Const {
                value: Constant::Int(9),
                ..
            }
        ));
        assert_ne!(deep_method_hash(&p, set), before);
    }

    #[test]
    fn add_method_appends_a_public_probe() {
        let mut p = sample();
        let boxc = p.class_named("Box").unwrap();
        let num_before = p.num_methods();
        let out = add_method(&mut p, boxc, 4);
        assert_eq!(p.num_methods(), num_before + 1);
        let probe = p.method_qualified("Box.probe4").expect("registered");
        assert_eq!(out.method, probe);
        let m = p.method(probe);
        assert!(m.is_public() && m.has_this() && !m.is_constructor());
        // The class's method list stays sorted (append-only ids).
        let methods = p.class(boxc).methods();
        let mut sorted = methods.to_vec();
        sorted.sort();
        assert_eq!(methods, &sorted[..]);
    }

    #[test]
    fn undo_restores_the_program_for_every_primitive() {
        let p = sample();
        let set = p.method_qualified("Box.set").unwrap();
        let boxc = p.class_named("Box").unwrap();
        for kind in [
            MutationKind::RenameLocal,
            MutationKind::BodyEdit,
            MutationKind::SignatureChange,
            MutationKind::AddMethod,
        ] {
            let mut edited = p.clone();
            let undo = match kind {
                MutationKind::AddMethod => Undo::before_append(&edited),
                _ => Undo::before_edit(&edited, set),
            };
            match kind {
                MutationKind::RenameLocal => {
                    rename_local(&mut edited, set, 1).expect("set has a local");
                }
                MutationKind::BodyEdit => {
                    edit_body(&mut edited, set, 2);
                }
                MutationKind::SignatureChange => {
                    change_signature(&mut edited, set, 3);
                }
                MutationKind::AddMethod => {
                    add_method(&mut edited, boxc, 4);
                }
            }
            assert!(edited != p, "{kind} changed nothing");
            undo.apply(&mut edited);
            assert!(edited == p, "undoing {kind} left a different program");
        }
    }

    #[test]
    fn signature_change_shifts_locals_consistently() {
        let mut p = sample();
        let set = p.method_qualified("Box.set").unwrap();
        change_signature(&mut p, set, 5);
        let m = p.method(set);
        assert_eq!(m.num_params(), 2);
        assert_eq!(m.var_data(m.param_var(1)).name, "__x5");
        // The local `tmp` moved up by one, and the body still refers to it.
        let tmp = m.var_named("tmp").unwrap();
        assert_eq!(tmp.index(), 3);
        match &m.body()[0] {
            Stmt::Assign { dst, src } => {
                assert_eq!(*dst, tmp);
                assert_eq!(m.var_data(*src).name, "ob");
            }
            other => panic!("unexpected stmt {other:?}"),
        }
        match &m.body()[1] {
            Stmt::Store { obj, src, .. } => {
                assert_eq!(m.var_data(*obj).name, "this");
                assert_eq!(*src, tmp);
            }
            other => panic!("unexpected stmt {other:?}"),
        }
    }
}
