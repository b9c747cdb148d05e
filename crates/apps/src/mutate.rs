//! The deterministic **library mutation generator**: picks an eligible
//! edit target in a built library and applies one of the `atlas_ir::mutate`
//! primitives — to the program in place ([`mutate_library_in_place`],
//! which also returns how to undo the edit), or to a clone
//! ([`mutate_library`]).
//!
//! This is how the incremental-inference pipeline (and its tests) model "a
//! developer edited the library": the generator owns the *policy* —
//! eligibility rules, deterministic target selection, reproducible seeds —
//! while the mechanical edits live in `atlas_ir::mutate`.
//!
//! Eligibility is what keeps mutations well-formed:
//!
//! * `rename-local` needs a method with at least one declared local;
//! * `body-edit` works on any non-native method;
//! * `add-method` targets a library class (the probe name must be fresh);
//! * `signature-change` is restricted to non-constructor methods **without
//!   intra-program callers** (call sites are not patched — the unit-test
//!   synthesizer re-reads signatures, library-internal callers would not).
//!
//! Selection is deterministic: candidates are sorted by qualified name and
//! the seed indexes into them, so the same `(library, knobs)` pair always
//! produces the same mutation — a requirement for reproducible incremental
//! benchmarks and CI gates.

use atlas_ir::mutate::{add_method, change_signature, edit_body, rename_local, Undo};
use atlas_ir::{visit_block, Method, MethodId, MutationKind, MutationOutcome, Program, Stmt};
use std::cmp::Ordering;

/// Knobs of one generated mutation.
#[derive(Debug, Clone)]
pub struct MutationConfig {
    /// Which edit primitive to apply.
    pub kind: MutationKind,
    /// Seed: selects among the eligible targets and tags the generated
    /// names/constants, so distinct seeds give distinct edits.
    pub seed: u64,
    /// Optional explicit target: a qualified `Class.method` name (or a
    /// bare class name for [`MutationKind::AddMethod`]).  `None` picks
    /// deterministically from the eligible candidates.
    pub target: Option<String>,
}

impl MutationConfig {
    /// A mutation of the given kind with the given seed, deterministic
    /// target selection.
    pub fn new(kind: MutationKind, seed: u64) -> MutationConfig {
        MutationConfig {
            kind,
            seed,
            target: None,
        }
    }
}

/// A mutated library: the edited clone plus what was edited.
#[derive(Debug, Clone)]
pub struct MutatedLibrary {
    /// The edited program (the original is untouched).
    pub program: Program,
    /// What the edit was, including a human-readable description.
    pub outcome: MutationOutcome,
}

/// An edit applied in place ([`mutate_library_in_place`]): what was
/// edited, and how to take it back.
#[derive(Debug, Clone)]
pub struct AppliedMutation {
    /// What the edit was, including a human-readable description.
    pub outcome: MutationOutcome,
    /// Restores the program as it was before the edit.
    pub undo: Undo,
}

/// Why no mutation could be generated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MutationError {
    /// The explicit target does not exist in the program.
    UnknownTarget(String),
    /// No method/class in the program satisfies the kind's eligibility
    /// rule (or the explicit target does not).
    NoEligibleTarget(MutationKind),
}

impl std::fmt::Display for MutationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MutationError::UnknownTarget(name) => {
                write!(f, "mutation target '{name}' does not exist")
            }
            MutationError::NoEligibleTarget(kind) => {
                write!(f, "no eligible target for a {kind} mutation")
            }
        }
    }
}

impl std::error::Error for MutationError {}

/// Library methods eligible for the given mutation kind, sorted by
/// qualified name (the deterministic selection order).
fn eligible_methods(program: &Program, kind: MutationKind) -> Vec<MethodId> {
    // Signature changes need "has any caller?" per method: one sweep over
    // every call statement marks each call target.
    let mut called = vec![false; program.num_methods()];
    if kind == MutationKind::SignatureChange {
        for method in program.methods() {
            visit_block(method.body(), &mut |stmt| {
                if let Stmt::Call { method: target, .. } = stmt {
                    called[target.index() as usize] = true;
                }
            });
        }
    }
    let mut candidates: Vec<&Method> = program
        .methods()
        .filter(|m| program.class(m.class()).is_library() && !m.is_native())
        .filter(|m| match kind {
            MutationKind::RenameLocal => m.num_vars() > m.num_params() + usize::from(m.has_this()),
            MutationKind::BodyEdit => true,
            MutationKind::AddMethod => false, // class-targeted, not method-targeted
            MutationKind::SignatureChange => {
                !m.is_constructor() && !called[m.id().index() as usize]
            }
        })
        .collect();
    // The order of `(program.qualified_name(id), id)`, compared in place;
    // within one class that is the method-name order.
    candidates.sort_unstable_by(|a, b| {
        let names = if a.class() == b.class() {
            a.name().cmp(b.name())
        } else {
            cmp_joined(qualified(program, a), qualified(program, b))
        };
        names.then(a.id().cmp(&b.id()))
    });
    candidates.into_iter().map(Method::id).collect()
}

/// The parts of `program.qualified_name(m.id())`: class name, `.`,
/// method name.
fn qualified<'p>(program: &'p Program, m: &'p Method) -> [&'p [u8]; 3] {
    let class = program.class(m.class()).name().as_bytes();
    [class, b".", m.name().as_bytes()]
}

/// Compares the concatenations of two byte-string triples — as
/// `a.concat().cmp(&b.concat())` would — without building them.
fn cmp_joined(a: [&[u8]; 3], b: [&[u8]; 3]) -> Ordering {
    let (mut a, mut b) = (a.iter().copied(), b.iter().copied());
    let (mut x, mut y): (&[u8], &[u8]) = (&[], &[]);
    loop {
        while x.is_empty() {
            match a.next() {
                Some(next) => x = next,
                None => break,
            }
        }
        while y.is_empty() {
            match b.next() {
                Some(next) => y = next,
                None => break,
            }
        }
        if x.is_empty() || y.is_empty() {
            return x.len().cmp(&y.len());
        }
        let n = x.len().min(y.len());
        match x[..n].cmp(&y[..n]) {
            Ordering::Equal => (x, y) = (&x[n..], &y[n..]),
            unequal => return unequal,
        }
    }
}

/// Applies one deterministic mutation to a clone of `base`: the clone
/// plus [`mutate_library_in_place`].
///
/// # Errors
/// Returns [`MutationError`] when the explicit target does not resolve or
/// nothing in the program is eligible for the requested kind.
pub fn mutate_library(
    base: &Program,
    config: &MutationConfig,
) -> Result<MutatedLibrary, MutationError> {
    let mut program = base.clone();
    let outcome = mutate_library_in_place(&mut program, config)?.outcome;
    Ok(MutatedLibrary { program, outcome })
}

/// Applies one deterministic mutation to `program` in place — the same
/// target and edit [`mutate_library`] picks — and returns it with the
/// [`Undo`] that takes it back.
///
/// # Errors
/// Returns [`MutationError`] when the explicit target does not resolve or
/// nothing in the program is eligible for the requested kind; `program`
/// is then unchanged.
pub fn mutate_library_in_place(
    program: &mut Program,
    config: &MutationConfig,
) -> Result<AppliedMutation, MutationError> {
    if config.kind == MutationKind::AddMethod {
        let class = match &config.target {
            Some(name) => program
                .class_named(name)
                .ok_or_else(|| MutationError::UnknownTarget(name.clone()))?,
            None => {
                let mut classes: Vec<(&str, _)> = program
                    .library_classes()
                    .map(|c| (c.name(), c.id()))
                    .collect();
                if classes.is_empty() {
                    return Err(MutationError::NoEligibleTarget(config.kind));
                }
                classes.sort_unstable();
                classes[config.seed as usize % classes.len()].1
            }
        };
        // `ir::mutate::add_method` panics on a name collision; keep the
        // Result contract by rejecting it as ineligible here (e.g. a
        // previously mutated program fed back in).
        if program
            .method_of(class, &format!("probe{}", config.seed))
            .is_some()
        {
            return Err(MutationError::NoEligibleTarget(config.kind));
        }
        let undo = Undo::before_append(program);
        let outcome = add_method(program, class, config.seed);
        return Ok(AppliedMutation { outcome, undo });
    }
    let kind = config.kind;
    let method = match &config.target {
        Some(name) => {
            let id = program
                .method_qualified(name)
                .ok_or_else(|| MutationError::UnknownTarget(name.clone()))?;
            if !eligible_methods(program, kind).contains(&id) {
                return Err(MutationError::NoEligibleTarget(kind));
            }
            id
        }
        None => {
            let eligible = eligible_methods(program, kind);
            if eligible.is_empty() {
                return Err(MutationError::NoEligibleTarget(kind));
            }
            eligible[config.seed as usize % eligible.len()]
        }
    };
    let undo = Undo::before_edit(program, method);
    let outcome = match kind {
        MutationKind::RenameLocal => rename_local(program, method, config.seed)
            .ok_or(MutationError::NoEligibleTarget(kind))?,
        MutationKind::BodyEdit => edit_body(program, method, config.seed),
        MutationKind::SignatureChange => change_signature(program, method, config.seed),
        MutationKind::AddMethod => unreachable!("handled above"),
    };
    Ok(AppliedMutation { outcome, undo })
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlas_ir::depgraph::deep_method_hash;
    use atlas_ir::{DepGraph, LibraryInterface};

    fn javalib() -> Program {
        atlas_javalib::library_program()
    }

    #[test]
    fn every_kind_produces_a_deterministic_wellformed_mutation() {
        let base = javalib();
        for kind in [
            MutationKind::RenameLocal,
            MutationKind::BodyEdit,
            MutationKind::AddMethod,
            MutationKind::SignatureChange,
        ] {
            let a = mutate_library(&base, &MutationConfig::new(kind, 11)).expect("mutate");
            let b = mutate_library(&base, &MutationConfig::new(kind, 11)).expect("mutate again");
            assert_eq!(
                a.outcome.description, b.outcome.description,
                "same seed, same target"
            );
            assert_ne!(
                deep_method_hash(&a.program, a.outcome.method),
                if kind == MutationKind::AddMethod {
                    0 // the method is new; any hash differs from "absent"
                } else {
                    deep_method_hash(&base, a.outcome.method)
                },
                "{kind}: content must change"
            );
            // The mutated program still yields a well-formed interface.
            let interface = LibraryInterface::from_program(&a.program);
            assert!(interface.num_methods() >= 1);
            // The original is untouched.
            assert_eq!(base.num_methods(), javalib().num_methods());
        }
    }

    #[test]
    fn seeds_select_different_targets_and_explicit_targets_resolve() {
        let base = javalib();
        let a = mutate_library(&base, &MutationConfig::new(MutationKind::BodyEdit, 0)).unwrap();
        let b = mutate_library(&base, &MutationConfig::new(MutationKind::BodyEdit, 1)).unwrap();
        assert_ne!(a.outcome.method, b.outcome.method, "seed moves the target");

        let explicit = mutate_library(
            &base,
            &MutationConfig {
                kind: MutationKind::BodyEdit,
                seed: 0,
                target: Some("ArrayList.add".to_string()),
            },
        )
        .expect("explicit target");
        assert_eq!(
            explicit.outcome.description, "body-edit ArrayList.add",
            "{}",
            explicit.outcome.description
        );
        assert!(matches!(
            mutate_library(
                &base,
                &MutationConfig {
                    kind: MutationKind::BodyEdit,
                    seed: 0,
                    target: Some("No.such".to_string()),
                },
            ),
            Err(MutationError::UnknownTarget(_))
        ));
    }

    #[test]
    fn repeated_add_method_is_an_error_not_a_panic() {
        let base = javalib();
        let once = mutate_library(&base, &MutationConfig::new(MutationKind::AddMethod, 3))
            .expect("first add");
        // Feeding the mutated program back with the same seed targets the
        // same class and probe name: ineligible, reported as an error.
        assert_eq!(
            mutate_library(
                &once.program,
                &MutationConfig::new(MutationKind::AddMethod, 3)
            )
            .unwrap_err(),
            MutationError::NoEligibleTarget(MutationKind::AddMethod)
        );
    }

    #[test]
    fn eligible_methods_follow_qualified_name_order() {
        let mut program = javalib();
        for seed in 0..40 {
            mutate_library_in_place(
                &mut program,
                &MutationConfig::new(MutationKind::AddMethod, seed),
            )
            .expect("add a probe");
        }
        for kind in [
            MutationKind::RenameLocal,
            MutationKind::BodyEdit,
            MutationKind::SignatureChange,
        ] {
            let eligible = eligible_methods(&program, kind);
            let mut named: Vec<(String, MethodId)> = eligible
                .iter()
                .map(|&id| (program.qualified_name(id), id))
                .collect();
            named.sort();
            let sorted: Vec<MethodId> = named.into_iter().map(|(_, id)| id).collect();
            assert_eq!(eligible, sorted, "{kind}");
        }
        // A class name that another extends past the separator.
        for (a, b) in [
            (["A", ".", "m"], ["A$B", ".", "a"]),
            (["A", ".", "m"], ["A.B", ".", "a"]),
            (["Ab", ".", ""], ["A", ".", "b"]),
            (["A", ".", "m"], ["A", ".", "m"]),
        ] {
            let bytes = |parts: [&'static str; 3]| parts.map(str::as_bytes);
            assert_eq!(
                cmp_joined(bytes(a), bytes(b)),
                a.concat().cmp(&b.concat()),
                "{a:?} {b:?}"
            );
        }
    }

    #[test]
    fn signature_changes_only_touch_uncalled_methods() {
        let base = javalib();
        let dep_graph = DepGraph::build(&base);
        for seed in 0..8 {
            let m = mutate_library(
                &base,
                &MutationConfig::new(MutationKind::SignatureChange, seed),
            )
            .expect("eligible method exists");
            assert!(
                dep_graph.callers_of(m.outcome.method).is_empty(),
                "{} has callers",
                m.outcome.description
            );
        }
    }
}
