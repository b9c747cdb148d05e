//! Differential test of the state a served session carries across its
//! edits.
//!
//! The daemon builds its library's interface, `ContentIndex` and
//! bytecode compilation once at start-up and, after each edit — applied
//! to the session's program in place — brings each up to date for only
//! the method the mutation touched (`LibraryInterface::sync_method`,
//! `ContentIndex::rehash`, `CompiledProgram::recompile`).  That is exact
//! only because the `atlas_ir::mutate` primitives are append-only.  This
//! suite chains a long stream of mutation-generator edits — the four
//! kinds in rotation, ineligible edits skipped, as the served-edit
//! benchmark generates them — and after every edit holds the carried
//! state to the from-scratch one: the program edited in place to
//! `mutate_library`'s clone, the interface to `from_program`, the
//! compilation to `CompiledProgram::compile` method by method, and the
//! index to a fresh `ContentIndex::build`, `library_fingerprint`, each
//! cluster's `DepGraph` closure fingerprint, and the verdict keys of a
//! `CacheKeyer::with_fingerprint`.  The first edit of each kind is also
//! undone once, which must give back the state before it.  The javalib
//! stream is the start of the one the `serve-edits` benchmark workload
//! replays.

use atlas_apps::{build_library, mutate_library, mutate_library_in_place, MutationConfig};
use atlas_interp::{CompiledProgram, ExecLimits};
use atlas_ir::hash::library_fingerprint;
use atlas_ir::{
    ContentIndex, DepGraph, LibraryInterface, MethodId, MutationKind, ParamSlot, Program,
};
use atlas_learn::CacheKeyer;
use atlas_synth::InitStrategy;

/// The generator rotation of the stream.
const KINDS: [MutationKind; 4] = [
    MutationKind::BodyEdit,
    MutationKind::RenameLocal,
    MutationKind::AddMethod,
    MutationKind::SignatureChange,
];

/// Edits proposed per library; ineligible ones are skipped.
const EDITS: usize = 320;

/// Slots up to which every edit's key check sweeps every two-slot word.
/// Past it (javalib's 237-306 slots) a sweep costs about 0.1 s in a debug
/// build, so it runs every [`FULL_SWEEP_EVERY`] edits, and the edits
/// between check the two-slot words over the edited method — the only
/// keys an edit can move.
const FULL_SWEEP_SLOTS: usize = 100;
const FULL_SWEEP_EVERY: usize = 25;

/// The keys of a keyer over `index` must be the keys of a keyer that
/// hashes `program` afresh: for every word of one interface slot, every
/// word of two slots of which `sweep` admits one, and a word over a method
/// outside the interface (which keys on its raw id).
fn assert_same_keys(
    program: &Program,
    interface: &LibraryInterface,
    index: &ContentIndex,
    sweep: impl Fn(&ParamSlot) -> bool,
) {
    let (strategy, limits) = (InitStrategy::Instantiate, ExecLimits::for_unit_tests());
    let fingerprint = index.library_fingerprint();
    let carried = CacheKeyer::from_index(index, fingerprint, strategy, limits);
    let fresh = CacheKeyer::with_fingerprint(program, interface, fingerprint, strategy, limits);
    let slots = interface.slots();
    for &a in slots {
        assert_eq!(carried.key(&[a]), fresh.key(&[a]), "{a:?}");
        for &b in slots.iter().filter(|b| sweep(&a) || sweep(b)) {
            assert_eq!(carried.key(&[a, b]), fresh.key(&[a, b]), "{a:?} {b:?}");
        }
    }
    // A library may have no method outside its interface; then an id past
    // the last method stands in for one.
    let outside = program
        .methods()
        .map(|m| m.id())
        .find(|&m| interface.sig(m).is_none())
        .unwrap_or(MethodId::from_index(program.num_methods() as u32));
    let word = [ParamSlot::receiver(outside)];
    assert_eq!(carried.key(&word), fresh.key(&word));
}

/// The state a served session carries across its edits.
#[derive(Clone)]
struct Carried {
    program: Program,
    interface: LibraryInterface,
    index: ContentIndex,
    compiled: CompiledProgram,
}

impl Carried {
    fn new(program: Program) -> Carried {
        let interface = LibraryInterface::from_program(&program);
        Carried {
            index: ContentIndex::build(&program, &interface),
            compiled: CompiledProgram::compile(&program),
            interface,
            program,
        }
    }

    /// Brings every derived image in step with the program for `method`,
    /// in the session's order (the index reads the interface).
    fn sync(&mut self, method: MethodId) {
        self.interface.sync_method(&self.program, method);
        self.index.rehash(&self.program, &self.interface, method);
        self.compiled.recompile(&self.program, method);
    }
}

/// The carried compilation lowers every method as `expected` does: code,
/// register window, native name and fast shape.
fn assert_same_lowering(carried: &CompiledProgram, expected: &CompiledProgram, what: &str) {
    assert_eq!(carried.num_methods(), expected.num_methods(), "{what}");
    for i in 0..expected.num_methods() {
        let id = MethodId::from_index(i as u32);
        let (a, b) = (carried.method(id), expected.method(id));
        assert_eq!(a.code(), b.code(), "{what}: {id} code");
        assert_eq!(a.num_regs(), b.num_regs(), "{what}: {id} registers");
        assert_eq!(a.native(), b.native(), "{what}: {id} native name");
        assert!(a == b, "{what}: {id} lowers differently (fast shape)");
    }
}

/// Applies `config` to the carried state in place, then undoes it: the
/// program and every derived image must be back as they were.
fn assert_undo_restores(state: &mut Carried, config: &MutationConfig, what: &str) {
    let before = state.clone();
    let applied = mutate_library_in_place(&mut state.program, config).expect("the edit applies");
    let method = applied.outcome.method;
    state.sync(method);
    applied.undo.apply(&mut state.program);
    state.sync(method);
    assert!(
        state.program == before.program,
        "{what}: undo left a different program"
    );
    assert!(
        state.interface == before.interface,
        "{what}: undo left a different interface"
    );
    assert!(
        state.index == before.index,
        "{what}: undo left a different index"
    );
    assert_same_lowering(&state.compiled, &before.compiled, what);
}

/// Chains the edit stream over `library`, checking the carried state
/// after every accepted edit; returns how many edits were accepted.
fn chain(library: &str, seed: u64) -> usize {
    let lib = build_library(library, 0x5EED).expect("registered library");
    let mut state = Carried::new(lib.program);
    let mut undone = [false; KINDS.len()];
    let mut accepted = 0;
    for i in 0..EDITS {
        let config = MutationConfig::new(KINDS[i % KINDS.len()], seed + i as u64);
        let Ok(mutated) = mutate_library(&state.program, &config) else {
            continue;
        };
        accepted += 1;
        let what = format!("{library} edit {i}: {}", mutated.outcome.description);
        if !std::mem::replace(&mut undone[i % KINDS.len()], true) {
            assert_undo_restores(&mut state, &config, &what);
        }
        let applied =
            mutate_library_in_place(&mut state.program, &config).expect("the clone's edit applies");
        assert_eq!(applied.outcome.description, mutated.outcome.description);
        assert!(
            state.program == mutated.program,
            "{what}: the program edited in place differs from mutate_library's clone"
        );
        state.sync(applied.outcome.method);
        let Carried {
            program,
            interface,
            index,
            compiled,
        } = &state;

        assert!(
            *interface == LibraryInterface::from_program(program),
            "{what}: the carried interface differs from a fresh one"
        );
        assert_same_lowering(compiled, &CompiledProgram::compile(program), &what);
        assert!(
            *index == ContentIndex::build(program, interface),
            "{what}: the carried index differs from a fresh build"
        );
        assert_eq!(
            index.library_fingerprint(),
            library_fingerprint(program, interface),
            "{what}"
        );
        let graph = DepGraph::build(program);
        for cluster in &lib.clusters {
            assert_eq!(
                index.graph().closure_fingerprint(cluster),
                graph.closure_fingerprint(cluster),
                "{what}: cluster {cluster:?}"
            );
        }
        let full = interface.slots().len() <= FULL_SWEEP_SLOTS || i % FULL_SWEEP_EVERY == 0;
        let edited = applied.outcome.method;
        assert_same_keys(program, interface, index, |slot| {
            full || slot.method == edited
        });
    }
    assert!(undone.iter().all(|&u| u), "an edit kind was never undone");
    accepted
}

#[test]
fn the_carried_index_tracks_a_javalib_edit_stream() {
    let accepted = chain("javalib", 0xA77A5);
    assert!(accepted >= 300, "only {accepted} edits were eligible");
}

#[test]
fn the_carried_index_tracks_a_synthetic_edit_stream() {
    let accepted = chain("synth-small", 7);
    assert!(accepted >= 300, "only {accepted} edits were eligible");
}
