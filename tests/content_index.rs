//! Differential test of the content index a served session carries
//! across its edits.
//!
//! The daemon builds one `ContentIndex` at start-up and, after each edit,
//! re-hashes only the method the mutation touched
//! (`ContentIndex::rehash`).  That is exact only because the
//! `atlas_ir::mutate` primitives are append-only.  This suite chains a
//! long stream of mutation-generator edits — the four kinds in rotation,
//! ineligible edits skipped, as the served-edit benchmark generates them —
//! and after every edit holds the carried index to the from-scratch
//! digests: a fresh `ContentIndex::build`, `library_fingerprint`, each
//! cluster's `DepGraph` closure fingerprint, and the verdict keys of a
//! `CacheKeyer::with_fingerprint`.  The javalib stream is the start
//! of the one the `serve-edits` benchmark workload replays.

use atlas_apps::{build_library, mutate_library, MutationConfig};
use atlas_interp::ExecLimits;
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

/// Chains the edit stream over `library`, checking the carried index
/// after every accepted edit; returns how many edits were accepted.
fn chain(library: &str, seed: u64) -> usize {
    let lib = build_library(library, 0x5EED).expect("registered library");
    let mut program = lib.program;
    let mut index = ContentIndex::build(&program, &LibraryInterface::from_program(&program));
    let mut accepted = 0;
    for i in 0..EDITS {
        let config = MutationConfig::new(KINDS[i % KINDS.len()], seed + i as u64);
        let Ok(mutated) = mutate_library(&program, &config) else {
            continue;
        };
        accepted += 1;
        program = mutated.program;
        let interface = LibraryInterface::from_program(&program);
        index.rehash(&program, &interface, mutated.outcome.method);
        let what = format!("{library} edit {i}: {}", mutated.outcome.description);

        assert!(
            index == ContentIndex::build(&program, &interface),
            "{what}: the carried index differs from a fresh build"
        );
        assert_eq!(
            index.library_fingerprint(),
            library_fingerprint(&program, &interface),
            "{what}"
        );
        let graph = DepGraph::build(&program);
        for cluster in &lib.clusters {
            assert_eq!(
                index.graph().closure_fingerprint(cluster),
                graph.closure_fingerprint(cluster),
                "{what}: cluster {cluster:?}"
            );
        }
        let full = interface.slots().len() <= FULL_SWEEP_SLOTS || i % FULL_SWEEP_EVERY == 0;
        let edited = mutated.outcome.method;
        assert_same_keys(&program, &interface, &index, |slot| {
            full || slot.method == edited
        });
    }
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
