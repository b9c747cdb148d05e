//! Property-based tests (proptest) over the core data structures:
//! path-specification well-formedness, FSA/prefix-tree invariants, the
//! points-to solver, and witness synthesis.

use atlas_ir::{LibraryInterface, MethodId, ParamSlot, Program, SlotKind};
use atlas_learn::{Oracle, OracleConfig};
use atlas_pointsto::{ExtractionOptions, Graph, Solver};
use atlas_spec::{CodeFragments, Fsa, MergeWalk, PathSpec, StateId};
use atlas_synth::{synthesize_witness, InitStrategy, InstantiationPlanner};
use proptest::prelude::*;

fn library() -> Program {
    atlas_javalib::library_program()
}

/// The reference for [`Fsa::check_merge`]: the words `Merge(fsa, q, p)`
/// adds, enumerated from the merged automaton itself.
fn words_added_by(
    fsa: &Fsa,
    q: StateId,
    p: StateId,
    max_len: usize,
    limit: usize,
) -> Vec<Vec<ParamSlot>> {
    fsa.merge(q, p)
        .enumerate_words(max_len, 4 * limit)
        .into_iter()
        .filter(|w| !fsa.accepts(w))
        .take(limit)
        .collect()
}

/// Strategy producing structurally valid path-specification words over the
/// library interface: alternating entry/exit symbols of the same method,
/// ending in a return, no consecutive returns across steps.
fn valid_word(
    interface: &LibraryInterface,
    max_steps: usize,
) -> impl Strategy<Value = Vec<ParamSlot>> {
    let methods_with_return: Vec<MethodId> = interface
        .methods()
        .iter()
        .filter(|sig| !sig.is_constructor && sig.returns_reference() && sig.has_this)
        .map(|sig| sig.method)
        .collect();
    let methods_any: Vec<MethodId> = interface
        .methods()
        .iter()
        .filter(|sig| !sig.is_constructor && sig.has_this)
        .map(|sig| sig.method)
        .collect();
    let steps = 1..=max_steps;
    (
        steps,
        proptest::collection::vec(any::<prop::sample::Index>(), max_steps * 2 + 1),
    )
        .prop_map(move |(k, picks)| {
            let mut word = Vec::new();
            for i in 0..k {
                let last = i + 1 == k;
                let method = if last {
                    methods_with_return[picks[2 * i].index(methods_with_return.len())]
                } else {
                    methods_any[picks[2 * i].index(methods_any.len())]
                };
                // Entry symbol: receiver (never a return, so the
                // "consecutive returns" constraint holds trivially).
                word.push(ParamSlot::receiver(method));
                // Exit symbol: return for the last step, receiver otherwise.
                if last {
                    word.push(ParamSlot::ret(method));
                } else {
                    word.push(ParamSlot::param(method, 0));
                }
            }
            word
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Structurally valid words are accepted by the PathSpec constructor and
    /// survive a round trip through their own symbols.
    #[test]
    fn valid_words_form_path_specs(word in valid_word(&LibraryInterface::from_program(&library()), 3)) {
        // Words whose non-final steps picked a parameter slot that does not
        // exist (method with no reference parameters) are filtered out.
        let library = library();
        let interface = LibraryInterface::from_program(&library);
        let ok = word.chunks(2).all(|c| {
            interface.slots_of(c[0].method).contains(&c[1]) || c[1].kind == SlotKind::Receiver
        });
        prop_assume!(ok);
        let spec = PathSpec::new(word.clone()).expect("structurally valid word");
        prop_assert_eq!(spec.symbols(), word.as_slice());
        prop_assert_eq!(spec.num_steps() * 2, word.len());
        prop_assert!(spec.last().is_return());
        // The premise has exactly k-1 edges.
        prop_assert_eq!(spec.premise().len(), spec.num_steps() - 1);
    }

    /// The prefix-tree acceptor accepts exactly its construction words.
    #[test]
    fn prefix_tree_accepts_exactly_its_words(
        words in proptest::collection::vec(valid_word(&LibraryInterface::from_program(&library()), 3), 1..5)
    ) {
        let fsa = Fsa::prefix_tree(&words);
        for w in &words {
            prop_assert!(fsa.accepts(w));
        }
        // Any strict prefix of odd length is rejected (prefix-tree accepting
        // states are word endpoints; odd-length prefixes are never words
        // because all words have even length).
        for w in &words {
            if w.len() > 1 {
                prop_assert!(!fsa.accepts(&w[..1]));
            }
        }
        // Enumeration returns at least the distinct words and each is
        // accepted.
        let enumerated = fsa.enumerate_words(8, 256);
        for w in &enumerated {
            prop_assert!(fsa.accepts(w));
        }
        let distinct: std::collections::BTreeSet<_> = words.iter().cloned().collect();
        prop_assert!(enumerated.len() >= distinct.iter().filter(|w| w.len() <= 8).count());
    }

    /// Merging automaton states only ever grows the accepted language.
    #[test]
    fn merging_states_grows_the_language(
        words in proptest::collection::vec(valid_word(&LibraryInterface::from_program(&library()), 2), 1..4),
        q_pick in any::<prop::sample::Index>(),
        p_pick in any::<prop::sample::Index>()
    ) {
        let fsa = Fsa::prefix_tree(&words);
        let n = fsa.num_states();
        prop_assume!(n > 2);
        let q = atlas_spec::StateId(1 + q_pick.index(n - 1) as u32);
        let p = atlas_spec::StateId(p_pick.index(n) as u32);
        prop_assume!(q != p && q != fsa.init());
        let merged = fsa.merge(q, p);
        for w in &words {
            prop_assert!(merged.accepts(w), "merge lost an original word");
        }
    }

    /// The lazy merge walk visits exactly the reference's words, in order,
    /// and stops right after the first refusal.  Earlier merges make the
    /// automaton nondeterministic and give it q→q edges; up to 16 words
    /// of up to 8 symbols take some automata past one 64-state word.
    #[test]
    fn merge_walk_visits_exactly_the_added_words(
        words in proptest::collection::vec(valid_word(&LibraryInterface::from_program(&library()), 4), 1..17),
        earlier in proptest::collection::vec((any::<prop::sample::Index>(), any::<prop::sample::Index>()), 0..4),
        q_pick in any::<prop::sample::Index>(),
        p_pick in any::<prop::sample::Index>(),
        refuse_pick in any::<prop::sample::Index>()
    ) {
        let mut fsa = Fsa::prefix_tree(&words);
        let n = fsa.num_states();
        prop_assume!(n > 2);
        let pair = |q: prop::sample::Index, p: prop::sample::Index| {
            let q = StateId(1 + q.index(n - 1) as u32);
            let p = StateId(p.index(n) as u32);
            (q != p).then_some((q, p))
        };
        for (q, p) in earlier.into_iter().filter_map(|(q, p)| pair(q, p)) {
            fsa = fsa.merge(q, p);
        }
        let Some((q, p)) = pair(q_pick, p_pick) else { return Ok(()); };
        let mut walk = MergeWalk::default();
        for (max_len, limit) in [(8, 64), (8, 2), (4, 1)] {
            let reference = words_added_by(&fsa, q, p, max_len, limit);
            let mut visited = Vec::new();
            let check = fsa.check_merge(q, p, max_len, limit, &mut walk, |w| {
                visited.push(w.to_vec());
                true
            });
            prop_assert_eq!(&visited, &reference);
            prop_assert!(check.accepted);
            prop_assert_eq!(check.words_checked, reference.len());
            let merged_words = fsa.merge(q, p).enumerate_words(max_len, 4 * limit).len();
            prop_assert_eq!(check.capped, reference.len() < limit && merged_words == 4 * limit);

            if reference.is_empty() {
                continue;
            }
            let k = refuse_pick.index(reference.len());
            let mut asked = Vec::new();
            let refused = fsa.check_merge(q, p, max_len, limit, &mut walk, |w| {
                asked.push(w.to_vec());
                asked.len() <= k
            });
            prop_assert_eq!(&asked[..], &reference[..=k]);
            prop_assert!(!refused.accepted);
            prop_assert_eq!(refused.words_checked, k + 1);
        }
    }

    /// Code fragments generated from any set of valid specifications never
    /// introduce aliasing between unrelated client objects (a precision
    /// smoke test), and fragment generation never panics.
    #[test]
    fn fragments_never_alias_unrelated_objects(
        words in proptest::collection::vec(valid_word(&LibraryInterface::from_program(&library()), 2), 1..4)
    ) {
        let library = library();
        let specs: Vec<PathSpec> = words.into_iter().filter_map(|w| PathSpec::new(w).ok()).collect();
        prop_assume!(!specs.is_empty());
        let fragments = CodeFragments::from_specs(&library, &specs);
        // Build a tiny client with two unrelated objects and no library calls.
        let mut pb = atlas_ir::builder::ProgramBuilder::new();
        atlas_javalib::install_library(&mut pb);
        let mut main = pb.class("Main");
        let mut t = main.static_method("run");
        let a = t.local("a", atlas_ir::Type::object());
        let b = t.local("b", atlas_ir::Type::object());
        let object = t.cref("Object");
        t.new_object(a, object);
        t.new_object(b, object);
        let run = t.finish();
        main.build();
        let program = pb.build();
        let graph = Graph::extract(&program, &ExtractionOptions::with_specs(fragments.to_overrides()));
        let result = Solver::new().solve(&graph);
        let rm = program.method(run);
        let na = graph.find_node(atlas_pointsto::Node::Var(run, rm.var_named("a").unwrap())).unwrap();
        let nb = graph.find_node(atlas_pointsto::Node::Var(run, rm.var_named("b").unwrap())).unwrap();
        prop_assert!(!result.alias(na, nb));
    }

    /// Witness synthesis succeeds for every valid candidate over the library
    /// interface, and executing the witness never panics (it may fail, which
    /// the oracle treats as a rejection).
    #[test]
    fn witness_synthesis_is_total_over_valid_candidates(
        word in valid_word(&LibraryInterface::from_program(&library()), 2)
    ) {
        let library = library();
        let interface = LibraryInterface::from_program(&library);
        prop_assume!(word.chunks(2).all(|c| interface.slots_of(c[0].method).contains(&c[1])));
        let Ok(spec) = PathSpec::new(word) else { return Ok(()); };
        let planner = InstantiationPlanner::new(&library, &interface);
        let witness = synthesize_witness(&library, &interface, &planner, &spec, InitStrategy::Instantiate)
            .expect("synthesis must succeed for interface candidates");
        prop_assert!(witness.num_ops() >= spec.num_steps());
        let mut interp = atlas_interp::Interpreter::new(&library);
        let _ = witness.execute(&library, &mut interp);
    }

    /// The oracle is deterministic: asking the same question twice gives the
    /// same answer, memoized or from a fresh oracle each time.
    #[test]
    fn oracle_is_deterministic(word in valid_word(&LibraryInterface::from_program(&library()), 2)) {
        let library = library();
        let interface = LibraryInterface::from_program(&library);
        prop_assume!(word.chunks(2).all(|c| interface.slots_of(c[0].method).contains(&c[1])));
        let mut memoized = Oracle::new(&library, &interface, OracleConfig::default());
        let fresh = || Oracle::new(&library, &interface, OracleConfig::default()).check_word(&word);
        let a1 = memoized.check_word(&word);
        let a2 = memoized.check_word(&word);
        let b1 = fresh();
        let b2 = fresh();
        prop_assert_eq!(a1, a2);
        prop_assert_eq!(b1, b2);
        prop_assert_eq!(a1, b1);
    }
}
