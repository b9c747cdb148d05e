//! Phase two: inductive generalization of the positive examples by an
//! RPNI-style state-merging algorithm with an on-the-fly oracle
//! (Section 5.3).
//!
//! The automaton is initialized to the prefix-tree acceptor of the positive
//! examples.  States are then considered in order; for each state `q` the
//! algorithm tries to merge it with each previously kept state `p`, accepts
//! the merge greedily if every word the merge adds (up to a bounded length)
//! is accepted by the oracle, and otherwise keeps `q`.
//!
//! A candidate merge is never built to be checked: [`Fsa::check_merge`]
//! walks the words it would add straight off the current automaton and
//! stops at the first one the oracle refutes.  Only accepted merges are
//! carried out.

use crate::oracle::Oracle;
use atlas_spec::{Fsa, MergeWalk, PathSpec, StateId};
use std::collections::BTreeSet;

/// Configuration of the language-inference algorithm.
#[derive(Debug, Clone)]
pub struct RpniConfig {
    /// Maximum length (in symbols) of the added words submitted to the
    /// oracle (the paper uses N = 8).
    pub max_check_len: usize,
    /// Maximum number of added words checked per candidate merge.
    ///
    /// It also caps the enumeration: a merge check looks at no more than
    /// `4 ×` this many words the merged automaton accepts, added or not.
    /// So a merge whose first `4 × max_checks_per_merge` breadth-first
    /// words the current automaton already accepts is taken with no
    /// oracle check at all (counted in [`RpniResult::unchecked_accepts`]).
    pub max_checks_per_merge: usize,
}

impl Default for RpniConfig {
    fn default() -> Self {
        RpniConfig {
            max_check_len: 8,
            max_checks_per_merge: 64,
        }
    }
}

/// The result of language inference.
#[derive(Debug, Clone)]
pub struct RpniResult {
    /// The learned automaton.
    pub fsa: Fsa,
    /// Number of states of the initial prefix-tree acceptor.
    pub initial_states: usize,
    /// Number of reachable states of the final automaton.
    pub final_states: usize,
    /// Number of candidate merges checked.
    pub merge_attempts: usize,
    /// Number of merges accepted.
    pub merges_accepted: usize,
    /// Number of added words submitted to the oracle.
    pub words_checked: usize,
    /// Number of merges accepted without a single oracle check because the
    /// enumeration cap bound first (see
    /// [`RpniConfig::max_checks_per_merge`]).
    pub unchecked_accepts: usize,
}

impl RpniResult {
    /// Extracts the specifications accepted by the learned automaton, up to
    /// the given length and count.
    pub fn specs(&self, max_len: usize, limit: usize) -> Vec<PathSpec> {
        self.fsa.accepted_specs(max_len, limit)
    }
}

/// Runs the RPNI-with-oracle algorithm over the positive examples.
pub fn infer_fsa(
    positives: &[PathSpec],
    oracle: &mut Oracle<'_>,
    config: &RpniConfig,
) -> RpniResult {
    let words: Vec<Vec<atlas_ir::ParamSlot>> =
        positives.iter().map(|s| s.symbols().to_vec()).collect();
    let mut fsa = Fsa::prefix_tree(&words);
    let initial_states = fsa.num_reachable_states();
    // Parity of each state in the prefix tree (distance from the root mod 2):
    // only same-parity merges can produce structurally valid specifications,
    // so other merges are not even attempted.
    let parity = state_parities(&fsa);
    let mut kept: Vec<StateId> = Vec::new();
    let mut merged_away: BTreeSet<StateId> = BTreeSet::new();
    let mut walk = MergeWalk::default();
    let mut merge_attempts = 0;
    let mut merges_accepted = 0;
    let mut words_checked = 0;
    let mut unchecked_accepts = 0;

    let states: Vec<StateId> = fsa.states().collect();
    for q in states {
        if q == fsa.init() || merged_away.contains(&q) {
            continue;
        }
        let mut merged = false;
        for &p in &kept {
            if parity.get(q.0 as usize) != parity.get(p.0 as usize) {
                continue;
            }
            merge_attempts += 1;
            let check = fsa.check_merge(
                q,
                p,
                config.max_check_len,
                config.max_checks_per_merge,
                &mut walk,
                |w| oracle.check_word(w),
            );
            words_checked += check.words_checked;
            if check.accepted {
                fsa = fsa.merge(q, p);
                merged_away.insert(q);
                merges_accepted += 1;
                if check.words_checked == 0 && check.capped {
                    unchecked_accepts += 1;
                }
                merged = true;
                break;
            }
        }
        if !merged {
            kept.push(q);
        }
    }

    let final_states = fsa.num_reachable_states();
    RpniResult {
        fsa,
        initial_states,
        final_states,
        merge_attempts,
        merges_accepted,
        words_checked,
        unchecked_accepts,
    }
}

/// Breadth-first parities of the prefix-tree states (index = state id).
fn state_parities(fsa: &Fsa) -> Vec<u8> {
    let mut parity = vec![u8::MAX; fsa.num_states()];
    let mut queue = std::collections::VecDeque::new();
    parity[fsa.init().0 as usize] = 0;
    queue.push_back(fsa.init());
    while let Some(q) = queue.pop_front() {
        let next_parity = (parity[q.0 as usize] + 1) % 2;
        for (_, to) in fsa.transitions_from(q) {
            if parity[to.0 as usize] == u8::MAX {
                parity[to.0 as usize] = next_parity;
                queue.push_back(to);
            }
        }
    }
    parity
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{Oracle, OracleConfig};
    use atlas_ir::builder::ProgramBuilder;
    use atlas_ir::{LibraryInterface, ParamSlot, Program, Type};

    /// Box with set/get/clone — the worked example of Section 5.3.
    fn box_program() -> Program {
        let mut pb = ProgramBuilder::new();
        let mut obj = pb.class("Object");
        obj.library(true);
        let mut init = obj.constructor();
        init.this();
        init.finish();
        obj.build();
        let mut c = pb.class("Box");
        c.library(true);
        c.field("f", Type::object());
        let mut init = c.constructor();
        init.this();
        init.finish();
        let mut set = c.method("set");
        let this = set.this();
        let ob = set.param("ob", Type::object());
        set.store(this, "f", ob);
        set.finish();
        let mut get = c.method("get");
        get.returns(Type::object());
        let this = get.this();
        let r = get.local("r", Type::object());
        get.load(r, this, "f");
        get.ret(Some(r));
        get.finish();
        let mut clone = c.method("clone");
        clone.returns(Type::class("Box"));
        let this = clone.this();
        let b = clone.local("b", Type::class("Box"));
        let tmp = clone.local("tmp", Type::object());
        let box_class = clone.cref("Box");
        clone.new_object(b, box_class);
        clone.load(tmp, this, "f");
        clone.store(b, "f", tmp);
        clone.ret(Some(b));
        clone.finish();
        c.build();
        pb.build()
    }

    #[test]
    fn generalizes_the_clone_chain_to_a_star() {
        // Given the single positive example with one clone in the middle,
        // the learner must generalize to (this_clone r_clone)*, exactly as in
        // the worked example of Section 5.3.
        let p = box_program();
        let iface = LibraryInterface::from_program(&p);
        let mut oracle = Oracle::new(&p, &iface, OracleConfig::default());
        let set = p.method_qualified("Box.set").unwrap();
        let get = p.method_qualified("Box.get").unwrap();
        let clone = p.method_qualified("Box.clone").unwrap();
        let chain = |n: usize| -> Vec<ParamSlot> {
            let mut w = vec![ParamSlot::param(set, 0), ParamSlot::receiver(set)];
            for _ in 0..n {
                w.push(ParamSlot::receiver(clone));
                w.push(ParamSlot::ret(clone));
            }
            w.push(ParamSlot::receiver(get));
            w.push(ParamSlot::ret(get));
            w
        };
        let example = PathSpec::new(chain(1)).unwrap();
        let result = infer_fsa(&[example], &mut oracle, &RpniConfig::default());
        assert!(result.merges_accepted >= 1, "{result:?}");
        assert!(result.final_states < result.initial_states);
        // The learned language contains the 0-, 1-, 2- and 3-clone variants.
        for n in 0..4 {
            assert!(result.fsa.accepts(&chain(n)), "missing {n}-clone variant");
        }
        // But not ill-formed truncations.
        assert!(!result.fsa.accepts(&chain(1)[..4]));
        // Extracted specs include the base (0-clone) spec.
        let specs = result.specs(8, 32);
        assert!(specs.iter().any(|s| s.symbols() == chain(0).as_slice()));
    }

    #[test]
    fn does_not_merge_when_the_oracle_rejects() {
        // With set/get and set/clone examples, merging the post-get state
        // into the post-clone state would accept `set;clone` returning the
        // element, which the oracle rejects.  The learner must keep the
        // automaton language precise.
        let p = box_program();
        let iface = LibraryInterface::from_program(&p);
        let mut oracle = Oracle::new(&p, &iface, OracleConfig::default());
        let set = p.method_qualified("Box.set").unwrap();
        let get = p.method_qualified("Box.get").unwrap();
        let sbox = PathSpec::new(vec![
            ParamSlot::param(set, 0),
            ParamSlot::receiver(set),
            ParamSlot::receiver(get),
            ParamSlot::ret(get),
        ])
        .unwrap();
        let result = infer_fsa(
            std::slice::from_ref(&sbox),
            &mut oracle,
            &RpniConfig::default(),
        );
        assert!(result.fsa.accepts(sbox.symbols()));
        // The imprecise set→clone spec is not in the learned language.
        let clone = p.method_qualified("Box.clone").unwrap();
        let bad = vec![
            ParamSlot::param(set, 0),
            ParamSlot::receiver(set),
            ParamSlot::receiver(clone),
            ParamSlot::ret(clone),
        ];
        assert!(!result.fsa.accepts(&bad));
    }

    #[test]
    fn empty_input_yields_empty_language() {
        let p = box_program();
        let iface = LibraryInterface::from_program(&p);
        let mut oracle = Oracle::new(&p, &iface, OracleConfig::default());
        let result = infer_fsa(&[], &mut oracle, &RpniConfig::default());
        assert_eq!(result.merges_accepted, 0);
        assert!(result.specs(8, 16).is_empty());
    }
}
