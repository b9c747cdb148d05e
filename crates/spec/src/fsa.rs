//! Nondeterministic finite automata over the path-specification alphabet
//! `V_path`, as used by the language-inference phase (Section 5.3).
//!
//! The automaton starts life as the *prefix-tree acceptor* of the positive
//! examples found in phase one; the RPNI-style learner then repeatedly
//! [`Fsa::merge`]s pairs of states.  Before it does, [`Fsa::check_merge`]
//! walks the words the merge would add, lazily and in bounded
//! breadth-first order, handing each to the oracle.

use crate::path_spec::PathSpec;
use atlas_ir::ParamSlot;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Id of an automaton state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StateId(pub u32);

/// A nondeterministic finite automaton over `V_path`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fsa {
    /// transitions[q] maps a symbol to the set of successor states.
    transitions: Vec<BTreeMap<ParamSlot, BTreeSet<StateId>>>,
    init: StateId,
    accepting: BTreeSet<StateId>,
}

impl Fsa {
    /// The automaton accepting the empty language.
    pub fn empty() -> Fsa {
        Fsa {
            transitions: vec![BTreeMap::new()],
            init: StateId(0),
            accepting: BTreeSet::new(),
        }
    }

    /// Builds the prefix-tree acceptor of the given words: the automaton
    /// whose transition graph is the prefix tree of the words, whose start
    /// state is the root, and whose accept states are the word endpoints.
    pub fn prefix_tree<W: AsRef<[ParamSlot]>>(words: &[W]) -> Fsa {
        let mut fsa = Fsa::empty();
        for word in words {
            let mut state = fsa.init;
            for &sym in word.as_ref() {
                let next = match fsa.transitions[state.0 as usize].get(&sym) {
                    Some(set) if !set.is_empty() => *set.iter().next().expect("non-empty"),
                    _ => {
                        let new_state = fsa.add_state();
                        fsa.add_transition(state, sym, new_state);
                        new_state
                    }
                };
                state = next;
            }
            fsa.accepting.insert(state);
        }
        fsa
    }

    /// Adds a fresh state and returns its id.
    pub fn add_state(&mut self) -> StateId {
        let id = StateId(self.transitions.len() as u32);
        self.transitions.push(BTreeMap::new());
        id
    }

    /// Adds a transition `from --sym--> to`.
    pub fn add_transition(&mut self, from: StateId, sym: ParamSlot, to: StateId) {
        self.transitions[from.0 as usize]
            .entry(sym)
            .or_default()
            .insert(to);
    }

    /// Marks a state as accepting.
    pub fn set_accepting(&mut self, state: StateId, accepting: bool) {
        if accepting {
            self.accepting.insert(state);
        } else {
            self.accepting.remove(&state);
        }
    }

    /// The initial state.
    pub fn init(&self) -> StateId {
        self.init
    }

    /// Whether the state is accepting.
    pub fn is_accepting(&self, state: StateId) -> bool {
        self.accepting.contains(&state)
    }

    /// Total number of allocated states (including unreachable ones left
    /// behind by merges).
    pub fn num_states(&self) -> usize {
        self.transitions.len()
    }

    /// All states, in id order.
    pub fn states(&self) -> impl Iterator<Item = StateId> {
        (0..self.transitions.len() as u32).map(StateId)
    }

    /// Number of states reachable from the initial state.
    pub fn num_reachable_states(&self) -> usize {
        self.reachable().len()
    }

    /// The set of states reachable from the initial state.
    pub fn reachable(&self) -> BTreeSet<StateId> {
        let mut seen = BTreeSet::new();
        let mut queue = VecDeque::new();
        seen.insert(self.init);
        queue.push_back(self.init);
        while let Some(q) = queue.pop_front() {
            for targets in self.transitions[q.0 as usize].values() {
                for &t in targets {
                    if seen.insert(t) {
                        queue.push_back(t);
                    }
                }
            }
        }
        seen
    }

    /// All transitions `(from, symbol, to)`, in a deterministic order.
    pub fn transitions(&self) -> Vec<(StateId, ParamSlot, StateId)> {
        let mut out = Vec::new();
        for (from, map) in self.transitions.iter().enumerate() {
            for (&sym, targets) in map {
                for &to in targets {
                    out.push((StateId(from as u32), sym, to));
                }
            }
        }
        out
    }

    /// Number of transitions.
    pub fn num_transitions(&self) -> usize {
        self.transitions
            .iter()
            .map(|m| m.values().map(|s| s.len()).sum::<usize>())
            .sum()
    }

    /// The successor states of `state` on `sym`.
    pub fn successors(&self, state: StateId, sym: ParamSlot) -> BTreeSet<StateId> {
        self.transitions[state.0 as usize]
            .get(&sym)
            .cloned()
            .unwrap_or_default()
    }

    /// Outgoing transitions of a state.
    pub fn transitions_from(&self, state: StateId) -> Vec<(ParamSlot, StateId)> {
        self.transitions[state.0 as usize]
            .iter()
            .flat_map(|(&sym, targets)| targets.iter().map(move |&t| (sym, t)))
            .collect()
    }

    /// Incoming transitions of a state.
    pub fn transitions_into(&self, state: StateId) -> Vec<(StateId, ParamSlot)> {
        self.transitions()
            .into_iter()
            .filter(|&(_, _, to)| to == state)
            .map(|(from, sym, _)| (from, sym))
            .collect()
    }

    /// Whether the automaton accepts the word.
    pub fn accepts(&self, word: &[ParamSlot]) -> bool {
        let mut current: BTreeSet<StateId> = BTreeSet::new();
        current.insert(self.init);
        for sym in word {
            let mut next = BTreeSet::new();
            for &q in &current {
                if let Some(targets) = self.transitions[q.0 as usize].get(sym) {
                    next.extend(targets.iter().copied());
                }
            }
            if next.is_empty() {
                return false;
            }
            current = next;
        }
        current.iter().any(|q| self.accepting.contains(q))
    }

    /// The `Merge(M, q, p)` operation of Section 5.3: redirects all of `q`'s
    /// incoming and outgoing transitions to `p`, transfers `q`'s accepting
    /// status, and leaves `q` isolated (equivalent to removing it).
    ///
    /// # Panics
    /// Panics if `q` is the initial state or `q == p`.
    pub fn merge(&self, q: StateId, p: StateId) -> Fsa {
        assert_ne!(q, self.init, "cannot merge away the initial state");
        assert_ne!(q, p, "cannot merge a state with itself");
        let mut out = self.clone();
        // Outgoing transitions of q move to p.
        let q_out = std::mem::take(&mut out.transitions[q.0 as usize]);
        for (sym, targets) in q_out {
            for to in targets {
                let to = if to == q { p } else { to };
                out.transitions[p.0 as usize]
                    .entry(sym)
                    .or_default()
                    .insert(to);
            }
        }
        // Incoming transitions into q are redirected to p.
        for map in out.transitions.iter_mut() {
            for targets in map.values_mut() {
                if targets.remove(&q) {
                    targets.insert(p);
                }
            }
        }
        if out.accepting.remove(&q) {
            out.accepting.insert(p);
        }
        out
    }

    /// Enumerates accepted words of length at most `max_len`, stopping after
    /// `limit` words.  Enumeration order is breadth-first, so shorter words
    /// come first.
    pub fn enumerate_words(&self, max_len: usize, limit: usize) -> Vec<Vec<ParamSlot>> {
        let mut out = Vec::new();
        // Frontier of (state-set, word) pairs.
        let mut queue: VecDeque<(BTreeSet<StateId>, Vec<ParamSlot>)> = VecDeque::new();
        let mut init_set = BTreeSet::new();
        init_set.insert(self.init);
        queue.push_back((init_set, Vec::new()));
        while let Some((states, word)) = queue.pop_front() {
            if out.len() >= limit {
                break;
            }
            if !word.is_empty() && states.iter().any(|q| self.accepting.contains(q)) {
                out.push(word.clone());
            }
            if word.len() >= max_len {
                continue;
            }
            // Collect the union of outgoing symbols.
            let mut symbols: BTreeSet<ParamSlot> = BTreeSet::new();
            for &q in &states {
                symbols.extend(self.transitions[q.0 as usize].keys().copied());
            }
            for sym in symbols {
                let mut next = BTreeSet::new();
                for &q in &states {
                    if let Some(t) = self.transitions[q.0 as usize].get(&sym) {
                        next.extend(t.iter().copied());
                    }
                }
                if !next.is_empty() {
                    let mut w = word.clone();
                    w.push(sym);
                    queue.push_back((next, w));
                }
            }
        }
        out
    }

    /// Walks the words that `Merge(M, q, p)` adds — the set `M_diff` queried
    /// against the oracle when deciding whether to accept the merge —
    /// without building the merged automaton.
    ///
    /// The walk is one breadth-first enumeration over the product of the
    /// merged automaton (read off `self`: `q`'s edges count as `p`'s, and
    /// every edge into `q` lands on `p`) and `self`, so each word carries
    /// the state set it reaches in both.  A word is *added* when the merged
    /// automaton accepts it and `self` does not; each added word goes to
    /// `visit` in breadth-first order.  The walk stops
    ///
    /// * when `visit` returns `false` (the merge is refuted),
    /// * after `limit` added words, or
    /// * after `4 × limit` words accepted by the merged automaton, added or
    ///   not, so a merge whose first `4 × limit` words `self` already
    ///   accepts is taken without a single visit.
    ///
    /// Words are at most `max_len` symbols.  The visited sequence is
    /// exactly `self.merge(q, p).enumerate_words(max_len, 4 * limit)`
    /// filtered by `!self.accepts(w)`, cut to `limit` words, up to the
    /// first refusal.  `walk` is scratch space, reused across calls.
    ///
    /// # Panics
    /// Panics if `q` is the initial state or `q == p`.
    pub fn check_merge(
        &self,
        q: StateId,
        p: StateId,
        max_len: usize,
        limit: usize,
        walk: &mut MergeWalk,
        mut visit: impl FnMut(&[ParamSlot]) -> bool,
    ) -> MergeCheck {
        assert_ne!(q, self.init, "cannot merge away the initial state");
        assert_ne!(q, p, "cannot merge a state with itself");
        let cap = limit * 4;
        let mut check = MergeCheck {
            accepted: true,
            words_checked: 0,
            capped: cap == 0,
        };
        if check.capped {
            return check;
        }
        let stride = self.transitions.len().div_ceil(64);
        walk.reset(self, q, p, stride);
        let mut accepted_words = 0;
        let mut node = 0;
        while node < walk.nodes.len() {
            let WalkNode {
                depth,
                merged_accepts,
                current_accepts,
                ..
            } = walk.nodes[node];
            if merged_accepts {
                accepted_words += 1;
                if !current_accepts {
                    check.words_checked += 1;
                    walk.rebuild_word(node);
                    if !visit(&walk.word) {
                        check.accepted = false;
                        return check;
                    }
                    if check.words_checked == limit {
                        return check;
                    }
                }
                if accepted_words == cap {
                    check.capped = true;
                    return check;
                }
            }
            if (depth as usize) < max_len {
                self.expand(walk, node, q, p, stride, max_len);
            }
            node += 1;
        }
        check
    }

    /// Pushes the children of BFS node `node`, one per symbol leaving its
    /// merged-automaton state set, in symbol order.
    fn expand(
        &self,
        walk: &mut MergeWalk,
        node: usize,
        q: StateId,
        p: StateId,
        stride: usize,
        max_len: usize,
    ) {
        walk.edges.clear();
        let at = 2 * stride * node;
        for s in bits(&walk.sets[at..at + stride]) {
            self.push_edges(&mut walk.edges, s, Side::Merged, q, p);
            if s == p.0 as usize {
                self.push_edges(&mut walk.edges, q.0 as usize, Side::Merged, q, p);
            }
        }
        if walk.edges.is_empty() {
            return;
        }
        for s in bits(&walk.sets[at + stride..at + 2 * stride]) {
            self.push_edges(&mut walk.edges, s, Side::Current, q, p);
        }
        // Symbol order is the enumeration order; within one symbol the
        // merged side sorts first, so a group without it is skipped.
        walk.edges.sort_unstable();
        let depth = walk.nodes[node].depth + 1;
        let mut i = 0;
        while i < walk.edges.len() {
            let symbol = walk.edges[i].0;
            let end = i + walk.edges[i..].partition_point(|e| e.0 == symbol);
            if walk.edges[i].1 == Side::Merged {
                let base = walk.sets.len();
                walk.sets.resize(base + 2 * stride, 0);
                for &(_, side, to) in &walk.edges[i..end] {
                    let at = base + if side == Side::Merged { 0 } else { stride };
                    walk.sets[at + to as usize / 64] |= 1 << (to % 64);
                }
                let (merged, current) = walk.sets[base..].split_at(stride);
                walk.nodes.push(WalkNode {
                    parent: node as u32,
                    symbol,
                    depth,
                    merged_accepts: intersects(merged, &walk.merged_accepting),
                    current_accepts: intersects(current, &walk.accepting),
                });
                // Breadth-first order puts every node that will be
                // expanded before the first one at `max_len`, so node
                // `n`'s sets stay at `2 * stride * n`; the last level's
                // are dropped.
                if depth as usize >= max_len {
                    walk.sets.truncate(base);
                }
            }
            i = end;
        }
    }

    /// Appends the outgoing edges of state `s` to `edges`.  On the merged
    /// side an edge into `q` lands on `p`.
    fn push_edges(
        &self,
        edges: &mut Vec<(ParamSlot, Side, u32)>,
        s: usize,
        side: Side,
        q: StateId,
        p: StateId,
    ) {
        let merged = side == Side::Merged;
        for (&sym, targets) in &self.transitions[s] {
            for &to in targets {
                let to = if merged && to == q { p } else { to };
                edges.push((sym, side, to.0));
            }
        }
    }

    /// Enumerates the *valid path specifications* accepted by the automaton
    /// (up to `max_len` symbols, at most `limit`).
    pub fn accepted_specs(&self, max_len: usize, limit: usize) -> Vec<PathSpec> {
        self.enumerate_words(max_len, limit * 2)
            .into_iter()
            .filter_map(|w| PathSpec::new(w).ok())
            .take(limit)
            .collect()
    }

    /// The set of methods that appear in any transition symbol.
    pub fn mentioned_methods(&self) -> BTreeSet<atlas_ir::MethodId> {
        self.transitions()
            .into_iter()
            .map(|(_, sym, _)| sym.method)
            .collect()
    }
}

impl Default for Fsa {
    fn default() -> Self {
        Fsa::empty()
    }
}

/// How a [`Fsa::check_merge`] walk ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergeCheck {
    /// Whether every visited word passed, so the merge may be taken.
    pub accepted: bool,
    /// Number of added words handed to the visitor.
    pub words_checked: usize,
    /// Whether the walk stopped at its cap of `4 × limit` words accepted
    /// by the merged automaton.
    pub capped: bool,
}

/// Which automaton of the product an edge belongs to.  `Merged` sorts
/// first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Side {
    Merged,
    Current,
}

/// One breadth-first node: the word reaching it is its parent's word plus
/// `symbol`.
#[derive(Debug, Clone, Copy)]
struct WalkNode {
    parent: u32,
    symbol: ParamSlot,
    depth: u32,
    /// Whether the merged automaton accepts the word (never the empty one).
    merged_accepts: bool,
    /// Whether the current automaton accepts it.
    current_accepts: bool,
}

/// Scratch space of [`Fsa::check_merge`], reused across merge attempts so
/// a walk allocates only when it outgrows every earlier one.
///
/// The node arena doubles as the breadth-first queue.  Each node that
/// will be expanded owns two dense state sets in `sets` — the merged
/// automaton's, then the current one's — of `stride` 64-bit words each.
#[derive(Debug, Default)]
pub struct MergeWalk {
    nodes: Vec<WalkNode>,
    sets: Vec<u64>,
    edges: Vec<(ParamSlot, Side, u32)>,
    accepting: Vec<u64>,
    merged_accepting: Vec<u64>,
    word: Vec<ParamSlot>,
}

impl MergeWalk {
    /// Clears the arena down to the root node (the empty word at the
    /// initial state) and sets up the accepting masks of both automata.
    fn reset(&mut self, fsa: &Fsa, q: StateId, p: StateId, stride: usize) {
        self.accepting.clear();
        self.accepting.resize(stride, 0);
        for s in &fsa.accepting {
            self.accepting[s.0 as usize / 64] |= 1 << (s.0 % 64);
        }
        self.merged_accepting.clone_from(&self.accepting);
        if fsa.accepting.contains(&q) {
            self.merged_accepting[q.0 as usize / 64] &= !(1 << (q.0 % 64));
            self.merged_accepting[p.0 as usize / 64] |= 1 << (p.0 % 64);
        }
        self.nodes.clear();
        self.sets.clear();
        self.sets.resize(2 * stride, 0);
        let init = fsa.init.0;
        for half in [0, stride] {
            self.sets[half + init as usize / 64] |= 1 << (init % 64);
        }
        self.nodes.push(WalkNode {
            parent: u32::MAX,
            // The root's symbol is never read: no word ends at depth 0.
            symbol: ParamSlot::receiver(atlas_ir::MethodId::from_index(0)),
            depth: 0,
            merged_accepts: false,
            current_accepts: false,
        });
    }

    /// Rebuilds the word reaching `node` into `self.word`.
    fn rebuild_word(&mut self, node: usize) {
        let mut at = node;
        self.word.clear();
        self.word
            .resize(self.nodes[node].depth as usize, self.nodes[node].symbol);
        for slot in self.word.iter_mut().rev() {
            *slot = self.nodes[at].symbol;
            at = self.nodes[at].parent as usize;
        }
    }
}

/// Whether two dense state sets share a state.
fn intersects(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).any(|(x, y)| x & y != 0)
}

/// The members of a dense state set, in increasing order.
fn bits(set: &[u64]) -> impl Iterator<Item = usize> + '_ {
    set.iter().enumerate().flat_map(|(i, &w)| {
        let mut w = w;
        std::iter::from_fn(move || {
            (w != 0).then(|| {
                let b = w.trailing_zeros() as usize;
                w &= w - 1;
                64 * i + b
            })
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlas_ir::MethodId;

    fn slot(m: u32, kind: u8) -> ParamSlot {
        let method = MethodId::from_index(m);
        match kind {
            0 => ParamSlot::receiver(method),
            1 => ParamSlot::param(method, 0),
            _ => ParamSlot::ret(method),
        }
    }

    /// The Box clone-chain example: ob this_set (this_clone r_clone)* this_get r_get.
    fn clone_chain_word(n_clones: usize) -> Vec<ParamSlot> {
        let mut w = vec![slot(0, 1), slot(0, 0)];
        for _ in 0..n_clones {
            w.push(slot(2, 0));
            w.push(slot(2, 2));
        }
        w.push(slot(1, 0));
        w.push(slot(1, 2));
        w
    }

    #[test]
    fn prefix_tree_accepts_exactly_its_words() {
        let words = vec![clone_chain_word(0), clone_chain_word(1)];
        let fsa = Fsa::prefix_tree(&words);
        assert!(fsa.accepts(&clone_chain_word(0)));
        assert!(fsa.accepts(&clone_chain_word(1)));
        assert!(!fsa.accepts(&clone_chain_word(2)));
        assert!(!fsa.accepts(&[]));
        // Prefix tree of a 4-word and a 6-word sharing a 2-symbol prefix:
        // 1 root + 2 shared + 2 + 4 = 9 states.
        assert_eq!(fsa.num_states(), 9);
        assert_eq!(fsa.num_reachable_states(), 9);
        // enumerate_words returns both, shortest first.
        let words = fsa.enumerate_words(10, 100);
        assert_eq!(words.len(), 2);
        assert_eq!(words[0].len(), 4);
    }

    #[test]
    fn merge_generalizes_to_a_loop() {
        // Single positive example with one clone, as in Section 5.3's worked
        // example; merging the post-clone state with the post-set state
        // yields the starred language.
        let word = clone_chain_word(1);
        let fsa = Fsa::prefix_tree(std::slice::from_ref(&word));
        // States along the chain: 0 -ob-> 1 -this_set-> 2 -this_clone-> 3
        // -r_clone-> 4 -this_get-> 5 -r_get-> 6.
        let merged = fsa.merge(StateId(4), StateId(2));
        assert!(merged.accepts(&clone_chain_word(0)));
        assert!(merged.accepts(&clone_chain_word(1)));
        assert!(merged.accepts(&clone_chain_word(5)));
        assert!(!merged.accepts(&clone_chain_word(1)[..4]));
        // The original did not accept the 0- and 2-clone variants.
        assert!(!fsa.accepts(&clone_chain_word(0)));
        // check_merge visits the newly accepted members (bounded), without
        // the merged automaton.
        let mut added = Vec::new();
        let mut walk = MergeWalk::default();
        let check = fsa.check_merge(StateId(4), StateId(2), 8, 50, &mut walk, |w| {
            added.push(w.to_vec());
            true
        });
        assert!(check.accepted && !check.capped);
        assert_eq!(check.words_checked, added.len());
        assert_eq!(added, vec![clone_chain_word(0), clone_chain_word(2)]);
        // Reachable states shrink after the merge.
        assert!(merged.num_reachable_states() < fsa.num_reachable_states());
    }

    #[test]
    fn accepted_specs_filters_invalid_words() {
        // A word ending in a non-return symbol is not a valid path spec.
        let bad = vec![slot(0, 1), slot(0, 0)];
        let good = clone_chain_word(0);
        let fsa = Fsa::prefix_tree(&[bad, good.clone()]);
        let specs = fsa.accepted_specs(10, 10);
        assert_eq!(specs.len(), 1);
        assert_eq!(specs[0].symbols(), good.as_slice());
        assert_eq!(fsa.mentioned_methods().len(), 2);
    }

    #[test]
    fn manual_construction_and_queries() {
        let mut fsa = Fsa::empty();
        assert!(!fsa.accepts(&[]));
        let a = fsa.add_state();
        fsa.add_transition(fsa.init(), slot(0, 1), a);
        fsa.set_accepting(a, true);
        assert!(fsa.accepts(&[slot(0, 1)]));
        assert!(fsa.is_accepting(a));
        fsa.set_accepting(a, false);
        assert!(!fsa.accepts(&[slot(0, 1)]));
        fsa.set_accepting(a, true);
        assert_eq!(fsa.num_transitions(), 1);
        assert_eq!(fsa.transitions_from(fsa.init()).len(), 1);
        assert_eq!(fsa.transitions_into(a).len(), 1);
        assert_eq!(fsa.successors(fsa.init(), slot(0, 1)).len(), 1);
        assert!(fsa.successors(a, slot(0, 1)).is_empty());
        assert_eq!(Fsa::default(), Fsa::empty());
    }

    #[test]
    fn the_unchecked_merge_cap_binds_before_any_added_word() {
        // Four two-symbol words leave the root, then a b c d.  Merging the
        // state after `a b` into the root adds `c d`, but breadth-first
        // order puts it after the four words the tree already accepts.
        let mut words: Vec<Vec<ParamSlot>> = (0..4).map(|m| vec![slot(m, 0), slot(m, 2)]).collect();
        words.push(vec![slot(10, 0), slot(10, 2), slot(11, 0), slot(11, 2)]);
        let fsa = Fsa::prefix_tree(&words);
        let q = StateId(10);
        assert_eq!(fsa.transitions_from(q), vec![(slot(11, 0), StateId(11))]);
        let refute = |_: &[ParamSlot]| false;
        let mut walk = MergeWalk::default();
        // At one check per merge the cap is 4 accepted words: all four are
        // old, so the merge is taken with no check at all.
        let unchecked = fsa.check_merge(q, fsa.init(), 8, 1, &mut walk, refute);
        assert_eq!(
            unchecked,
            MergeCheck {
                accepted: true,
                words_checked: 0,
                capped: true
            }
        );
        // At two checks the cap is 8, and `c d` is checked and refuted.
        let checked = fsa.check_merge(q, fsa.init(), 8, 2, &mut walk, refute);
        assert!(!checked.accepted && checked.words_checked == 1);
        assert!(fsa
            .merge(q, fsa.init())
            .accepts(&[slot(11, 0), slot(11, 2)]));
    }

    #[test]
    #[should_panic(expected = "initial state")]
    fn merging_init_panics() {
        let fsa = Fsa::prefix_tree(&[clone_chain_word(0)]);
        let _ = fsa.merge(StateId(0), StateId(1));
    }

    #[test]
    fn self_loop_via_merge_handles_q_to_q_edges() {
        // word a b where both symbols go through distinct states; merging the
        // middle state into init must rewrite q→q self-edges correctly.
        let w = vec![slot(0, 1), slot(0, 2)];
        let fsa = Fsa::prefix_tree(std::slice::from_ref(&w));
        let merged = fsa.merge(StateId(1), StateId(2));
        // Language must still contain something reachable; no panic and the
        // accepting state is preserved.
        assert!(merged.num_states() == fsa.num_states());
        assert!(merged.transitions().len() >= 2);
    }
}
