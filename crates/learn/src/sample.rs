//! Phase one: sampling candidate path specifications (Section 5.2).
//!
//! Candidates are built one symbol at a time.  At each step the set of
//! admissible next symbols `T(s)` enforces the path-specification
//! constraints (entry/exit symbols of the same method, no consecutive
//! returns across steps, termination only after a return).  Two sampling
//! strategies choose among the admissible symbols: uniformly at random, or
//! by Monte-Carlo tree search with a softmax over learned scores.

use crate::oracle::Oracle;
use atlas_ir::{LibraryInterface, MethodId, ParamSlot};
use atlas_spec::PathSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeSet, HashMap};

/// Which sampler to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamplingStrategy {
    /// Uniform random choice at every step.
    Random,
    /// Monte-Carlo tree search: softmax over per-prefix scores that are
    /// reinforced when a sampled candidate is accepted by the oracle.
    Mcts,
}

/// Configuration of the sampler.
#[derive(Debug, Clone)]
pub struct SamplerConfig {
    /// Maximum number of method occurrences (steps) per candidate.
    pub max_steps: usize,
    /// RNG seed (sampling is fully deterministic given the seed).
    pub seed: u64,
    /// MCTS learning rate `α` (the paper uses 1/2).
    pub learning_rate: f64,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        SamplerConfig {
            max_steps: 4,
            seed: 0x41544c53,
            learning_rate: 0.5,
        }
    }
}

/// The outcome of a sampling run.
#[derive(Debug, Clone, Default)]
pub struct SampleResult {
    /// Distinct positive examples, in order of first discovery.
    pub positives: Vec<PathSpec>,
    /// Number of candidates drawn (including duplicates and abandoned ones).
    pub num_samples: usize,
    /// Number of samples accepted by the oracle (counting duplicates).
    pub num_positive_samples: usize,
}

impl SampleResult {
    /// The positive rate over all samples.
    pub fn positive_rate(&self) -> f64 {
        if self.num_samples == 0 {
            0.0
        } else {
            self.num_positive_samples as f64 / self.num_samples as f64
        }
    }
}

/// A choice made at one sampling step: either the next symbol or termination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Choice {
    Symbol(ParamSlot),
    Stop,
}

/// The MCTS score table, keyed on the nodes of a trie of reinforced
/// prefixes.  Node 0 is the empty prefix; every prefix of a reinforced
/// word has a node, so a prefix outside the trie has no learned score.
#[derive(Debug, Default)]
struct ScoreTrie {
    /// `(node, choice)` to the choice's learned score after the node's
    /// prefix, and the node of the prefix extended by the choice.
    edges: HashMap<(u32, Choice), TrieEdge>,
}

/// One reinforced choice after a prefix.
#[derive(Debug, Clone, Copy)]
struct TrieEdge {
    score: f64,
    child: u32,
}

impl ScoreTrie {
    /// The node of the empty prefix.
    const ROOT: u32 = 0;

    /// The node of `node`'s prefix extended by `symbol`, if that prefix
    /// was ever reinforced.
    fn child(&self, node: u32, symbol: ParamSlot) -> Option<u32> {
        self.edges
            .get(&(node, Choice::Symbol(symbol)))
            .map(|e| e.child)
    }

    /// The learned score of `choice` after `node`'s prefix.
    fn score(&self, node: u32, choice: Choice) -> Option<f64> {
        self.edges.get(&(node, choice)).map(|e| e.score)
    }

    /// Reinforces the prefix scores of a sampled word with the oracle
    /// outcome.
    fn reinforce(&mut self, word: &[ParamSlot], accepted: bool, alpha: f64) {
        let outcome = if accepted { 1.0 } else { 0.0 };
        let mut node = Self::ROOT;
        for i in 0..=word.len() {
            let choice = word.get(i).map_or(Choice::Stop, |&s| Choice::Symbol(s));
            let fresh = self.edges.len() as u32 + 1;
            let edge = self.edges.entry((node, choice)).or_insert(TrieEdge {
                score: 0.0,
                child: fresh,
            });
            edge.score = (1.0 - alpha) * edge.score + alpha * outcome;
            node = edge.child;
        }
    }
}

/// Samples `num_samples` candidates and returns the positive examples found.
pub fn sample_positive_examples(
    interface: &LibraryInterface,
    oracle: &mut Oracle<'_>,
    strategy: SamplingStrategy,
    num_samples: usize,
    config: &SamplerConfig,
) -> SampleResult {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut result = SampleResult::default();
    let mut seen: BTreeSet<Vec<ParamSlot>> = BTreeSet::new();
    let mut scores = ScoreTrie::default();
    // Pre-compute the per-method slot lists.
    let slots_by_method: HashMap<MethodId, Vec<ParamSlot>> = {
        let mut map: HashMap<MethodId, Vec<ParamSlot>> = HashMap::new();
        for &slot in interface.slots() {
            map.entry(slot.method).or_default().push(slot);
        }
        map
    };
    let all_slots: Vec<ParamSlot> = interface.slots().to_vec();
    let input_slots: Vec<ParamSlot> = all_slots.iter().copied().filter(|s| s.is_input()).collect();
    if all_slots.is_empty() {
        return result;
    }
    // Declaring class of each method, used by the MCTS prior: continuations
    // that stay within the class of the previous call are favoured before
    // any reinforcement signal arrives.
    let class_of: HashMap<MethodId, atlas_ir::ClassId> = interface
        .methods()
        .iter()
        .map(|sig| (sig.method, sig.class))
        .collect();

    for _ in 0..num_samples {
        result.num_samples += 1;
        let Some(word) = sample_one(
            &all_slots,
            &input_slots,
            &slots_by_method,
            &class_of,
            strategy,
            config,
            &scores,
            &mut rng,
        ) else {
            continue;
        };
        let accepted = oracle.check_word(&word);
        if strategy == SamplingStrategy::Mcts {
            scores.reinforce(&word, accepted, config.learning_rate);
        }
        if accepted {
            result.num_positive_samples += 1;
            if seen.insert(word.clone()) {
                if let Ok(spec) = PathSpec::new(word) {
                    result.positives.push(spec);
                }
            }
        }
    }
    result
}

/// Samples a single candidate word, or `None` if the draw had to be
/// abandoned (length cap reached without a valid termination point).
#[allow(clippy::too_many_arguments)]
fn sample_one(
    all_slots: &[ParamSlot],
    input_slots: &[ParamSlot],
    slots_by_method: &HashMap<MethodId, Vec<ParamSlot>>,
    class_of: &HashMap<MethodId, atlas_ir::ClassId>,
    strategy: SamplingStrategy,
    config: &SamplerConfig,
    scores: &ScoreTrie,
    rng: &mut StdRng,
) -> Option<Vec<ParamSlot>> {
    let mut word: Vec<ParamSlot> = Vec::new();
    // The trie node of `word`, until the word leaves the trie.
    let mut node = Some(ScoreTrie::ROOT);
    let max_len = config.max_steps * 2;
    loop {
        let choices: Vec<Choice> =
            admissible_choices(&word, all_slots, input_slots, slots_by_method, max_len);
        if choices.is_empty() {
            return None;
        }
        let choice = match strategy {
            SamplingStrategy::Random => choices[rng.gen_range(0..choices.len())],
            SamplingStrategy::Mcts => {
                softmax_choice(&choices, word.last(), node, scores, class_of, rng)
            }
        };
        match choice {
            Choice::Stop => return Some(word),
            Choice::Symbol(slot) => {
                node = node.and_then(|n| scores.child(n, slot));
                word.push(slot);
            }
        }
        if word.len() > max_len {
            return None;
        }
    }
}

/// The admissible next choices `T(s)` for the partial word `s`.
fn admissible_choices(
    word: &[ParamSlot],
    all_slots: &[ParamSlot],
    input_slots: &[ParamSlot],
    slots_by_method: &HashMap<MethodId, Vec<ParamSlot>>,
    max_len: usize,
) -> Vec<Choice> {
    let mut out = Vec::new();
    if word.len() % 2 == 1 {
        // We just placed an entry symbol z_i: the exit symbol w_i must
        // belong to the same method.  The degenerate choice w_i = z_i is
        // excluded (it carries no points-to information).
        let z = word[word.len() - 1];
        if let Some(slots) = slots_by_method.get(&z.method) {
            out.extend(
                slots
                    .iter()
                    .filter(|&&s| s != z)
                    .map(|&s| Choice::Symbol(s)),
            );
        }
        return out;
    }
    if word.is_empty() {
        // First entry symbol: any slot.
        if word.len() < max_len {
            out.extend(all_slots.iter().map(|&s| Choice::Symbol(s)));
        }
        return out;
    }
    // We just placed an exit symbol w_i.
    let w = word[word.len() - 1];
    if w.is_return() {
        // The word is currently a valid specification: termination allowed,
        // and continuation only with input symbols (no consecutive returns).
        out.push(Choice::Stop);
        if word.len() < max_len {
            out.extend(input_slots.iter().map(|&s| Choice::Symbol(s)));
        }
    } else if word.len() < max_len {
        // Continuation with any symbol.
        out.extend(all_slots.iter().map(|&s| Choice::Symbol(s)));
    }
    out
}

/// Softmax selection over the learned scores of the trie node `node` (the
/// current prefix, or `None` once the prefix has left the trie).
/// Unvisited choices fall back to a structural prior: continuations within
/// the class of the previous call (`last`) score higher, and termination
/// gets a small positive score.
fn softmax_choice(
    choices: &[Choice],
    last: Option<&ParamSlot>,
    node: Option<u32>,
    scores: &ScoreTrie,
    class_of: &HashMap<MethodId, atlas_ir::ClassId>,
    rng: &mut StdRng,
) -> Choice {
    let prior = |c: &Choice| -> f64 {
        match (c, last) {
            (Choice::Stop, _) => 0.75,
            (Choice::Symbol(s), Some(prev)) => {
                if class_of.get(&s.method) == class_of.get(&prev.method) {
                    1.5
                } else {
                    0.0
                }
            }
            (Choice::Symbol(_), None) => 0.0,
        }
    };
    let weights: Vec<f64> = choices
        .iter()
        .map(|c| {
            node.and_then(|n| scores.score(n, *c))
                .unwrap_or_else(|| prior(c))
                .exp()
        })
        .collect();
    let total: f64 = weights.iter().sum();
    let mut pick = rng.gen_range(0.0..total.max(f64::MIN_POSITIVE));
    for (c, w) in choices.iter().zip(&weights) {
        if pick < *w {
            return *c;
        }
        pick -= w;
    }
    *choices.last().expect("choices non-empty")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{Oracle, OracleConfig};
    use atlas_ir::builder::ProgramBuilder;
    use atlas_ir::{Program, Type};

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
        c.build();
        pb.build()
    }

    #[test]
    fn random_sampling_finds_the_box_spec() {
        let p = box_program();
        let iface = LibraryInterface::from_program(&p);
        let mut oracle = Oracle::new(&p, &iface, OracleConfig::default());
        let config = SamplerConfig {
            max_steps: 2,
            seed: 7,
            ..SamplerConfig::default()
        };
        let result =
            sample_positive_examples(&iface, &mut oracle, SamplingStrategy::Random, 400, &config);
        assert_eq!(result.num_samples, 400);
        assert!(result.num_positive_samples > 0);
        assert!(!result.positives.is_empty());
        // The s_box specification must be among the positives.
        let set = p.method_qualified("Box.set").unwrap();
        let get = p.method_qualified("Box.get").unwrap();
        let sbox = vec![
            ParamSlot::param(set, 0),
            ParamSlot::receiver(set),
            ParamSlot::receiver(get),
            ParamSlot::ret(get),
        ];
        assert!(
            result
                .positives
                .iter()
                .any(|s| s.symbols() == sbox.as_slice()),
            "positives: {:?}",
            result.positives.len()
        );
        assert!(result.positive_rate() > 0.0);
    }

    #[test]
    fn mcts_finds_at_least_as_many_positives_as_random() {
        let p = box_program();
        let iface = LibraryInterface::from_program(&p);
        let config = SamplerConfig {
            max_steps: 2,
            seed: 11,
            ..SamplerConfig::default()
        };
        let mut oracle_r = Oracle::new(&p, &iface, OracleConfig::default());
        let random = sample_positive_examples(
            &iface,
            &mut oracle_r,
            SamplingStrategy::Random,
            3_000,
            &config,
        );
        let mut oracle_m = Oracle::new(&p, &iface, OracleConfig::default());
        let mcts = sample_positive_examples(
            &iface,
            &mut oracle_m,
            SamplingStrategy::Mcts,
            3_000,
            &config,
        );
        // MCTS re-samples rewarding prefixes, so over a few thousand draws it
        // hits positives far more often than uniform sampling.
        assert!(
            mcts.num_positive_samples >= random.num_positive_samples,
            "mcts {} vs random {}",
            mcts.num_positive_samples,
            random.num_positive_samples
        );
        // Both find the same distinct specification(s).
        assert!(!mcts.positives.is_empty());
        assert!(mcts.positives.len() >= random.positives.len());
    }

    #[test]
    fn sampling_with_empty_interface_is_a_noop() {
        let p = box_program();
        let iface = LibraryInterface::from_program(&p);
        let empty = iface.restrict_to_classes(&[]);
        let mut oracle = Oracle::new(&p, &iface, OracleConfig::default());
        let result = sample_positive_examples(
            &empty,
            &mut oracle,
            SamplingStrategy::Random,
            10,
            &SamplerConfig::default(),
        );
        assert_eq!(result.num_samples, 0);
        assert!(result.positives.is_empty());
        assert_eq!(result.positive_rate(), 0.0);
    }

    #[test]
    fn sampling_is_deterministic_given_a_seed() {
        let p = box_program();
        let iface = LibraryInterface::from_program(&p);
        let config = SamplerConfig {
            max_steps: 2,
            seed: 42,
            ..SamplerConfig::default()
        };
        let mut o1 = Oracle::new(&p, &iface, OracleConfig::default());
        let r1 = sample_positive_examples(&iface, &mut o1, SamplingStrategy::Random, 200, &config);
        let mut o2 = Oracle::new(&p, &iface, OracleConfig::default());
        let r2 = sample_positive_examples(&iface, &mut o2, SamplingStrategy::Random, 200, &config);
        assert_eq!(r1.num_positive_samples, r2.num_positive_samples);
        assert_eq!(r1.positives, r2.positives);
    }
}
