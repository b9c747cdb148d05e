//! The noisy oracle: check a candidate path specification by synthesizing a
//! potential witness and executing it against the blackbox library.

use crate::cache::{CacheKeyer, CacheStats, OracleCache, VerdictCache};
use atlas_interp::{BuiltinRegistry, CompiledProgram, ExecLimits, Vm, VmScratch};
use atlas_ir::{ContentIndex, LibraryInterface, ParamSlot, Program};
use atlas_spec::PathSpec;
use atlas_synth::{
    synthesize_witness, InitStrategy, InstantiationPlanner, WitnessScratch, WitnessTest,
};
use std::sync::Arc;

/// Configuration of the oracle.
#[derive(Debug, Clone)]
pub struct OracleConfig {
    /// How unconstrained reference arguments are initialized.
    pub strategy: InitStrategy,
    /// Execution limits for each unit test.
    pub limits: ExecLimits,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig {
            strategy: InitStrategy::Instantiate,
            limits: ExecLimits::for_unit_tests(),
        }
    }
}

/// Counters describing the oracle's activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OracleStats {
    /// Total queries answered (including memoized hits).
    pub queries: usize,
    /// Queries answered by executing a synthesized unit test.
    pub executions: usize,
    /// Queries that returned 1 (candidate accepted).
    pub positives: usize,
}

impl OracleStats {
    /// Folds another counter set into this one.  Counters are plain sums, so
    /// per-cluster statistics gathered on worker threads merge into the same
    /// totals a sequential run would have produced, in any order.
    pub fn merge(&mut self, other: OracleStats) {
        self.queries += other.queries;
        self.executions += other.executions;
        self.positives += other.positives;
    }
}

/// The noisy oracle of Section 5.1.
///
/// Every verdict is memoized in a content-addressed [`VerdictCache`]
/// (random sampling re-draws the same candidates constantly), and verdicts
/// move between oracles — and across *sessions* — with
/// [`Oracle::with_cache`] / [`Oracle::into_cache`].  Because the keys hash
/// the library's content rather than in-memory ids, a cache built over one
/// program instance warm-starts an oracle over a freshly built but
/// identical program, while a different library variant (or different
/// execution limits / initialization strategy) never produces a hit.
pub struct Oracle<'p> {
    program: &'p Program,
    interface: &'p LibraryInterface,
    planner: InstantiationPlanner,
    config: OracleConfig,
    keyer: CacheKeyer,
    /// The partition of this oracle's key context: the warm verdicts it
    /// started from, plus the ones it computed.
    cache: OracleCache,
    stats: OracleStats,
    /// One registry for the oracle's lifetime, borrowed by every VM.
    builtins: BuiltinRegistry,
    /// The bytecode image, compiled lazily on first use — or injected
    /// up front with [`Oracle::set_compiled_program`] so a whole session
    /// compiles the library exactly once.
    compiled: Option<Arc<CompiledProgram>>,
    /// Recycled VM buffers (arena heap, register stack): cleared between
    /// unit tests, so steady-state bytecode execution allocates nothing.
    scratch: VmScratch,
    /// Recycled witness-lowering buffers (argument staging and the
    /// compiled-witness image), relowered in place per execution.
    witness_scratch: WitnessScratch,
}

impl<'p> Oracle<'p> {
    /// Creates an oracle over the given program (which must contain the
    /// library implementation) and interface, starting from an empty cache.
    pub fn new(
        program: &'p Program,
        interface: &'p LibraryInterface,
        config: OracleConfig,
    ) -> Oracle<'p> {
        Oracle::with_cache(program, interface, config, &VerdictCache::new())
    }

    /// Creates an oracle warm-started from the given verdict cache, keying
    /// its verdicts on the whole-library fingerprint
    /// ([`library_fingerprint`](crate::library_fingerprint)).  The oracle
    /// starts from a copy of the partition of its own key context — hits on
    /// it are attributable in [`CacheStats::warm_hits`] — and its counters
    /// start from zero.
    ///
    /// Partitions of other contexts (different library content, limits,
    /// or initialization strategy) could never be looked up, so the oracle
    /// ignores them.
    pub fn with_cache(
        program: &'p Program,
        interface: &'p LibraryInterface,
        config: OracleConfig,
        cache: &VerdictCache,
    ) -> Oracle<'p> {
        let index = ContentIndex::build(program, interface);
        let keyer = CacheKeyer::from_index(
            &index,
            index.library_fingerprint(),
            config.strategy,
            config.limits,
        );
        Oracle::with_keyer(program, interface, config, keyer, cache)
    }

    /// Creates an oracle whose verdicts are keyed by `keyer`, warm-started
    /// from the partition of `cache` under the keyer's context (see
    /// [`Oracle::with_cache`]).  The keyer carries the key context: the
    /// incremental engine builds it over the run's content index with the
    /// serving cluster's dependency-closure fingerprint, so verdicts
    /// survive edits outside the closure.  It must be built for `config`'s
    /// strategy and limits.
    pub fn with_keyer(
        program: &'p Program,
        interface: &'p LibraryInterface,
        config: OracleConfig,
        keyer: CacheKeyer,
        cache: &VerdictCache,
    ) -> Oracle<'p> {
        let planner = InstantiationPlanner::new(program, interface);
        Oracle {
            program,
            interface,
            planner,
            config,
            cache: OracleCache::new(cache, keyer.context()),
            keyer,
            stats: OracleStats::default(),
            builtins: BuiltinRegistry::with_defaults(),
            compiled: None,
            scratch: VmScratch::default(),
            witness_scratch: WitnessScratch::default(),
        }
    }

    /// Injects a pre-built bytecode image, so callers that run many
    /// oracles over the same library (the engine's cluster jobs, the
    /// bench harness) compile it exactly once and share the result
    /// across threads.  Without this, the oracle compiles lazily on its
    /// first execution.
    pub fn set_compiled_program(&mut self, compiled: Arc<CompiledProgram>) {
        self.compiled = Some(compiled);
    }

    /// The accumulated statistics.
    pub fn stats(&self) -> OracleStats {
        self.stats
    }

    /// The verdict cache's activity counters (hits, misses, warm hits).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The content-addressed keyer for this oracle's context, for callers
    /// that build or inspect cache entries themselves.
    pub fn keyer(&self) -> &CacheKeyer {
        &self.keyer
    }

    /// Consumes the oracle and returns its verdict cache — the partition
    /// of its key context: the verdicts it started from, then the ones it
    /// computed — with its counters, so the answers paid for in one run
    /// can warm-start another oracle — a later cluster, a re-run after an
    /// interface edit, or a whole new session (see the engine's
    /// `warm_start` in `atlas-core`).
    pub fn into_cache(self) -> VerdictCache {
        self.cache.into_cache()
    }

    /// The interface the oracle works over.
    pub fn interface(&self) -> &LibraryInterface {
        self.interface
    }

    /// The instantiation planner (shared with callers that synthesize their
    /// own witnesses, e.g. for display).
    pub fn planner(&self) -> &InstantiationPlanner {
        &self.planner
    }

    /// Checks a raw symbol sequence.  Sequences that are not well-formed
    /// path specifications, or that contain a *degenerate* step (the same
    /// slot used as both entry and exit, which carries no points-to
    /// information and would otherwise flood phase one with trivially-true
    /// candidates), are always rejected.
    pub fn check_word(&mut self, word: &[ParamSlot]) -> bool {
        self.stats.queries += 1;
        let key = self.keyer.key(word);
        if let Some(hit) = self.cache.get(key) {
            if hit {
                self.stats.positives += 1;
            }
            return hit;
        }
        if word.chunks(2).any(|c| c.len() == 2 && c[0] == c[1]) {
            self.cache.insert(key, false);
            return false;
        }
        let result = match PathSpec::new(word.to_vec()) {
            Ok(spec) => self.run_witness(&spec),
            Err(_) => false,
        };
        self.cache.insert(key, result);
        if result {
            self.stats.positives += 1;
        }
        result
    }

    /// Checks a candidate path specification.
    pub fn check(&mut self, spec: &PathSpec) -> bool {
        self.check_word(spec.symbols())
    }

    /// Synthesizes the potential witness for a candidate (without running
    /// it) — useful for inspection and rendering.
    pub fn witness_for(&self, spec: &PathSpec) -> Option<WitnessTest> {
        synthesize_witness(
            self.program,
            self.interface,
            &self.planner,
            spec,
            self.config.strategy,
        )
        .ok()
    }

    fn run_witness(&mut self, spec: &PathSpec) -> bool {
        self.stats.executions += 1;
        let Ok(witness) = synthesize_witness(
            self.program,
            self.interface,
            &self.planner,
            spec,
            self.config.strategy,
        ) else {
            return false;
        };
        let compiled = self
            .compiled
            .get_or_insert_with(|| Arc::new(CompiledProgram::compile(self.program)))
            .clone();
        // The whole query — instantiation plan, argument values, call
        // word, verdict — runs as one compiled unit: lower the witness
        // into the recycled buffer, then execute it inside the VM without
        // re-entering the tree-level harness per op.
        witness.compile_into(&mut self.witness_scratch);
        let scratch = std::mem::take(&mut self.scratch);
        let mut vm = Vm::with_scratch(&compiled, &self.builtins, self.config.limits, scratch);
        let verdict = vm
            .run_witness(self.witness_scratch.compiled())
            .unwrap_or(false);
        self.scratch = vm.into_scratch();
        verdict
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlas_interp::Interpreter;
    use atlas_ir::builder::ProgramBuilder;
    use atlas_ir::Type;

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
    fn oracle_accepts_precise_and_rejects_imprecise() {
        let p = box_program();
        let iface = LibraryInterface::from_program(&p);
        let mut oracle = Oracle::new(&p, &iface, OracleConfig::default());
        let set = p.method_qualified("Box.set").unwrap();
        let get = p.method_qualified("Box.get").unwrap();
        let clone = p.method_qualified("Box.clone").unwrap();
        let good = vec![
            ParamSlot::param(set, 0),
            ParamSlot::receiver(set),
            ParamSlot::receiver(get),
            ParamSlot::ret(get),
        ];
        let bad = vec![
            ParamSlot::param(set, 0),
            ParamSlot::receiver(set),
            ParamSlot::receiver(clone),
            ParamSlot::ret(clone),
        ];
        assert!(oracle.check_word(&good));
        assert!(!oracle.check_word(&bad));
        // Ill-formed words are rejected without execution, and so are
        // degenerate ones (the same slot as both entry and exit of a step).
        let execs = oracle.stats().executions;
        assert!(!oracle.check_word(&good[..1]));
        assert!(!oracle.check_word(&[good[0], good[0]]));
        assert_eq!(oracle.stats().executions, execs);
        // Memoization: re-querying does not re-execute.
        assert!(oracle.check_word(&good));
        assert_eq!(oracle.stats().executions, execs);
        assert!(oracle.stats().queries >= 4);
        assert!(oracle.stats().positives >= 2);
        // A witness can be synthesized for inspection.
        let spec = PathSpec::new(good).unwrap();
        assert!(oracle.witness_for(&spec).is_some());
        assert!(oracle.check(&spec));
        assert!(oracle.interface().num_methods() >= 3);
        assert!(oracle
            .planner()
            .cost(p.class_named("Box").unwrap())
            .is_some());
    }

    #[test]
    fn oracle_report_shows_equivalent_engines() {
        // The oracle runs its witnesses as compiled bytecode; the
        // tree-walking `Interpreter` is the reference it must match.  Over
        // every non-degenerate word of one or two steps on `Box`, each
        // oracle verdict equals the tree-walker's on the same synthesized
        // witness, the compiled witness charges the tree-walker's step
        // count, and the oracle's stats report exactly those executions
        // and positives.
        let p = box_program();
        let iface = LibraryInterface::from_program(&p);
        let limits = ExecLimits::for_unit_tests();
        // Every word of the sweep is asked once, so the memo never
        // answers: each well-formed word executes.
        let mut oracle = Oracle::new(&p, &iface, OracleConfig::default());
        let compiled = CompiledProgram::compile(&p);
        let builtins = BuiltinRegistry::with_defaults();
        let mut scratch = WitnessScratch::default();
        let slots = iface.slots();
        let pairs: Vec<[ParamSlot; 2]> = slots
            .iter()
            .flat_map(|&a| slots.iter().filter(move |&&b| b != a).map(move |&b| [a, b]))
            .collect();
        let words = pairs.iter().map(|step| step.to_vec()).chain(
            pairs
                .iter()
                .flat_map(|first| pairs.iter().map(move |second| [*first, *second].concat())),
        );
        let (mut queries, mut well_formed, mut positives, mut steps) = (0, 0, 0, 0);
        for word in words {
            queries += 1;
            let Ok(spec) = PathSpec::new(word.clone()) else {
                assert!(!oracle.check_word(&word), "{word:?}: ill-formed");
                continue;
            };
            well_formed += 1;
            let reference = oracle.witness_for(&spec).is_some_and(|witness| {
                let mut tree = Interpreter::with_config(&p, builtins.clone(), limits);
                let t = witness.execute_with(&p, &mut tree, &mut scratch);
                let mut vm = Vm::new(&compiled, &builtins, limits);
                let v = vm.run_witness(witness.compile_into(&mut scratch));
                assert_eq!(t, v, "{word:?}: verdict");
                assert_eq!(tree.steps(), vm.steps(), "{word:?}: steps");
                steps += tree.steps();
                t.unwrap_or(false)
            });
            positives += usize::from(reference);
            assert_eq!(oracle.check_word(&word), reference, "{word:?}");
        }
        assert!(steps > 0, "the witnesses must execute");
        assert!(
            positives > 0 && positives < well_formed,
            "the sweep must see both verdicts ({positives} of {well_formed})"
        );
        assert_eq!(
            oracle.stats(),
            OracleStats {
                queries,
                executions: well_formed,
                positives,
            }
        );
    }

    #[test]
    fn stats_merge_and_cache_transfer() {
        let p = box_program();
        let iface = LibraryInterface::from_program(&p);
        let set = p.method_qualified("Box.set").unwrap();
        let get = p.method_qualified("Box.get").unwrap();
        let word = vec![
            ParamSlot::param(set, 0),
            ParamSlot::receiver(set),
            ParamSlot::receiver(get),
            ParamSlot::ret(get),
        ];
        let mut a = Oracle::new(&p, &iface, OracleConfig::default());
        assert!(a.check_word(&word));
        let stats_a = a.stats();
        // Merging per-worker stats gives the same totals as a sequential run.
        let mut merged = OracleStats::default();
        merged.merge(stats_a);
        merged.merge(stats_a);
        assert_eq!(merged.queries, 2 * stats_a.queries);
        assert_eq!(merged.executions, 2 * stats_a.executions);
        assert_eq!(merged.positives, 2 * stats_a.positives);
        // A warm-started oracle answers memoized words without executing.
        let mut b = Oracle::with_cache(&p, &iface, OracleConfig::default(), &a.into_cache());
        assert!(b.check_word(&word));
        assert_eq!(b.stats().executions, 0);
        assert_eq!(b.stats().queries, 1);
    }
}
