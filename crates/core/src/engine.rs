//! The parallel inference engine.
//!
//! [`Engine`] owns everything a full inference run needs — the program (the
//! blackbox library implementation), its interface, and an [`AtlasConfig`] —
//! and fans the per-cluster two-phase pipelines out across a configurable
//! pool of worker threads.  Per-cluster inference is embarrassingly
//! parallel: clusters share no mutable state (each gets its own [`Oracle`]),
//! so the only coordination is the shared work queue,
//! [`map_indexed`], handing cluster indices to workers and collecting
//! the results in cluster order.
//!
//! **Determinism.**  A cluster's pipeline depends only on the program, the
//! interface restriction, the configuration, and the cluster's RNG seed —
//! which is derived from the cluster's *position in the configuration*
//! (`base_seed + index`), exactly as the historical sequential loop derived
//! it.  Workers never exchange information, and results are merged in
//! cluster order, so a run with `num_threads = 32` is bit-identical to a
//! run with `num_threads = 1`; only the wall-clock changes.  This is
//! asserted by the `engine_determinism` integration test.
//!
//! A [`Session`] is one prepared run: the resolved cluster jobs plus the
//! resolved thread count.  [`Engine::run`] is the one-shot convenience;
//! sessions can also be inspected before running (`jobs()`, `num_threads()`).
//!
//! **Warm starts.**  [`Engine::warm_start`] seeds every per-cluster oracle
//! with a content-addressed [`VerdictCache`] from a previous run, and
//! [`Session::into_cache`] harvests the cache after a run.  Each oracle
//! starts from its cluster's partition of the cache and adds its own
//! verdicts; the session installs each cluster's partition in cluster
//! order, replacing the one it started from.  Because the oracle is a
//! deterministic function, a warm cache changes *only* how many unit
//! tests are re-executed — never the learned automata — so the
//! determinism guarantee extends to any cache state: cold and warm runs
//! are bit-identical result-for-result.

use crate::budget::map_indexed;
use crate::inference::{AtlasConfig, ClusterOutcome, InferenceOutcome, ParallelismSummary};
use atlas_interp::CompiledProgram;
use atlas_ir::{ClassId, ContentIndex, LibraryInterface, Program};
use atlas_learn::{
    infer_fsa, sample_positive_examples, CacheKeyer, CacheStats, Oracle, OracleConfig, OracleStats,
    SampleResult, VerdictCache,
};
use atlas_obs::{ArgValue, Recorder};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// The parallel specification-inference engine.
///
/// Borrows the program and interface for its lifetime; cheap to construct.
/// See the [module docs](self) for the execution model.
///
/// ```
/// use atlas_core::{AtlasConfig, Engine};
/// use atlas_ir::LibraryInterface;
///
/// let mut pb = atlas_ir::builder::ProgramBuilder::new();
/// atlas_javalib::install_library(&mut pb);
/// atlas_javalib::install_box_example(&mut pb);
/// let program = pb.build();
/// let interface = LibraryInterface::from_program(&program);
///
/// let config = AtlasConfig {
///     samples_per_cluster: 300,
///     clusters: vec![vec![program.class_named("Box").unwrap()]],
///     num_threads: 1,
///     ..AtlasConfig::default()
/// };
/// let outcome = Engine::new(&program, &interface, config).run();
/// assert_eq!(outcome.clusters.len(), 1);
/// assert!(outcome.oracle_queries > 0);
/// ```
pub struct Engine<'p> {
    program: &'p Program,
    interface: &'p LibraryInterface,
    config: AtlasConfig,
    warm: VerdictCache,
    /// The program's [`ContentIndex`], the run's one source of content
    /// hashes: the dependency graph behind the closure fingerprints, the
    /// library fingerprint, and the table every cluster's verdict keyer
    /// reads.  Built on first use with one pretty-print per method, or
    /// handed over by [`Engine::with_index`] — the daemon carries it
    /// across a session's edits and re-hashes only the edited method.
    index: OnceLock<Arc<ContentIndex>>,
    /// Resolved cluster jobs, computed on first use from the index's
    /// graph and cached for the engine's lifetime.
    jobs: OnceLock<Vec<ClusterJob>>,
    /// Bytecode compilation of the program, computed on first use and
    /// shared (via `Arc`) by every per-cluster oracle of every session:
    /// lowering is a pure function of the program, so one compilation
    /// serves all workers.
    compiled: OnceLock<Arc<CompiledProgram>>,
    /// The observability handle (`atlas-obs`).  Disabled by default —
    /// every instrumentation site is then a no-op — and never part of any
    /// verdict, seed, or artifact: recording cannot change results.
    recorder: Recorder,
}

/// One cluster's work order: which classes, which deterministic seed, and
/// the content fingerprint of the cluster's dependency closure.
#[derive(Debug, Clone)]
pub struct ClusterJob {
    /// Position of the cluster in the configuration (also the seed offset).
    pub index: usize,
    /// The classes whose specifications are inferred together.
    pub classes: Vec<ClassId>,
    /// The sampler seed for this cluster: `config.sampler.seed + index`,
    /// identical to what the sequential loop has always used.
    pub seed: u64,
    /// The cluster's identity fingerprint: its dependency-closure content
    /// hash (`atlas_ir::DepGraph::closure_fingerprint`) mixed with the
    /// cluster's seed, its seed-class names and the learner configuration
    /// (sample budget, sampling strategy, sampler and RPNI bounds,
    /// initialization strategy, execution limits).  This is what the
    /// cluster's verdicts and store artifacts are keyed on.  Editing a
    /// method outside the closure leaves it unchanged — the invariant the
    /// incremental pipeline builds on — while two distinct jobs (different
    /// classes, the same classes at a different position, or the same
    /// cluster learned under another configuration) can never alias one
    /// store shard: results depend on all of them, so sharing a shard
    /// across them would splice the wrong automaton.  The flip side:
    /// verdicts cached under one sample budget do not carry over to
    /// another, exactly as they do not carry over between seeds.
    pub closure: u64,
}

impl<'p> Engine<'p> {
    /// Creates an engine over the given program (which must contain the
    /// library implementation) and interface.
    pub fn new(
        program: &'p Program,
        interface: &'p LibraryInterface,
        config: AtlasConfig,
    ) -> Engine<'p> {
        Engine {
            program,
            interface,
            config,
            warm: VerdictCache::new(),
            index: OnceLock::new(),
            jobs: OnceLock::new(),
            compiled: OnceLock::new(),
            recorder: Recorder::off(),
        }
    }

    /// Hands the engine a prebuilt content index instead of building one.
    /// `index` must equal `ContentIndex::build` over this engine's program
    /// and interface — e.g. an earlier program's index brought up to date
    /// with [`ContentIndex::rehash`] after an `atlas_ir::mutate` edit —
    /// or every closure fingerprint, verdict key and library fingerprint
    /// of the run is wrong.
    pub fn with_index(mut self, index: Arc<ContentIndex>) -> Engine<'p> {
        debug_assert_eq!(index.interface_hashes().len(), self.program.num_methods());
        self.index = OnceLock::from(index);
        self
    }

    /// Hands the engine a prebuilt bytecode compilation of its program
    /// instead of lowering every method on first use.  `compiled` must
    /// lower each method as `CompiledProgram::compile` over this engine's
    /// program would — e.g. an earlier program's compilation brought up to
    /// date with [`CompiledProgram::recompile`] after an `atlas_ir::mutate`
    /// edit — or the oracles execute the wrong code.
    pub fn with_compiled(mut self, compiled: Arc<CompiledProgram>) -> Engine<'p> {
        debug_assert_eq!(compiled.num_methods(), self.program.num_methods());
        self.compiled = OnceLock::from(compiled);
        self
    }

    /// The program's content index: handed over by [`Engine::with_index`],
    /// or built on the first call (recording an `engine/index` span on
    /// lane 0) and cached for the engine's lifetime.
    pub fn content_index(&self) -> &Arc<ContentIndex> {
        self.index.get_or_init(|| {
            let mut lane = self.recorder.lane(0);
            let start = lane.begin();
            let index = Arc::new(ContentIndex::build(self.program, self.interface));
            lane.end(
                start,
                "engine",
                "index",
                vec![("methods", ArgValue::from(self.program.num_methods()))],
            );
            index
        })
    }

    /// Attaches an observability recorder: cluster spans, oracle and
    /// cache counters, phase histograms.  The recorder observes the run —
    /// it never influences it, so results with and without one are
    /// byte-identical (asserted by the `trace_determinism` suite).
    pub fn with_recorder(mut self, recorder: Recorder) -> Engine<'p> {
        self.recorder = recorder;
        self
    }

    /// The engine's observability handle (disabled unless
    /// [`Engine::with_recorder`] was called).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// The shared bytecode compilation of the program: handed over by
    /// [`Engine::with_compiled`], or built on first use (recording an
    /// `engine/compile` span on lane 0).
    ///
    /// Cheap to clone (an `Arc`); every per-cluster oracle of every session
    /// of this engine executes the same compiled code.
    pub fn compiled_program(&self) -> Arc<CompiledProgram> {
        self.compiled
            .get_or_init(|| {
                let mut lane = self.recorder.lane(0);
                let start = lane.begin();
                let t = Instant::now();
                let compiled = Arc::new(CompiledProgram::compile(self.program));
                self.recorder
                    .record_duration("engine.compile_ns", t.elapsed());
                lane.count("engine.compilations", 1);
                lane.end(
                    start,
                    "engine",
                    "compile",
                    vec![("methods", ArgValue::from(self.program.num_methods()))],
                );
                compiled
            })
            .clone()
    }

    /// Seeds the engine with a verdict cache from a previous run, replacing
    /// any cache an earlier call seeded: every per-cluster oracle starts
    /// from its partition of these entries and skips re-executing any unit
    /// test whose verdict is already known.  The cache's counters are
    /// dropped, so a session's harvested cache counts only that session's
    /// activity.
    ///
    /// The cache never changes *results* — verdicts are deterministic, so a
    /// hit returns exactly what re-execution would have — only the number of
    /// executions.  Entries keyed for a different library variant, different
    /// execution limits, or a different initialization strategy can never be
    /// looked up (content-addressed keys), so stale caches are harmless.
    ///
    /// ```
    /// use atlas_core::{AtlasConfig, Engine};
    /// use atlas_ir::LibraryInterface;
    ///
    /// let mut pb = atlas_ir::builder::ProgramBuilder::new();
    /// atlas_javalib::install_library(&mut pb);
    /// atlas_javalib::install_box_example(&mut pb);
    /// let program = pb.build();
    /// let interface = LibraryInterface::from_program(&program);
    /// let config = AtlasConfig {
    ///     samples_per_cluster: 300,
    ///     clusters: vec![vec![program.class_named("Box").unwrap()]],
    ///     num_threads: 1,
    ///     ..AtlasConfig::default()
    /// };
    ///
    /// // Cold run: pay for every unit test, then harvest the cache.
    /// let engine = Engine::new(&program, &interface, config.clone());
    /// let mut session = engine.session();
    /// let cold = session.run();
    /// let cache = session.into_cache();
    ///
    /// // Warm run: identical results, no re-executions.
    /// let warm = Engine::new(&program, &interface, config)
    ///     .warm_start(cache)
    ///     .run();
    /// assert_eq!(cold.specs(8, 64), warm.specs(8, 64));
    /// assert_eq!(warm.oracle_executions, 0);
    /// assert!(warm.cache_stats.warm_hits > 0);
    /// ```
    pub fn warm_start(mut self, cache: VerdictCache) -> Engine<'p> {
        self.warm = cache;
        self.warm.reset_stats();
        self
    }

    /// The warm-start cache sessions will begin from (empty unless
    /// [`Engine::warm_start`] was called).
    pub fn warm_cache(&self) -> &VerdictCache {
        &self.warm
    }

    /// The program under inference.
    pub fn program(&self) -> &'p Program {
        self.program
    }

    /// The library interface.
    pub fn interface(&self) -> &'p LibraryInterface {
        self.interface
    }

    /// The run configuration.
    pub fn config(&self) -> &AtlasConfig {
        &self.config
    }

    /// The whole-library content fingerprint
    /// ([`atlas_learn::library_fingerprint`]), read from the content index.
    pub(crate) fn library_fingerprint(&self) -> u64 {
        self.content_index().library_fingerprint()
    }

    /// Resolves the configured clusters into jobs: positional seeds exactly
    /// like the historical sequential loop, plus each cluster's
    /// dependency-closure fingerprint (from the content index's graph),
    /// computed on the first call and cached for the engine's lifetime.
    /// The first call records an `engine/jobs` span on lane 0.
    pub fn cluster_jobs(&self) -> Vec<ClusterJob> {
        self.jobs
            .get_or_init(|| {
                let mut lane = self.recorder.lane(0);
                let start = lane.begin();
                let clusters: Vec<Vec<ClassId>> = if self.config.clusters.is_empty() {
                    vec![self.program.library_classes().map(|c| c.id()).collect()]
                } else {
                    self.config.clusters.clone()
                };
                let dep_graph = self.content_index().graph();
                // Everything else the learned automaton depends on, hashed
                // once: the budget, strategies, sampler and RPNI bounds and
                // the execution limits (the seed is mixed in per job).
                let config = &self.config;
                let mut c = atlas_ir::hash::Fnv::new(0xc0f);
                c.write_u64(config.samples_per_cluster as u64);
                c.write_u64(config.sampling as u64);
                c.write_u64(config.sampler.max_steps as u64);
                c.write_u64(config.sampler.learning_rate.to_bits());
                c.write_u64(config.rpni.max_check_len as u64);
                c.write_u64(config.rpni.max_checks_per_merge as u64);
                c.write_u64(config.init as u64);
                c.write_u64(config.limits.max_steps as u64);
                c.write_u64(config.limits.max_call_depth as u64);
                c.write_u64(config.limits.max_heap_objects as u64);
                let learner = c.finish();
                let jobs = clusters
                    .into_iter()
                    .enumerate()
                    .map(|(index, classes)| {
                        let seed = self.config.sampler.seed.wrapping_add(index as u64);
                        // The job fingerprint mixes the closure *content*
                        // hash with the cluster's own identity (seed +
                        // seed-class names) and the learner configuration:
                        // clusters whose closures coincide as sets
                        // (mutually referencing classes), whose position in
                        // the configuration changed, or that are learned
                        // under another budget must not share a shard —
                        // their automata differ.
                        let mut h = atlas_ir::hash::Fnv::new(0xc1d);
                        h.write_u64(dep_graph.closure_fingerprint(&classes));
                        h.write_u64(seed);
                        h.write_u64(learner);
                        let mut names: Vec<&str> = classes
                            .iter()
                            .map(|&id| self.program.class(id).name())
                            .collect();
                        names.sort_unstable();
                        for name in names {
                            h.write_str(name);
                        }
                        ClusterJob {
                            closure: h.finish(),
                            index,
                            seed,
                            classes,
                        }
                    })
                    .collect::<Vec<_>>();
                lane.end(
                    start,
                    "engine",
                    "jobs",
                    vec![("clusters", ArgValue::from(jobs.len()))],
                );
                jobs
            })
            .clone()
    }

    /// Prepares a session: resolves the cluster list and the thread count.
    pub fn session(&self) -> Session<'_, 'p> {
        let jobs = self.cluster_jobs();
        let num_threads = resolve_threads(self.config.num_threads, jobs.len());
        Session {
            engine: self,
            jobs,
            num_threads,
            collected: self.warm.clone(),
        }
    }

    /// Runs the full two-phase inference pipeline over all clusters.
    pub fn run(&self) -> InferenceOutcome {
        self.session().run()
    }
}

/// Resolves a configured thread count: `0` means "all available cores",
/// and there is never a reason to run more workers than jobs.
pub(crate) fn resolve_threads(configured: usize, num_jobs: usize) -> usize {
    let hw = || {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    };
    let want = if configured == 0 { hw() } else { configured };
    want.clamp(1, num_jobs.max(1))
}

/// A prepared inference run: resolved jobs, the resolved thread count, and
/// the verdict cache the run starts from (and accumulates into).
///
/// ```
/// use atlas_core::{AtlasConfig, Engine};
/// use atlas_ir::LibraryInterface;
///
/// let mut pb = atlas_ir::builder::ProgramBuilder::new();
/// atlas_javalib::install_library(&mut pb);
/// atlas_javalib::install_box_example(&mut pb);
/// let program = pb.build();
/// let interface = LibraryInterface::from_program(&program);
/// let config = AtlasConfig {
///     samples_per_cluster: 200,
///     clusters: vec![vec![program.class_named("Box").unwrap()], vec![]],
///     num_threads: 8,
///     ..AtlasConfig::default()
/// };
/// let engine = Engine::new(&program, &interface, config);
///
/// // Sessions can be inspected before running.
/// let mut session = engine.session();
/// assert_eq!(session.jobs().len(), 2);
/// assert_eq!(session.num_threads(), 2, "never more workers than jobs");
///
/// let outcome = session.run();
/// assert_eq!(outcome.clusters.len(), 1, "the empty cluster is skipped");
/// // The harvested cache holds every verdict the run paid for.
/// assert!(!session.into_cache().is_empty());
/// ```
pub struct Session<'e, 'p> {
    engine: &'e Engine<'p>,
    jobs: Vec<ClusterJob>,
    num_threads: usize,
    /// Starts as a copy of the engine's warm cache; after [`Session::run`],
    /// each cluster's partition is the one its oracle handed back: the warm
    /// verdicts it started from, then the ones it computed.
    collected: VerdictCache,
}

/// What one worker produces for one cluster (`None` when the cluster's
/// interface restriction is empty and the cluster is skipped).
pub(crate) struct ClusterRun {
    pub(crate) outcome: ClusterOutcome,
    pub(crate) stats: OracleStats,
    pub(crate) cache: VerdictCache,
}

impl<'e, 'p> Session<'e, 'p> {
    /// The resolved cluster jobs, in configuration order.
    pub fn jobs(&self) -> &[ClusterJob] {
        &self.jobs
    }

    /// The number of worker threads this session will use.
    pub fn num_threads(&self) -> usize {
        self.num_threads
    }

    /// Consumes the session and returns its verdict cache: the warm-start
    /// entries plus — once [`Session::run`] has been called — every verdict
    /// the run computed, installed in cluster order.  Feed it to
    /// [`Engine::warm_start`] to skip those executions in the next run.
    pub fn into_cache(self) -> VerdictCache {
        self.collected
    }

    /// Runs all cluster pipelines and merges the results in cluster order.
    pub fn run(&mut self) -> InferenceOutcome {
        let wall = Instant::now();
        let mut session_lane = self.engine.recorder.lane(0);
        let session_start = session_lane.begin();
        let slots = map_indexed(&self.jobs, self.num_threads, |_, job| {
            run_cluster_job(self.engine, job, &self.collected)
        });

        let mut outcome = InferenceOutcome {
            clusters: Vec::new(),
            phase1_time: Duration::ZERO,
            phase2_time: Duration::ZERO,
            oracle_queries: 0,
            oracle_executions: 0,
            cache_stats: CacheStats::default(),
            wall_time: Duration::ZERO,
            num_threads: self.num_threads,
        };
        let mut stats = OracleStats::default();
        // Fold in cluster order: per-cluster caches and counters fold into
        // the session totals identically for any scheduling of the workers.
        for run in slots.into_iter().flatten() {
            outcome.phase1_time += run.outcome.phase1_time;
            outcome.phase2_time += run.outcome.phase2_time;
            stats.merge(run.stats);
            outcome.cache_stats.merge(run.cache.stats());
            self.collected.install(run.cache);
            outcome.clusters.push(run.outcome);
        }
        outcome.oracle_queries = stats.queries;
        outcome.oracle_executions = stats.executions;
        outcome.wall_time = wall.elapsed();
        session_lane.end(
            session_start,
            "engine",
            "session",
            vec![
                ("clusters", ArgValue::from(outcome.clusters.len())),
                ("threads", ArgValue::from(self.num_threads)),
            ],
        );
        outcome
    }
}

/// Runs the two-phase pipeline for one cluster.  This is *the*
/// deterministic unit of work: everything it reads is immutable shared
/// state or derived from the job's seed.  Both run shapes queue it
/// through [`map_indexed`] — [`Session::run`] over every job, the
/// store-backed run over its dirty ones — so the runs come back in job
/// order whatever the scheduling.
pub(crate) fn run_cluster_job(
    engine: &Engine<'_>,
    job: &ClusterJob,
    warm: &VerdictCache,
) -> Option<ClusterRun> {
    let config = &engine.config;
    let restricted = engine.interface.restrict_to_classes(&job.classes);
    if restricted.slots().is_empty() {
        return None;
    }
    let oracle_config = OracleConfig {
        strategy: config.init,
        limits: config.limits,
    };
    // Verdicts are keyed on the cluster's dependency-closure fingerprint,
    // so they survive edits outside the closure; the keyer reads the
    // engine's content index instead of hashing the interface again.
    let keyer = CacheKeyer::from_index(
        engine.content_index(),
        job.closure,
        config.init,
        config.limits,
    );
    // Each cluster reads its own partition of the session's warm cache
    // and writes to its own delta: workers never share mutable state, so
    // the thread count cannot change which verdicts are hits.
    let mut oracle =
        Oracle::with_keyer(engine.program, engine.interface, oracle_config, keyer, warm);
    // Oracles share the engine-wide compilation instead of each lowering
    // the program themselves.
    oracle.set_compiled_program(engine.compiled_program());
    let mut sampler_config = config.sampler.clone();
    // Decorrelate clusters while staying deterministic.
    sampler_config.seed = job.seed;

    // The cluster's observability lane: keyed on the job's position in
    // the configuration (lane 0 is the engine-global track), never on the
    // executing thread, so drained events sort identically for any
    // worker count.
    let mut lane = engine.recorder.lane(1 + job.index as u64);
    let cluster_start = lane.begin();

    let p1 = lane.begin();
    let t1 = Instant::now();
    let samples: SampleResult = sample_positive_examples(
        &restricted,
        &mut oracle,
        config.sampling,
        config.samples_per_cluster,
        &sampler_config,
    );
    let phase1_time = t1.elapsed();
    lane.end(
        p1,
        "engine",
        "phase1.sample",
        vec![
            ("samples", ArgValue::from(samples.num_samples)),
            ("positives", ArgValue::from(samples.positives.len())),
        ],
    );

    let p2 = lane.begin();
    let t2 = Instant::now();
    let rpni = infer_fsa(&samples.positives, &mut oracle, &config.rpni);
    let phase2_time = t2.elapsed();
    lane.end(
        p2,
        "engine",
        "phase2.rpni",
        vec![
            ("initial_states", ArgValue::from(rpni.initial_states)),
            ("final_states", ArgValue::from(rpni.final_states)),
            ("merge_attempts", ArgValue::from(rpni.merge_attempts)),
            ("merges_accepted", ArgValue::from(rpni.merges_accepted)),
            ("words_checked", ArgValue::from(rpni.words_checked)),
            ("unchecked_accepts", ArgValue::from(rpni.unchecked_accepts)),
        ],
    );

    let stats = oracle.stats();
    let cache = oracle.into_cache();
    if engine.recorder.is_enabled() {
        let cache_stats = cache.stats();
        lane.count("engine.clusters", 1);
        lane.count("engine.oracle_queries", stats.queries as u64);
        lane.count("engine.oracle_executions", stats.executions as u64);
        lane.count("engine.cache_lookups", cache_stats.lookups as u64);
        lane.count("engine.cache_hits", cache_stats.hits as u64);
        lane.count("engine.cache_warm_hits", cache_stats.warm_hits as u64);
        lane.count("engine.cache_misses", cache_stats.misses as u64);
        lane.count("engine.rpni_merge_attempts", rpni.merge_attempts as u64);
        lane.count("engine.rpni_merges_accepted", rpni.merges_accepted as u64);
        lane.count("engine.rpni_words_checked", rpni.words_checked as u64);
        lane.count(
            "engine.rpni_unchecked_accepts",
            rpni.unchecked_accepts as u64,
        );
        engine
            .recorder
            .record_duration("engine.phase1_ns", phase1_time);
        engine
            .recorder
            .record_duration("engine.phase2_ns", phase2_time);
        lane.end(
            cluster_start,
            "engine",
            "cluster",
            vec![
                ("index", ArgValue::from(job.index)),
                ("closure", ArgValue::Hex(job.closure)),
                ("executions", ArgValue::from(stats.executions)),
            ],
        );
    }
    Some(ClusterRun {
        stats,
        cache,
        outcome: ClusterOutcome {
            classes: job.classes.clone(),
            num_samples: samples.num_samples,
            num_positive_samples: samples.num_positive_samples,
            num_positive_examples: samples.positives.len(),
            initial_states: rpni.initial_states,
            final_states: rpni.final_states,
            positives: samples.positives,
            fsa: rpni.fsa,
            phase1_time,
            phase2_time,
        },
    })
}

impl InferenceOutcome {
    /// Summarizes how well the run parallelized: total per-cluster CPU time
    /// versus wall-clock, and the resulting speedup factor.
    pub fn parallelism(&self) -> ParallelismSummary {
        let cpu_time = self.phase1_time + self.phase2_time;
        let speedup = if self.wall_time.is_zero() {
            1.0
        } else {
            cpu_time.as_secs_f64() / self.wall_time.as_secs_f64()
        };
        ParallelismSummary {
            num_threads: self.num_threads,
            wall_time: self.wall_time,
            cpu_time,
            speedup,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inference::AtlasConfig;

    fn box_setup() -> (Program, LibraryInterface) {
        let mut pb = atlas_ir::builder::ProgramBuilder::new();
        atlas_javalib::install_library(&mut pb);
        atlas_javalib::install_box_example(&mut pb);
        let program = pb.build();
        let interface = LibraryInterface::from_program(&program);
        (program, interface)
    }

    #[test]
    fn session_resolves_jobs_and_threads() {
        let (program, interface) = box_setup();
        let box_class = program.class_named("Box").unwrap();
        let stack = program.class_named("Stack").unwrap();
        let config = AtlasConfig {
            samples_per_cluster: 10,
            clusters: vec![vec![box_class], vec![], vec![stack]],
            num_threads: 8,
            ..AtlasConfig::default()
        };
        let engine = Engine::new(&program, &interface, config);
        let session = engine.session();
        assert_eq!(session.jobs().len(), 3);
        // Seeds are positional, so the empty middle cluster still consumes
        // an offset — exactly like the historical sequential loop.
        let base = engine.config().sampler.seed;
        assert_eq!(session.jobs()[0].seed, base);
        assert_eq!(session.jobs()[2].seed, base.wrapping_add(2));
        // Never more workers than jobs.
        assert_eq!(session.num_threads(), 3);
        assert_eq!(engine.program().num_methods(), program.num_methods());
        assert_eq!(engine.interface().num_methods(), interface.num_methods());
    }

    #[test]
    fn persist_then_splice_from_disk_skips_all_executions() {
        let (program, interface) = box_setup();
        let box_class = program.class_named("Box").unwrap();
        let config = AtlasConfig {
            samples_per_cluster: 250,
            clusters: vec![vec![box_class]],
            num_threads: 1,
            ..AtlasConfig::default()
        };
        let root =
            std::env::temp_dir().join(format!("atlas-engine-persist-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let store_backed = |engine: &Engine<'_>| {
            engine.run_with_store(&engine.run_provenance(), &root, crate::EXTRACTION)
        };
        let render = |artifact: crate::SpecArtifact, program: &Program| {
            artifact.encode(program).unwrap().render()
        };

        // Cold: an empty root fills shard by shard, and the run renders
        // exactly what a plain engine run renders.
        let engine = Engine::new(&program, &interface, config.clone());
        let cold = store_backed(&engine).expect("cold store-backed run");
        assert_eq!((cold.dirty_clusters, cold.forced_dirty), (1, 1));
        assert!(cold.oracle_executions > 0);
        let (max_len, limit) = crate::EXTRACTION;
        let plain = render(
            engine
                .run()
                .spec_artifact(&program, &interface, max_len, limit),
            &program,
        );
        assert_eq!(render(cold.spec_artifact(&program), &program), plain);
        let shard = atlas_store::shard_entry(&root, engine.cluster_jobs()[0].closure);
        assert!(shard.cache.exists() && shard.specs.exists());

        // Warm, against a *freshly built* identical program: the cluster
        // splices from its shard, nothing executes, the bytes are the same.
        let (program2, interface2) = box_setup();
        let engine2 = Engine::new(&program2, &interface2, config);
        let warm = store_backed(&engine2).expect("warm store-backed run");
        assert_eq!(
            (warm.clean_clusters, warm.dirty_clusters, warm.forced_dirty),
            (1, 0, 0)
        );
        assert_eq!(warm.oracle_executions, 0, "everything answered from disk");
        assert!(warm.spliced_verdicts > 0);
        assert_eq!(render(warm.spec_artifact(&program2), &program2), plain);

        // A corrupt shard is a path-carrying error, not a panic.
        std::fs::write(&shard.specs, "{ nope").unwrap();
        let err = store_backed(&engine2).unwrap_err();
        assert!(matches!(err, crate::StoreError::Parse { .. }), "{err}");
        assert!(
            err.to_string().contains(&shard.specs.display().to_string()),
            "{err}"
        );
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn parallel_run_is_identical_to_sequential() {
        let (program, interface) = box_setup();
        let box_class = program.class_named("Box").unwrap();
        let stack = program.class_named("Stack").unwrap();
        let base = AtlasConfig {
            samples_per_cluster: 250,
            clusters: vec![vec![box_class], vec![stack]],
            ..AtlasConfig::default()
        };
        let seq = Engine::new(
            &program,
            &interface,
            AtlasConfig {
                num_threads: 1,
                ..base.clone()
            },
        )
        .run();
        let par = Engine::new(
            &program,
            &interface,
            AtlasConfig {
                num_threads: 4,
                ..base
            },
        )
        .run();
        assert_eq!(seq.clusters.len(), par.clusters.len());
        for (s, p) in seq.clusters.iter().zip(&par.clusters) {
            assert_eq!(s.classes, p.classes);
            assert_eq!(s.positives, p.positives);
            assert_eq!(s.num_samples, p.num_samples);
            assert_eq!(s.num_positive_samples, p.num_positive_samples);
            assert_eq!(s.initial_states, p.initial_states);
            assert_eq!(s.final_states, p.final_states);
        }
        assert_eq!(seq.oracle_queries, par.oracle_queries);
        assert_eq!(seq.oracle_executions, par.oracle_executions);
        assert_eq!(seq.num_threads, 1);
        assert_eq!(par.num_threads, 2, "clamped to the number of jobs");
        let summary = par.parallelism();
        assert_eq!(summary.num_threads, 2);
        assert!(summary.speedup > 0.0);
        assert!(!format!("{summary}").is_empty());
    }
}
