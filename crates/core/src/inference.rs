//! Configuration and outcome types of the two-phase inference pipeline,
//! plus the [`infer_specifications`] convenience entry point.
//!
//! The pipeline itself lives in [`crate::engine`]: an [`crate::Engine`]
//! schedules the per-cluster pipelines across a thread pool and merges the
//! results deterministically.  `infer_specifications` is a thin wrapper kept
//! for callers that do not need to hold an engine.

use atlas_interp::ExecLimits;
use atlas_ir::{ClassId, LibraryInterface, Program};
use atlas_learn::{library_fingerprint, CacheStats, RpniConfig, SamplerConfig, SamplingStrategy};
use atlas_spec::{CodeFragments, Fsa, PathSpec};
use atlas_store::{SpecArtifact, SpecCluster};
use atlas_synth::InitStrategy;
use std::fmt;
use std::time::Duration;

/// Configuration of a full inference run.
#[derive(Debug, Clone)]
pub struct AtlasConfig {
    /// Number of candidate samples drawn per class cluster.
    pub samples_per_cluster: usize,
    /// Sampling strategy for phase one.
    pub sampling: SamplingStrategy,
    /// Initialization strategy used by the unit-test synthesizer.
    pub init: InitStrategy,
    /// Sampler configuration (seed, maximum candidate length, MCTS rate).
    pub sampler: SamplerConfig,
    /// Language-inference configuration (oracle check bound, etc.).
    pub rpni: RpniConfig,
    /// Execution limits for each synthesized unit test, forwarded into the
    /// per-cluster oracles.
    pub limits: ExecLimits,
    /// Clusters of classes whose specifications are inferred together.  If
    /// empty, the whole interface is treated as a single cluster.
    pub clusters: Vec<Vec<ClassId>>,
    /// Worker threads for the cluster scheduler; `0` means one per
    /// available core.  The thread count never changes the result, only the
    /// wall-clock (see [`crate::engine`]).
    pub num_threads: usize,
}

impl Default for AtlasConfig {
    fn default() -> Self {
        AtlasConfig {
            samples_per_cluster: 20_000,
            sampling: SamplingStrategy::Mcts,
            init: InitStrategy::Instantiate,
            sampler: SamplerConfig::default(),
            rpni: RpniConfig::default(),
            limits: ExecLimits::for_unit_tests(),
            clusters: Vec::new(),
            num_threads: 0,
        }
    }
}

/// The outcome of inference over a single class cluster.
#[derive(Debug, Clone)]
pub struct ClusterOutcome {
    /// The classes of the cluster.
    pub classes: Vec<ClassId>,
    /// Phase-one sampling statistics.
    pub num_samples: usize,
    /// Positive samples (counting duplicates).
    pub num_positive_samples: usize,
    /// Distinct positive examples.
    pub num_positive_examples: usize,
    /// States of the prefix-tree acceptor before merging.
    pub initial_states: usize,
    /// Reachable states of the learned automaton.
    pub final_states: usize,
    /// The distinct positive examples found in phase one.
    pub positives: Vec<PathSpec>,
    /// The learned automaton for this cluster.
    pub fsa: Fsa,
    /// Wall-clock spent sampling this cluster (phase one).
    pub phase1_time: Duration,
    /// Wall-clock spent generalizing this cluster (phase two).
    pub phase2_time: Duration,
}

impl ClusterOutcome {
    /// Total wall-clock this cluster's pipeline took.
    pub fn total_time(&self) -> Duration {
        self.phase1_time + self.phase2_time
    }
}

/// How well a run parallelized: per-cluster CPU time versus wall-clock.
#[derive(Debug, Clone, Copy)]
pub struct ParallelismSummary {
    /// Worker threads the scheduler used.
    pub num_threads: usize,
    /// End-to-end wall-clock of the run.
    pub wall_time: Duration,
    /// Summed per-cluster pipeline time (what a 1-thread run would cost).
    pub cpu_time: Duration,
    /// `cpu_time / wall_time` — approaches `num_threads` when clusters are
    /// balanced.
    pub speedup: f64,
}

impl fmt::Display for ParallelismSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} threads: {:.2?} cpu in {:.2?} wall ({:.2}x speedup)",
            self.num_threads, self.cpu_time, self.wall_time, self.speedup
        )
    }
}

/// The outcome of a full inference run.
#[derive(Debug, Clone)]
pub struct InferenceOutcome {
    /// Per-cluster results (learned automata and statistics).
    pub clusters: Vec<ClusterOutcome>,
    /// Total time spent in phase one (sampling), summed over clusters.
    pub phase1_time: Duration,
    /// Total time spent in phase two (language inference), summed over
    /// clusters.
    pub phase2_time: Duration,
    /// Total oracle queries.
    pub oracle_queries: usize,
    /// Total unit-test executions.
    pub oracle_executions: usize,
    /// Aggregated verdict-cache activity (lookups, hits, warm hits,
    /// evictions), summed over the per-cluster oracles in cluster order.
    /// `cache_stats.warm_hits > 0` indicates the run was warm-started.
    pub cache_stats: CacheStats,
    /// End-to-end wall-clock of the run (differs from `phase1_time +
    /// phase2_time` when clusters ran in parallel).
    pub wall_time: Duration,
    /// Worker threads the scheduler used.
    pub num_threads: usize,
}

/// One cluster's persistable result: class names resolved against
/// `program`, specs extracted from `fsa` with `extraction`.  The one
/// construction shared by [`InferenceOutcome::spec_artifact`], shard
/// persistence, and the store-backed run's artifact assembly — so the
/// byte-identical splice invariant cannot be broken by them drifting
/// apart.
pub(crate) fn cluster_spec(
    program: &Program,
    classes: &[ClassId],
    fsa: &Fsa,
    extraction: (usize, usize),
) -> SpecCluster {
    SpecCluster {
        classes: classes
            .iter()
            .map(|&id| program.class(id).name().to_string())
            .collect(),
        specs: fsa.accepted_specs(extraction.0, extraction.1),
        fsa: fsa.clone(),
    }
}

impl InferenceOutcome {
    /// Generates code-fragment specifications for all learned automata
    /// against the given program (which must contain the same library
    /// methods the automata were learned over).
    pub fn fragments(&self, program: &Program) -> CodeFragments {
        let mut all = CodeFragments::default();
        for cluster in &self.clusters {
            let frags = CodeFragments::from_fsa(program, &cluster.fsa);
            all.merge(&frags);
        }
        all
    }

    /// Extracts a bounded set of concrete path specifications from all
    /// learned automata.
    pub fn specs(&self, max_len: usize, limit_per_cluster: usize) -> Vec<PathSpec> {
        let mut out = Vec::new();
        for cluster in &self.clusters {
            out.extend(cluster.fsa.accepted_specs(max_len, limit_per_cluster));
        }
        out
    }

    /// Packages the learned automata and their extracted specifications as
    /// a persistable `atlas-spec/1` artifact (see `atlas-store`), stamped
    /// with the library's content fingerprint.  `max_len`/`limit_per_cluster`
    /// bound the extraction exactly as in [`InferenceOutcome::specs`].
    ///
    /// Encoding is deterministic, so two runs that learned the same
    /// automata produce byte-identical artifacts — the invariant the batch
    /// pipeline's cross-process determinism check asserts.
    pub fn spec_artifact(
        &self,
        program: &Program,
        interface: &LibraryInterface,
        max_len: usize,
        limit_per_cluster: usize,
    ) -> SpecArtifact {
        let extraction = (max_len, limit_per_cluster);
        SpecArtifact {
            fingerprint: library_fingerprint(program, interface),
            extraction,
            clusters: self
                .clusters
                .iter()
                .map(|cluster| cluster_spec(program, &cluster.classes, &cluster.fsa, extraction))
                .collect(),
        }
    }

    /// Number of library methods covered by at least one learned
    /// specification.
    pub fn methods_covered(&self, program: &Program) -> usize {
        self.fragments(program).num_methods()
    }

    /// Total number of distinct positive examples found in phase one.
    pub fn total_positive_examples(&self) -> usize {
        self.clusters.iter().map(|c| c.num_positive_examples).sum()
    }

    /// Total states before / after merging, summed over clusters.
    pub fn state_counts(&self) -> (usize, usize) {
        let before = self.clusters.iter().map(|c| c.initial_states).sum();
        let after = self.clusters.iter().map(|c| c.final_states).sum();
        (before, after)
    }
}

/// Runs the full two-phase inference pipeline.
///
/// Convenience wrapper over [`crate::Engine`]: builds an engine, runs one
/// session, returns the merged outcome.  Respects `config.num_threads`.
pub fn infer_specifications(
    program: &Program,
    interface: &LibraryInterface,
    config: &AtlasConfig,
) -> InferenceOutcome {
    crate::Engine::new(program, interface, config.clone()).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlas_ir::builder::ProgramBuilder;

    /// Inference over the Box running example finds set/get (and the clone
    /// generalization) with a modest sampling budget.
    #[test]
    fn end_to_end_inference_on_the_box_example() {
        let mut pb = ProgramBuilder::new();
        atlas_javalib::lang::install(&mut pb);
        atlas_javalib::list::install(&mut pb);
        atlas_javalib::map::install(&mut pb);
        atlas_javalib::other::install(&mut pb);
        atlas_javalib::android::install(&mut pb);
        atlas_javalib::install_box_example(&mut pb);
        let program = pb.build();
        let interface = atlas_ir::LibraryInterface::from_program(&program);
        let box_class = program.class_named("Box").unwrap();
        let config = AtlasConfig {
            samples_per_cluster: 1_500,
            clusters: vec![vec![box_class]],
            sampling: SamplingStrategy::Mcts,
            ..AtlasConfig::default()
        };
        let outcome = infer_specifications(&program, &interface, &config);
        assert_eq!(outcome.clusters.len(), 1);
        assert!(outcome.total_positive_examples() >= 1);
        let frags = outcome.fragments(&program);
        let set = program.method_qualified("Box.set").unwrap();
        let get = program.method_qualified("Box.get").unwrap();
        assert!(
            frags.body(set).is_some(),
            "set not covered: {}",
            frags.render(&program)
        );
        assert!(frags.body(get).is_some(), "get not covered");
        let specs = outcome.specs(8, 64);
        assert!(!specs.is_empty());
        let (before, after) = outcome.state_counts();
        assert!(after <= before);
        assert!(outcome.oracle_queries > 0 && outcome.oracle_executions > 0);
        assert!(outcome.methods_covered(&program) >= 2);
        // Per-cluster wall-clock is recorded.
        assert!(outcome.clusters[0].total_time() > Duration::ZERO);
        assert!(outcome.wall_time >= outcome.clusters[0].total_time());
    }

    #[test]
    fn empty_cluster_is_skipped() {
        let program = atlas_javalib::library_program();
        let interface = atlas_ir::LibraryInterface::from_program(&program);
        let config = AtlasConfig {
            samples_per_cluster: 10,
            clusters: vec![vec![]],
            ..AtlasConfig::default()
        };
        let outcome = infer_specifications(&program, &interface, &config);
        assert!(outcome.clusters.is_empty());
    }

    #[test]
    fn exec_limits_are_plumbed_into_the_oracle() {
        // With a starvation-level step budget every witness execution dies,
        // so sampling finds no positives; the default budget finds some.
        let mut pb = ProgramBuilder::new();
        atlas_javalib::install_library(&mut pb);
        atlas_javalib::install_box_example(&mut pb);
        let program = pb.build();
        let interface = atlas_ir::LibraryInterface::from_program(&program);
        let box_class = program.class_named("Box").unwrap();
        let base = AtlasConfig {
            samples_per_cluster: 600,
            clusters: vec![vec![box_class]],
            ..AtlasConfig::default()
        };
        let starved = AtlasConfig {
            limits: ExecLimits {
                max_steps: 1,
                max_call_depth: 1,
                max_heap_objects: 1,
            },
            ..base.clone()
        };
        let ok = infer_specifications(&program, &interface, &base);
        let none = infer_specifications(&program, &interface, &starved);
        assert!(ok.total_positive_examples() >= 1);
        assert_eq!(
            none.total_positive_examples(),
            0,
            "starved oracle must reject everything"
        );
    }
}
