//! Shared evaluation context: the library, a single inference run, the
//! generated app suite, and helpers to analyze an app under a given
//! specification set.

use atlas_apps::{generate_suite, AppConfig, GeneratedApp};
use atlas_core::{AtlasConfig, Engine, InferenceOutcome};
use atlas_flow::{find_flows, FlowResult};
use atlas_ir::{LibraryInterface, Program};
use atlas_javalib::{
    android_model_specs, class_ids, ground_truth_specs, handwritten_specs, library_program,
    CLASS_CLUSTERS, SINK_METHODS, SOURCE_METHODS,
};
use atlas_pointsto::{ExtractionOptions, Graph, PointsToStats, Solver};
use atlas_spec::CodeFragments;
use std::collections::HashMap;

/// Which specification set (or library variant) an analysis run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecSet {
    /// All library methods treated as no-ops (the trivial `Π(∅)` baseline).
    Empty,
    /// The partial handwritten corpus.
    Handwritten,
    /// The complete ground-truth corpus `S*`.
    GroundTruth,
    /// The specifications inferred by Atlas.
    Inferred,
    /// The real library implementation, analyzed directly.
    Implementation,
}

/// The result of analyzing one app under one specification set.
#[derive(Debug, Clone)]
pub struct AppAnalysis {
    /// Client points-to statistics.
    pub stats: PointsToStats,
    /// Information flows found by the client analysis.
    pub flows: FlowResult,
}

/// Everything the experiments need, computed once.
pub struct EvalContext {
    /// The library-only program used for inference.
    pub library: Program,
    /// Its interface.
    pub interface: LibraryInterface,
    /// The inference outcome (learned automata + statistics).
    pub outcome: InferenceOutcome,
    /// The generated benchmark apps.
    pub apps: Vec<GeneratedApp>,
}

// Environment knobs historically lived here; they are now centralized in
// [`crate::config`] and re-exported for existing callers.
pub use crate::config::{app_count, sample_budget, thread_budget};

impl EvalContext {
    /// Builds the full context: runs inference over the modeled library and
    /// generates the benchmark suite.
    pub fn build(samples_per_cluster: usize, num_apps: usize) -> EvalContext {
        let library = library_program();
        let interface = LibraryInterface::from_program(&library);
        let clusters = CLASS_CLUSTERS
            .iter()
            .map(|names| class_ids(&library, names))
            .collect();
        let config = AtlasConfig {
            samples_per_cluster,
            clusters,
            num_threads: thread_budget(),
            ..AtlasConfig::default()
        };
        let outcome = Engine::new(&library, &interface, config).run();
        let apps = generate_suite(&AppConfig {
            count: num_apps,
            ..AppConfig::default()
        });
        EvalContext {
            library,
            interface,
            outcome,
            apps,
        }
    }

    /// A smaller context suitable for tests.
    pub fn small() -> EvalContext {
        EvalContext::build(800, 8)
    }

    /// The inferred code fragments, generated against `program`.
    pub fn inferred_fragments(&self, program: &Program) -> CodeFragments {
        self.outcome.fragments(program)
    }

    /// Analyzes one app under the given specification set.
    pub fn analyze(&self, app: &GeneratedApp, specs: SpecSet) -> AppAnalysis {
        analyze_app(app, specs, |program| self.inferred_fragments(program))
    }

    /// Non-trivial client points-to edge count for one app under one
    /// specification set (the `|Π(S) \ Π(∅)|` quantity).
    pub fn nontrivial_edges(&self, app: &GeneratedApp, specs: SpecSet) -> usize {
        let trivial = self.analyze(app, SpecSet::Empty);
        let run = self.analyze(app, specs);
        run.stats.nontrivial(&trivial.stats)
    }
}

/// Analyzes one app under the given specification set; `inferred`
/// generates the inferred fragments against the app's program when the
/// set is [`SpecSet::Inferred`] (from a live outcome, or from a persisted
/// `atlas-spec/1` artifact via `SpecArtifact::fragments`).
pub fn analyze_app(
    app: &GeneratedApp,
    specs: SpecSet,
    inferred: impl FnOnce(&Program) -> CodeFragments,
) -> AppAnalysis {
    let program = &app.program;
    let options = match specs {
        SpecSet::Empty => ExtractionOptions::empty_specs(),
        SpecSet::Implementation => ExtractionOptions::with_implementation(),
        SpecSet::Handwritten => {
            // Like the inferred set, the handwritten library corpus is
            // combined with the flow client's source-method models.
            let mut overrides = to_overrides(handwritten_specs(program));
            for (m, body) in android_model_specs(program) {
                overrides.entry(m).or_insert(body);
            }
            ExtractionOptions::with_specs(overrides)
        }
        SpecSet::GroundTruth => {
            ExtractionOptions::with_specs(to_overrides(ground_truth_specs(program)))
        }
        SpecSet::Inferred => {
            // The inferred library specifications are combined with the
            // flow client's own source-method models (manual annotations
            // in the paper's setup).
            let mut overrides = inferred(program).to_overrides();
            for (m, body) in android_model_specs(program) {
                overrides.entry(m).or_insert(body);
            }
            ExtractionOptions::with_specs(overrides)
        }
    };
    let graph = Graph::extract(program, &options);
    let result = Solver::new().solve(&graph);
    let stats = PointsToStats::collect(program, &graph, &result);
    let sources = atlas_flow::source_methods(program, SOURCE_METHODS);
    let sinks = atlas_flow::sink_methods(program, SINK_METHODS);
    let flows = find_flows(program, &graph, &result, &sources, &sinks);
    AppAnalysis { stats, flows }
}

fn to_overrides(
    bodies: std::collections::BTreeMap<atlas_ir::MethodId, Vec<atlas_ir::Stmt>>,
) -> HashMap<atlas_ir::MethodId, Vec<atlas_ir::Stmt>> {
    bodies.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn library_method_ids_are_stable_across_app_programs() {
        // The learned automata are expressed over the library program's
        // method ids; app programs must assign the same ids to the same
        // library methods because the library is installed first.
        let library = library_program();
        let app = atlas_apps::generate_app(0, 1);
        for name in [
            "ArrayList.add",
            "HashMap.put",
            "Stack.pop",
            "TelephonyManager.getDeviceId",
        ] {
            let a = library.method_qualified(name).unwrap();
            let b = app.program.method_qualified(name).unwrap();
            assert_eq!(a, b, "method id mismatch for {name}");
        }
        assert_eq!(library.num_fields(), app.program.num_fields());
    }

    #[test]
    fn analysis_under_different_spec_sets_is_ordered_sensibly() {
        let ctx = EvalContext::build(400, 3);
        let app = &ctx.apps[0];
        let trivial = ctx.analyze(app, SpecSet::Empty);
        let hand = ctx.analyze(app, SpecSet::Handwritten);
        let truth = ctx.analyze(app, SpecSet::GroundTruth);
        // Ground truth finds at least as many flows as the handwritten
        // corpus, which finds at least as many as no specs at all.
        assert!(hand.flows.len() >= trivial.flows.len());
        assert!(truth.flows.len() >= hand.flows.len());
        // Ground-truth specifications find every constructed leak.  (They may
        // find additional pairs: like the paper's analysis, ours is context-
        // insensitive inside fragments, so distinct containers returned by
        // the same fragment allocation site are conflated.)
        let truth_pairs: std::collections::BTreeSet<(String, String)> = truth
            .flows
            .flows
            .iter()
            .map(|f| {
                (
                    app.program.qualified_name(f.source),
                    app.program.qualified_name(f.sink),
                )
            })
            .collect();
        for pair in &app.leaky_pairs {
            assert!(
                truth_pairs.contains(pair),
                "missing constructed leak {pair:?}"
            );
        }
        // Non-trivial edge counts are zero for the trivial baseline.
        assert_eq!(ctx.nontrivial_edges(app, SpecSet::Empty), 0);
    }
}
