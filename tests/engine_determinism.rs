//! Determinism of the parallel inference engine: a multi-threaded run over
//! multiple clusters must produce an `InferenceOutcome` identical to the
//! single-threaded run — same positives, same learned automata, same state
//! counts, same coverage, same oracle totals.  Only wall-clock may differ.

use atlas_core::{AtlasConfig, ClusterOutcome, Engine, InferenceOutcome};
use atlas_ir::builder::ProgramBuilder;
use atlas_ir::{LibraryInterface, Program};
use atlas_javalib::class_ids;

/// The modeled library plus the paper's `Box` example, which both cluster
/// lists below learn.
fn library_with_box() -> Program {
    let mut pb = ProgramBuilder::new();
    atlas_javalib::install_library(&mut pb);
    atlas_javalib::install_box_example(&mut pb);
    pb.build()
}

fn run_with_threads(num_threads: usize) -> (InferenceOutcome, usize) {
    let library = library_with_box();
    let interface = LibraryInterface::from_program(&library);
    let clusters: Vec<_> = [
        &["Box"][..],
        &["Stack"][..],
        &["ArrayList", "ArrayListIterator"][..],
    ]
    .iter()
    .map(|names| class_ids(&library, names))
    .collect();
    let config = AtlasConfig {
        samples_per_cluster: 350,
        clusters,
        num_threads,
        ..AtlasConfig::default()
    };
    let engine = Engine::new(&library, &interface, config);
    let outcome = engine.run();
    let covered = outcome.methods_covered(&library);
    (outcome, covered)
}

fn assert_clusters_identical(a: &ClusterOutcome, b: &ClusterOutcome) {
    assert_eq!(a.classes, b.classes);
    assert_eq!(a.num_samples, b.num_samples);
    assert_eq!(a.num_positive_samples, b.num_positive_samples);
    assert_eq!(a.num_positive_examples, b.num_positive_examples);
    assert_eq!(
        a.positives, b.positives,
        "positives differ for {:?}",
        a.classes
    );
    assert_eq!(
        a.fsa, b.fsa,
        "learned automaton differs for {:?}",
        a.classes
    );
    assert_eq!(a.initial_states, b.initial_states);
    assert_eq!(a.final_states, b.final_states);
}

#[test]
fn parallel_engine_runs_are_identical_to_sequential() {
    let (seq, seq_covered) = run_with_threads(1);
    let (par, par_covered) = run_with_threads(4);
    let (auto_par, auto_covered) = run_with_threads(0);

    for other in [&par, &auto_par] {
        assert_eq!(seq.clusters.len(), other.clusters.len());
        for (a, b) in seq.clusters.iter().zip(&other.clusters) {
            assert_clusters_identical(a, b);
        }
        assert_eq!(seq.oracle_queries, other.oracle_queries);
        assert_eq!(seq.oracle_executions, other.oracle_executions);
        assert_eq!(
            seq.total_positive_examples(),
            other.total_positive_examples()
        );
        assert_eq!(seq.state_counts(), other.state_counts());
    }
    assert_eq!(seq_covered, par_covered);
    assert_eq!(seq_covered, auto_covered);

    // The extracted specification sets agree spec for spec.
    assert_eq!(seq.specs(8, 64), par.specs(8, 64));

    // The summaries report what actually ran.
    assert_eq!(seq.parallelism().num_threads, 1);
    assert!(par.parallelism().num_threads >= 2);
    assert!(seq.wall_time >= seq.clusters.iter().map(|c| c.total_time()).sum());
}

#[test]
fn repeated_parallel_runs_are_stable() {
    // Scheduling order varies run to run; results must not.
    let (a, _) = run_with_threads(3);
    let (b, _) = run_with_threads(3);
    assert_eq!(a.clusters.len(), b.clusters.len());
    for (x, y) in a.clusters.iter().zip(&b.clusters) {
        assert_clusters_identical(x, y);
    }
    assert_eq!(a.oracle_queries, b.oracle_queries);
}

#[test]
fn warm_cache_state_never_changes_results() {
    // The determinism guarantee extends to the verdict-cache state: a run
    // warm-started from a previous session's cache — at any thread count —
    // produces the same outcome as a cold run, automaton for automaton.
    // Only the execution count (and wall-clock) may drop.
    let library = library_with_box();
    let interface = LibraryInterface::from_program(&library);
    let clusters: Vec<_> = [&["Box"][..], &["Stack"][..]]
        .iter()
        .map(|names| class_ids(&library, names))
        .collect();
    let config = AtlasConfig {
        samples_per_cluster: 350,
        clusters,
        num_threads: 1,
        ..AtlasConfig::default()
    };

    let engine = Engine::new(&library, &interface, config.clone());
    let mut session = engine.session();
    let cold = session.run();
    let cache = session.into_cache();
    assert!(!cache.is_empty());
    assert!(cold.oracle_executions > 0);
    assert_eq!(
        cold.cache_stats.warm_hits, 0,
        "cold run has no warm entries"
    );

    for num_threads in [1usize, 4] {
        let warm = Engine::new(
            &library,
            &interface,
            AtlasConfig {
                num_threads,
                ..config.clone()
            },
        )
        .warm_start(cache.clone())
        .run();
        assert_eq!(cold.clusters.len(), warm.clusters.len());
        for (a, b) in cold.clusters.iter().zip(&warm.clusters) {
            assert_clusters_identical(a, b);
        }
        assert_eq!(cold.oracle_queries, warm.oracle_queries);
        assert_eq!(cold.specs(8, 64), warm.specs(8, 64));
        // Every verdict was already known: nothing re-executes.
        assert_eq!(warm.oracle_executions, 0);
        assert_eq!(warm.cache_stats.warm_hits, warm.cache_stats.hits);
        assert_eq!(warm.cache_stats.hits, warm.cache_stats.lookups);
    }
}
