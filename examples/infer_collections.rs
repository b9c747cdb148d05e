//! Infer specifications for the modeled Java Collections API — the core use
//! case of the paper — and compare the result against the handwritten and
//! ground-truth corpora.
//!
//! ```sh
//! cargo run --release --example infer_collections
//! # more sampling (better coverage, slower):
//! ATLAS_SAMPLES=60000 cargo run --release --example infer_collections
//! # pin the scheduler to 2 worker threads (0 = one per core):
//! ATLAS_THREADS=2 cargo run --release --example infer_collections
//! ```

use atlas_core::{compare_fragments, AtlasConfig, Engine};
use atlas_javalib::{
    class_ids, ground_truth_specs, handwritten_specs, library_interface, library_program,
    CLASS_CLUSTERS,
};

fn main() {
    let samples: usize = std::env::var("ATLAS_SAMPLES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(10_000);
    let num_threads: usize = std::env::var("ATLAS_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let library = library_program();
    let interface = library_interface(&library);
    println!(
        "library: {} classes, {} interface methods, {} V_path symbols",
        library.library_classes().count(),
        interface.num_methods(),
        interface.slots().len()
    );

    let clusters = CLASS_CLUSTERS
        .iter()
        .map(|names| class_ids(&library, names))
        .collect();
    let config = AtlasConfig {
        samples_per_cluster: samples,
        clusters,
        num_threads,
        ..AtlasConfig::default()
    };
    let engine = Engine::new(&library, &interface, config);
    let mut session = engine.session();
    println!(
        "engine: {} cluster jobs on {} worker threads",
        session.jobs().len(),
        session.num_threads()
    );
    let outcome = session.run();

    println!(
        "phase 1: {} positive examples from {} samples ({:.1}s)",
        outcome.total_positive_examples(),
        outcome
            .clusters
            .iter()
            .map(|c| c.num_samples)
            .sum::<usize>(),
        outcome.phase1_time.as_secs_f64()
    );
    let (before, after) = outcome.state_counts();
    println!(
        "phase 2: {before} -> {after} automaton states ({:.1}s)",
        outcome.phase2_time.as_secs_f64()
    );
    println!("parallelism: {}", outcome.parallelism());
    for cluster in &outcome.clusters {
        println!(
            "  cluster {:?}: {:.2?} sampling + {:.2?} rpni",
            cluster.classes, cluster.phase1_time, cluster.phase2_time
        );
    }

    let inferred = outcome.fragments(&library);
    let handwritten = handwritten_specs(&library);
    let truth = ground_truth_specs(&library);
    println!(
        "\ncoverage: inferred {} methods, handwritten {} methods, ground truth {} methods",
        inferred.num_methods(),
        handwritten.len(),
        truth.len()
    );
    let vs_hand = compare_fragments(&library, &inferred, &handwritten);
    let vs_truth = compare_fragments(&library, &inferred, &truth);
    println!(
        "vs handwritten: statement recall {:.2}, precision {:.2}",
        vs_hand.recall(),
        vs_hand.precision()
    );
    println!(
        "vs ground truth: statement recall {:.2}, precision {:.2}, exact {}/{}",
        vs_truth.recall(),
        vs_truth.precision(),
        vs_truth.exact_matches(),
        vs_truth.reference_methods()
    );

    println!("\nsample of inferred specifications:");
    for spec in outcome.specs(6, 3).iter().take(15) {
        println!("  {}", spec.display(&interface));
    }

    // Warm start: re-running the same configuration seeded with the
    // harvested verdict cache skips every unit-test execution while
    // producing bit-identical automata.
    let cache = session.into_cache();
    println!("\nverdict cache: {} entries harvested", cache.len());
    let t = std::time::Instant::now();
    let warm = Engine::new(&library, &interface, engine.config().clone())
        .warm_start(cache)
        .run();
    println!(
        "warm re-run: {:.2?} wall ({:.2?} cold), {} unit tests re-executed ({} cold), \
         {:.0}% warm-hit rate, identical specs: {}",
        t.elapsed(),
        outcome.wall_time,
        warm.oracle_executions,
        outcome.oracle_executions,
        100.0 * warm.cache_stats.warm_hit_rate(),
        warm.specs(6, 3) == outcome.specs(6, 3),
    );
}
