//! Criterion benches for the inference pipeline itself: phase-one sampling
//! and phase-two language inference on a single class cluster, plus the
//! engine's cluster scheduler at 1 thread vs. all cores.

use atlas_core::{AtlasConfig, Engine};
use atlas_ir::LibraryInterface;
use atlas_javalib::class_ids;
use atlas_learn::{
    infer_fsa, sample_positive_examples, Oracle, OracleConfig, RpniConfig, SamplerConfig,
    SamplingStrategy,
};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_inference(c: &mut Criterion) {
    let library = atlas_javalib::library_program();
    let interface = LibraryInterface::from_program(&library);
    let cluster = class_ids(&library, &["ArrayList", "ArrayListIterator"]);
    let restricted = interface.restrict_to_classes(&cluster);

    c.bench_function("phase1_sampling_500_mcts", |b| {
        b.iter(|| {
            let mut oracle = Oracle::new(&library, &interface, OracleConfig::default());
            sample_positive_examples(
                &restricted,
                &mut oracle,
                SamplingStrategy::Mcts,
                500,
                &SamplerConfig::default(),
            )
        })
    });

    // Pre-compute positives once for the phase-two bench.
    let mut oracle = Oracle::new(&library, &interface, OracleConfig::default());
    let samples = sample_positive_examples(
        &restricted,
        &mut oracle,
        SamplingStrategy::Mcts,
        2_000,
        &SamplerConfig::default(),
    );
    c.bench_function("phase2_rpni_arraylist_cluster", |b| {
        b.iter(|| {
            let mut oracle = Oracle::new(&library, &interface, OracleConfig::default());
            infer_fsa(&samples.positives, &mut oracle, &RpniConfig::default())
        })
    });

    // The engine's cluster scheduler: identical work at 1 thread and at one
    // thread per core.  Results are bit-identical; only wall-clock differs.
    let clusters: Vec<_> = [
        &["ArrayList", "ArrayListIterator"][..],
        &["Stack"][..],
        &["HashMap"][..],
        &["LinkedList"][..],
    ]
    .iter()
    .map(|names| class_ids(&library, names))
    .collect();
    let mut engine_group = c.benchmark_group("engine_four_clusters_500_samples");
    for num_threads in [1usize, 0] {
        let config = AtlasConfig {
            samples_per_cluster: 500,
            clusters: clusters.clone(),
            num_threads,
            ..AtlasConfig::default()
        };
        let label = if num_threads == 1 {
            "1_thread"
        } else {
            "all_cores"
        };
        engine_group.bench_function(BenchmarkId::from_parameter(label), |b| {
            b.iter(|| Engine::new(&library, &interface, config.clone()).run())
        });
    }
    engine_group.finish();

    // Warm starts: a second identical run fed the first run's verdict cache
    // re-executes nothing.  The cold case is the baseline above this one.
    let config = AtlasConfig {
        samples_per_cluster: 500,
        clusters: clusters.clone(),
        num_threads: 1,
        ..AtlasConfig::default()
    };
    let engine = Engine::new(&library, &interface, config.clone());
    let mut session = engine.session();
    let cold = session.run();
    let cache = session.into_cache();
    let mut warm_group = c.benchmark_group("engine_warm_start_500_samples");
    warm_group.bench_function(BenchmarkId::from_parameter("cold"), |b| {
        b.iter(|| Engine::new(&library, &interface, config.clone()).run())
    });
    warm_group.bench_function(BenchmarkId::from_parameter("warm"), |b| {
        b.iter(|| {
            let outcome = Engine::new(&library, &interface, config.clone())
                .warm_start(cache.clone())
                .run();
            assert_eq!(outcome.oracle_executions, 0, "warm run must not execute");
            outcome
        })
    });
    warm_group.finish();
    assert!(cold.oracle_executions > 0);
}

criterion_group!(benches, bench_inference);
criterion_main!(benches);
