//! Criterion benches for the points-to substrate: graph extraction and
//! closure computation on generated benchmark apps under the different
//! library variants (implementation, ground-truth specs, no specs).

use atlas_javalib::ground_truth_specs;
use atlas_pointsto::{solve_naive, ExtractionOptions, Graph, Solver};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_pointsto(c: &mut Criterion) {
    let apps: Vec<_> = [0usize, 15, 30]
        .iter()
        .map(|&i| atlas_apps::generate_app(i, 0xA71A5))
        .collect();
    let mut group = c.benchmark_group("pointsto_closure");
    for app in &apps {
        let program = &app.program;
        let impl_graph = Graph::extract(program, &ExtractionOptions::with_implementation());
        group.bench_with_input(
            BenchmarkId::new(
                "implementation",
                format!("{}_loc{}", app.name, app.client_loc),
            ),
            &impl_graph,
            |b, graph| b.iter(|| Solver::new().solve(graph)),
        );
        let overrides = ground_truth_specs(program).into_iter().collect();
        let spec_graph = Graph::extract(program, &ExtractionOptions::with_specs(overrides));
        group.bench_with_input(
            BenchmarkId::new(
                "ground_truth_specs",
                format!("{}_loc{}", app.name, app.client_loc),
            ),
            &spec_graph,
            |b, graph| b.iter(|| Solver::new().solve(graph)),
        );
    }
    group.finish();

    // Worklist vs. retained naive reference on the same closure problem —
    // the difference-propagation payoff, measured head to head.
    let mut algorithms = c.benchmark_group("solver_algorithms");
    for app in &apps {
        let graph = Graph::extract(&app.program, &ExtractionOptions::with_implementation());
        algorithms.bench_with_input(
            BenchmarkId::new("worklist", format!("{}_loc{}", app.name, app.client_loc)),
            &graph,
            |b, graph| b.iter(|| Solver::new().solve(graph)),
        );
        algorithms.bench_with_input(
            BenchmarkId::new(
                "naive_reference",
                format!("{}_loc{}", app.name, app.client_loc),
            ),
            &graph,
            |b, graph| b.iter(|| solve_naive(graph)),
        );
    }
    algorithms.finish();

    let mut extraction = c.benchmark_group("graph_extraction");
    for app in &apps {
        extraction.bench_with_input(
            BenchmarkId::from_parameter(format!("{}_loc{}", app.name, app.client_loc)),
            &app.program,
            |b, program| {
                b.iter(|| Graph::extract(program, &ExtractionOptions::with_implementation()))
            },
        );
    }
    extraction.finish();
}

criterion_group!(benches, bench_pointsto);
criterion_main!(benches);
