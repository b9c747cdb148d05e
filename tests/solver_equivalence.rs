//! Equivalence of the difference-propagation worklist solver and the
//! retained naive reference: on randomized synthetic constraint graphs and
//! on graphs extracted from generated benchmark apps, both algorithms must
//! compute the identical closure (`PointsToResult` equality covers the
//! points-to sets, the abstract heap, and the derived flow graph).

use atlas_pointsto::{
    solve_naive, ExtractionOptions, Graph, LoadEdge, NodeId, ObjId, Solver, StoreEdge,
};
use proptest::prelude::*;

const NODES: usize = 18;
const OBJS: usize = 6;
const FIELDS: usize = 3;

/// One randomized constraint: kind (alloc/copy/store/load) plus operand
/// picks resolved against the synthetic node/object/field spaces.
type RawEdge = (
    usize,
    prop::sample::Index,
    prop::sample::Index,
    prop::sample::Index,
);

fn build_graph(edges: &[RawEdge]) -> Graph {
    let mut g = Graph::synthetic(NODES, OBJS);
    for (kind, a, b, f) in edges {
        match kind % 4 {
            0 => g
                .alloc_edges
                .push((ObjId(a.index(OBJS) as u32), NodeId(b.index(NODES) as u32))),
            1 => g
                .copy_edges
                .push((NodeId(a.index(NODES) as u32), NodeId(b.index(NODES) as u32))),
            2 => g.store_edges.push(StoreEdge {
                src: NodeId(a.index(NODES) as u32),
                field: f.index(FIELDS) as u32,
                objvar: NodeId(b.index(NODES) as u32),
            }),
            _ => g.load_edges.push(LoadEdge {
                objvar: NodeId(a.index(NODES) as u32),
                field: f.index(FIELDS) as u32,
                dst: NodeId(b.index(NODES) as u32),
            }),
        }
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The worklist solver computes the identical `PointsToResult` to the
    /// naive reference on randomized graphs.
    #[test]
    fn worklist_equals_naive_on_random_graphs(
        edges in proptest::collection::vec(
            (0..4usize, any::<prop::sample::Index>(), any::<prop::sample::Index>(), any::<prop::sample::Index>()),
            1..140,
        )
    ) {
        let graph = build_graph(&edges);
        let worklist = Solver::new().solve(&graph);
        let naive = solve_naive(&graph);
        prop_assert!(worklist == naive, "closures differ on {} edges", edges.len());
        prop_assert_eq!(worklist.num_points_to_edges(), naive.num_points_to_edges());
        // Spot-check the query layer on a few node pairs too: equal closures
        // must answer equal alias/transfer queries.
        for i in 0..NODES.min(6) {
            for j in 0..NODES.min(6) {
                let (a, b) = (NodeId(i as u32), NodeId(j as u32));
                prop_assert_eq!(worklist.alias(a, b), naive.alias(a, b));
                prop_assert_eq!(worklist.transfer(a, b), naive.transfer(a, b));
            }
        }
    }

    /// Dense graphs with every constraint hitting a tiny node space force
    /// deep heap/copy interaction; the algorithms must still agree.
    #[test]
    fn worklist_equals_naive_on_dense_tiny_graphs(
        edges in proptest::collection::vec(
            (0..4usize, any::<prop::sample::Index>(), any::<prop::sample::Index>(), any::<prop::sample::Index>()),
            20..80,
        )
    ) {
        let mut g = Graph::synthetic(5, 3);
        for (kind, a, b, f) in &edges {
            match kind % 4 {
                0 => g.alloc_edges.push((ObjId(a.index(3) as u32), NodeId(b.index(5) as u32))),
                1 => g.copy_edges.push((NodeId(a.index(5) as u32), NodeId(b.index(5) as u32))),
                2 => g.store_edges.push(StoreEdge {
                    src: NodeId(a.index(5) as u32),
                    field: f.index(2) as u32,
                    objvar: NodeId(b.index(5) as u32),
                }),
                _ => g.load_edges.push(LoadEdge {
                    objvar: NodeId(a.index(5) as u32),
                    field: f.index(2) as u32,
                    dst: NodeId(b.index(5) as u32),
                }),
            }
        }
        let worklist = Solver::new().solve(&g);
        let naive = solve_naive(&g);
        prop_assert!(worklist == naive);
    }
}

/// The algorithms agree on real extracted graphs: generated benchmark apps
/// under all three library variants.
#[test]
fn worklist_equals_naive_on_generated_apps() {
    for index in [0usize, 7] {
        let app = atlas_apps::generate_app(index, 0xE05EED);
        let program = &app.program;
        let variants = [
            ExtractionOptions::with_implementation(),
            ExtractionOptions::empty_specs(),
            ExtractionOptions::with_specs(
                atlas_javalib::ground_truth_specs(program)
                    .into_iter()
                    .collect(),
            ),
        ];
        for options in variants {
            let graph = Graph::extract(program, &options);
            let worklist = Solver::new().solve(&graph);
            let naive = solve_naive(&graph);
            assert!(worklist == naive, "app {index}: closures differ");
        }
    }
}
