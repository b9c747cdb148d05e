//! Golden output of the learner: a cold single-threaded javalib run at
//! 1000 samples per cluster must keep rendering the same `atlas-spec/1`
//! artifact, asking the oracle the same number of questions, and learning
//! automata of the same sizes.  Any change to sampling, merge checking or
//! spec extraction that alters a single verdict or merge shows up here.

use atlas_core::{AtlasConfig, Engine};
use atlas_ir::hash::Fnv;
use atlas_ir::LibraryInterface;
use atlas_serve::{render_compact, EXTRACTION};

/// FNV-1a of the rendered artifact.
const ARTIFACT_HASH: &str = "0xf77abfae9cba63b8";
/// `(oracle_queries, oracle_executions)` of the run.
const ORACLE_WORK: (usize, usize) = (4164, 3414);
/// `(initial_states, final_states)` of each cluster, in cluster order.
const CLUSTER_STATES: &[(usize, usize)] = &[
    (1, 1),
    (37, 15),
    (63, 23),
    (1, 1),
    (1, 1),
    (1, 1),
    (1, 1),
    (31, 14),
    (29, 12),
    (3, 3),
    (69, 16),
];

#[test]
fn cold_javalib_run_matches_the_golden_output() {
    let lib = atlas_apps::build_library("javalib", 0x5EED).expect("javalib is registered");
    let interface = LibraryInterface::from_program(&lib.program);
    let config = AtlasConfig {
        samples_per_cluster: 1000,
        clusters: lib.clusters,
        num_threads: 1,
        ..AtlasConfig::default()
    };
    let outcome = Engine::new(&lib.program, &interface, config).run();

    let doc = outcome
        .spec_artifact(&lib.program, &interface, EXTRACTION.0, EXTRACTION.1)
        .encode(&lib.program)
        .expect("a fresh artifact encodes against its own program");
    let mut h = Fnv::new(0);
    h.write_str(&render_compact(&doc));
    let hash = format!("{:#018x}", h.finish());

    let states: Vec<(usize, usize)> = outcome
        .clusters
        .iter()
        .map(|c| (c.initial_states, c.final_states))
        .collect();
    let work = (outcome.oracle_queries, outcome.oracle_executions);
    assert_eq!(hash, ARTIFACT_HASH);
    assert_eq!(work, ORACLE_WORK);
    assert_eq!(states, CLUSTER_STATES);
}
