//! Property-based tests of the incremental-invalidation contract:
//!
//! * **Structural** (cheap, many cases): over random synthetic libraries
//!   and random mutations, a cluster's dependency-closure fingerprint
//!   changes **iff** the closure contains the mutated method — mutations
//!   dirty exactly the clusters whose closure contains them.
//! * **Behavioral** (expensive, few cases): over the `javalib-lang`
//!   variant and random mutations, an incremental run against a seeded
//!   store leaves every clean cluster's persisted verdicts and exported
//!   specs **byte-identical** on disk, re-runs exactly the dirty clusters,
//!   executes fewer unit tests than the cold baseline whenever a cluster
//!   is clean, and reproduces the cold baseline's spec artifact byte for
//!   byte.

use atlas_apps::{generate_library, mutate_library, MutationConfig, SynthLibConfig};
use atlas_core::{AtlasConfig, ClusterDisposition, Engine};
use atlas_ir::{DepGraph, LibraryInterface, MutationKind, Program};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::path::PathBuf;

const KINDS: [MutationKind; 4] = [
    MutationKind::RenameLocal,
    MutationKind::BodyEdit,
    MutationKind::AddMethod,
    MutationKind::SignatureChange,
];

/// Per-cluster closure fingerprints of a program under a cluster list.
fn closure_fingerprints(program: &Program, clusters: &[Vec<atlas_ir::ClassId>]) -> Vec<u64> {
    let dep_graph = DepGraph::build(program);
    clusters
        .iter()
        .map(|c| dep_graph.closure_fingerprint(c))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Structural contract: a mutation dirties exactly the clusters whose
    /// (new) dependency closure contains the mutated method.
    #[test]
    fn mutations_dirty_exactly_the_containing_closures(
        lib_seed in 0u64..1000,
        kind_pick in 0usize..KINDS.len(),
        mutation_seed in 0u64..1000,
    ) {
        let lib = generate_library(&SynthLibConfig {
            name: "prop".to_string(),
            seed: lib_seed,
            ..SynthLibConfig::default()
        });
        let kind = KINDS[kind_pick];
        let Ok(mutated) = mutate_library(
            &lib.program,
            &MutationConfig::new(kind, mutation_seed),
        ) else {
            // Nothing eligible for this kind in this library: vacuous.
            return Ok(());
        };
        let before = closure_fingerprints(&lib.program, &lib.clusters);
        let after = closure_fingerprints(&mutated.program, &lib.clusters);
        let new_graph = DepGraph::build(&mutated.program);
        for (i, cluster) in lib.clusters.iter().enumerate() {
            let contains = new_graph
                .closure_of(cluster)
                .contains_method(mutated.outcome.method);
            // Fingerprint changed iff the closure contains the mutated
            // method.
            prop_assert_eq!(before[i] != after[i], contains);
        }
    }
}

/// The on-disk bytes of one shard: `(cache.json, specs.json)`, each
/// `None` when the file does not exist.
type ShardBytes = (Option<Vec<u8>>, Option<Vec<u8>>);

/// Shard file bytes (cache + specs) for every closure of a cluster list.
fn shard_bytes(root: &std::path::Path, closures: &[u64]) -> Vec<ShardBytes> {
    closures
        .iter()
        .map(|&closure| {
            let entry = atlas_store::shard_entry(root, closure);
            (
                std::fs::read(entry.cache).ok(),
                std::fs::read(entry.specs).ok(),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Behavioral contract on a real library variant: clean clusters'
    /// persisted artifacts stay byte-identical, dirty clusters (and only
    /// they) re-run, splicing saves executions whenever a cluster is
    /// clean, and the spliced artifact equals the cold baseline.
    #[test]
    fn incremental_runs_splice_clean_clusters_byte_identically(
        kind_pick in 0usize..KINDS.len(),
        mutation_seed in 0u64..100,
    ) {
        let root: PathBuf = std::env::temp_dir().join(format!(
            "atlas-incr-prop-{}-{kind_pick}-{mutation_seed}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        let extraction = (8, 64);
        let kind = KINDS[kind_pick];

        let variant = atlas_javalib::variant_named("javalib-lang").expect("registered");
        let old_program = variant.build_program();
        let old_interface = LibraryInterface::from_program(&old_program);
        let clusters = variant.cluster_ids(&old_program);
        let config = AtlasConfig {
            samples_per_cluster: 150,
            clusters: clusters.clone(),
            num_threads: 1,
            ..AtlasConfig::default()
        };

        // Seed the store with a cold full run over the old content.
        let old_engine = Engine::new(&old_program, &old_interface, config.clone());
        let mut session = old_engine.session();
        let old_outcome = session.run();
        session
            .persist_shards(&old_outcome, &root, extraction)
            .expect("seed shards");
        let old_provenance = old_engine.run_provenance();

        let Ok(mutated) = mutate_library(&old_program, &MutationConfig::new(kind, mutation_seed))
        else {
            let _ = std::fs::remove_dir_all(&root);
            return Ok(());
        };
        let new_program = mutated.program;
        let new_interface = LibraryInterface::from_program(&new_program);
        let new_engine = Engine::new(&new_program, &new_interface, config.clone());
        let mut incr = new_engine.incremental_session(&old_provenance);

        // Expected dirty set: exactly the clusters whose closure contains
        // the mutated method.
        let new_graph = DepGraph::build(&new_program);
        let expected_dirty: BTreeSet<usize> = clusters
            .iter()
            .enumerate()
            .filter(|(_, c)| new_graph.closure_of(c).contains_method(mutated.outcome.method))
            .map(|(i, _)| i)
            .collect();
        // The diff partition must match closure membership.
        prop_assert_eq!(
            incr.dirty_indices().into_iter().collect::<BTreeSet<_>>(),
            expected_dirty.clone()
        );

        // Snapshot the clean shards before the incremental run.
        let clean_closures: Vec<u64> = incr
            .clean_indices()
            .iter()
            .map(|&i| incr.jobs()[i].closure)
            .collect();
        let before_bytes = shard_bytes(&root, &clean_closures);

        let outcome = incr.run_with_store(&root, extraction).expect("incremental");
        prop_assert_eq!(outcome.forced_dirty, 0);
        prop_assert_eq!(outcome.dirty_clusters, expected_dirty.len());
        // The dirty clusters reran; the clean clusters spliced.
        for cluster in &outcome.clusters {
            match &cluster.disposition {
                ClusterDisposition::Reran(_) => {
                    prop_assert!(expected_dirty.contains(&cluster.index))
                }
                ClusterDisposition::Spliced { .. } => {
                    prop_assert!(!expected_dirty.contains(&cluster.index))
                }
            }
        }
        // Clean shards: byte-identical on disk, verdicts and specs alike.
        prop_assert_eq!(shard_bytes(&root, &clean_closures), before_bytes);

        // Splicing saves work exactly when some cluster is clean: fewer
        // unit-test executions than the cold baseline, with verdicts taken
        // from the store; with every cluster dirty, the same executions.
        let cold = Engine::new(&new_program, &new_interface, config).run();
        if clean_closures.is_empty() {
            prop_assert_eq!(outcome.oracle_executions, cold.oracle_executions);
        } else {
            prop_assert!(
                outcome.oracle_executions < cold.oracle_executions,
                "incremental re-executed as much as cold ({} vs {})",
                outcome.oracle_executions,
                cold.oracle_executions
            );
            prop_assert!(outcome.spliced_verdicts > 0);
        }

        // Splice invariant: incremental == cold baseline, byte for byte.
        prop_assert_eq!(
            outcome
                .spec_artifact(&new_program)
                .encode(&new_program)
                .unwrap()
                .render(),
            cold.spec_artifact(&new_program, &new_interface, extraction.0, extraction.1)
                .encode(&new_program)
                .unwrap()
                .render()
        );
        std::fs::remove_dir_all(&root).unwrap();
    }
}
