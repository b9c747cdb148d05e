//! Fleet-level integration tests: cross-library cache isolation, the
//! per-member closure-root round trip (cold fill, full splice, shard GC
//! and the demotion it forces), and the property that scheduling order and
//! thread budgets never affect per-library results.

use atlas_bench::fleet::{self, FleetConfig};
use atlas_bench::Json;
use atlas_core::{AtlasConfig, Engine};
use atlas_ir::LibraryInterface;
use proptest::prelude::*;

/// A scratch directory removed on drop.
struct Scratch(std::path::PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("atlas-fleet-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn small_atlas_config(lib: &fleet::FleetLibrary, samples: usize) -> AtlasConfig {
    AtlasConfig {
        samples_per_cluster: samples,
        clusters: lib.clusters.clone(),
        num_threads: 1,
        ..AtlasConfig::default()
    }
}

/// Warming library B with library A's verdicts must change *nothing* about
/// B's results — not even its execution count: content-addressed keys make
/// foreign-library entries unreachable.
#[test]
fn warming_one_library_never_changes_another() {
    let a = fleet::build_library("synth-small", 0x5EED).expect("registered");
    let b = fleet::build_library("synth-aliasing", 0x5EED).expect("registered");

    let ia = LibraryInterface::from_program(&a.program);
    let engine_a = Engine::new(&a.program, &ia, small_atlas_config(&a, 150));
    let mut session_a = engine_a.session();
    session_a.run();
    let cache_a = session_a.into_cache();
    assert!(!cache_a.is_empty());

    let ib = LibraryInterface::from_program(&b.program);
    let cold_b = Engine::new(&b.program, &ib, small_atlas_config(&b, 150)).run();
    let warm_b = Engine::new(&b.program, &ib, small_atlas_config(&b, 150))
        .warm_start(cache_a)
        .run();

    // Identical results, identical costs: A's cache is invisible to B.
    assert_eq!(cold_b.specs(8, 64), warm_b.specs(8, 64));
    assert_eq!(cold_b.state_counts(), warm_b.state_counts());
    assert_eq!(cold_b.oracle_executions, warm_b.oracle_executions);
    assert_eq!(
        warm_b.cache_stats.warm_hits, 0,
        "foreign-library entries can never hit"
    );

    // B's own cache, in contrast, eliminates every execution.
    let ib2 = LibraryInterface::from_program(&b.program);
    let engine_b = Engine::new(&b.program, &ib2, small_atlas_config(&b, 150));
    let mut session_b = engine_b.session();
    let rerun = session_b.run();
    assert_eq!(rerun.oracle_executions, cold_b.oracle_executions);
    let self_warm = Engine::new(&b.program, &ib2, small_atlas_config(&b, 150))
        .warm_start(session_b.into_cache())
        .run();
    assert_eq!(self_warm.oracle_executions, 0);
    assert!(self_warm.cache_stats.warm_hits > 0);
}

fn library_rows(report: &Json) -> Vec<Json> {
    report
        .get("libraries")
        .and_then(Json::as_arr)
        .expect("libraries array")
        .to_vec()
}

fn int(section: &Json, key: &str) -> i64 {
    section
        .get(key)
        .and_then(Json::as_int)
        .unwrap_or_else(|| panic!("{key} missing: {section:?}"))
}

/// End-to-end store round trip: a cold fleet fills one closure root per
/// member (`<root>/<member>/`, one shard per cluster); a second run splices
/// every cluster of every member with zero executions and byte-identical
/// spec exports; two warm runs normalize to byte-identical reports; and a
/// shard GC'd away is relearned — alone — by the next run.
#[test]
fn fleet_round_trip_through_sharded_stores() {
    let scratch = Scratch::new("roundtrip");
    let config = FleetConfig {
        libraries: vec!["synth-small".to_string(), "synth-aliasing".to_string()],
        samples: 200,
        threads: 2,
        store_root: Some(scratch.0.clone()),
        synth_seed: 0x5EED,
        trace: false,
    };

    // Cold run: every member root fills, one shard per cluster.
    let cold = fleet::run_fleet(&config).expect("cold fleet");
    assert_eq!(cold.json.get("schema"), Some(&Json::str("atlas-fleet/2")));
    let rows = library_rows(&cold.json);
    assert_eq!(rows.len(), 2);
    let mut fingerprints = Vec::new();
    for row in &rows {
        let name = row.get("name").and_then(Json::as_str).expect("name");
        let clusters = int(row, "clusters");
        let store = row.get("store").expect("store section");
        assert_eq!(int(store, "spliced_clusters"), 0);
        assert_eq!(int(store, "reran_clusters"), clusters);
        assert_eq!(store.get("specs_identical"), Some(&Json::Null));
        assert!(int(row, "executions") > 0);
        let member = scratch.0.join(name);
        assert_eq!(
            store.get("root").and_then(Json::as_str),
            Some(member.display().to_string().as_str())
        );
        assert!(member.join("specs.json").exists(), "the member's export");
        let fp = row
            .get("library_fingerprint")
            .and_then(Json::as_str)
            .expect("fingerprint");
        let fp = atlas_store::parse_hex64(fp).expect("hex fingerprint");
        fingerprints.push(fp);
        // Every shard is one cluster's: keyed on its closure, attributed to
        // its member's library.
        let shards = atlas_store::list_shards(&member).expect("list shards");
        assert_eq!(shards.len() as i64, clusters);
        for shard in &shards {
            let cache = atlas_store::load_cache(&shard.cache).expect("shard cache");
            assert_eq!(cache.provenance.closure, shard.fingerprint);
            assert_eq!(cache.provenance.fingerprint, fp);
            assert!(shard.specs.exists());
        }
    }
    assert_ne!(fingerprints[0], fingerprints[1], "distinct libraries");
    assert!(
        atlas_store::list_shards(&scratch.0).unwrap().is_empty(),
        "the fleet root holds member roots, not shards"
    );

    // Warm runs: every cluster splices, zero executions everywhere,
    // byte-identical spec exports, and (being same-seed, same-store)
    // byte-identical normalized reports.
    let warm1 = fleet::run_fleet(&config).expect("warm fleet");
    for row in library_rows(&warm1.json) {
        assert_eq!(row.get("executions"), Some(&Json::Int(0)));
        let store = row.get("store").expect("store section");
        assert_eq!(int(store, "spliced_clusters"), int(&row, "clusters"));
        assert_eq!(int(store, "reran_clusters"), 0);
        assert_eq!(int(store, "forced_dirty"), 0);
        assert!(int(store, "spliced_verdicts") > 0);
        assert_eq!(store.get("specs_identical"), Some(&Json::Bool(true)));
    }
    let warm2 = fleet::run_fleet(&config).expect("second warm fleet");
    assert_eq!(
        fleet::normalized(&warm1.json).render(),
        fleet::normalized(&warm2.json).render(),
        "same seed + same store => byte-identical normalized reports"
    );

    // The parallelism summary respects the global budget.
    let parallelism = warm1.json.get("parallelism").expect("parallelism");
    let outer = int(parallelism, "outer_workers");
    let inner = int(parallelism, "threads_per_library");
    let budget = int(parallelism, "thread_budget");
    assert!(outer * inner <= budget, "{outer} x {inner} > {budget}");

    // Store maintenance composes with the member roots: GC one shard of
    // the first member away, and the next run relearns exactly that
    // cluster (a forced-dirty demotion) and still exports the same bytes.
    let member = scratch.0.join("synth-small");
    let shards = atlas_store::list_shards(&member).unwrap();
    let live: Vec<u64> = shards[1..].iter().map(|s| s.fingerprint).collect();
    let summary = atlas_store::gc_shards_with_history(&member, &live, 0).expect("gc shards");
    assert_eq!((summary.kept, summary.removed), (live.len(), 1));
    let healed = fleet::run_fleet(&config).expect("fleet after gc");
    let rows = library_rows(&healed.json);
    let store = rows[0].get("store").expect("store section");
    assert_eq!(int(store, "reran_clusters"), 1);
    assert_eq!(int(store, "forced_dirty"), 1);
    assert_eq!(store.get("specs_identical"), Some(&Json::Bool(true)));
    assert_eq!(
        atlas_store::list_shards(&member).unwrap().len(),
        shards.len()
    );
    let untouched = rows[1].get("store").expect("store section");
    assert_eq!(int(untouched, "reran_clusters"), 0);
}

// --- Scheduling-independence property -------------------------------------

/// The normalized per-library rows of a report, keyed and sorted by name.
fn rows_by_name(report: &Json) -> Vec<(String, String)> {
    let mut rows: Vec<(String, String)> = library_rows(report)
        .iter()
        .map(|row| {
            (
                row.get("name").and_then(Json::as_str).unwrap().to_string(),
                fleet::normalized(row).render(),
            )
        })
        .collect();
    rows.sort();
    rows
}

const ORDERING_FLEET: &[&str] = &["synth-small", "synth-aliasing"];

fn ordering_config(libraries: Vec<String>, threads: usize) -> FleetConfig {
    FleetConfig {
        libraries,
        samples: 120,
        threads,
        store_root: None,
        synth_seed: 0x5EED,
        trace: false,
    }
}

/// The rows of the canonical ordering at one thread, computed once.
fn ordering_reference() -> &'static Vec<(String, String)> {
    static REFERENCE: std::sync::OnceLock<Vec<(String, String)>> = std::sync::OnceLock::new();
    REFERENCE.get_or_init(|| {
        let libraries = ORDERING_FLEET.iter().map(|s| s.to_string()).collect();
        let report = fleet::run_fleet(&ordering_config(libraries, 1)).unwrap();
        rows_by_name(&report.json)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Scheduling order and thread budget never affect per-library
    /// results: any permutation of the fleet under any budget yields the
    /// same normalized per-library rows.
    #[test]
    fn fleet_rows_are_independent_of_scheduling(swap in any::<bool>(), threads in 1usize..=4) {
        let mut libraries: Vec<String> = ORDERING_FLEET.iter().map(|s| s.to_string()).collect();
        if swap {
            libraries.reverse();
        }
        let report = fleet::run_fleet(&ordering_config(libraries, threads)).unwrap();
        prop_assert_eq!(&rows_by_name(&report.json), ordering_reference());
    }
}
