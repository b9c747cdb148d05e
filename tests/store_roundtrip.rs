//! Round-trip guarantees of the persistent store (`atlas-store`):
//!
//! * **JSON**: `parse(render(x)) == x` for randomized value trees — the
//!   self-contained parser and the report writer implement the same
//!   dialect;
//! * **cache artifacts**: the closure shard a real store-backed run
//!   persists holds exactly the cluster's verdict cache — identical
//!   statistics and verdicts — and splices back with zero executions;
//! * **spec artifacts**: a learned specification set survives encode →
//!   render → parse → decode against a freshly built program, and
//!   re-encoding is byte-identical (the cross-process determinism
//!   invariant).

use atlas_core::{AtlasConfig, Engine, SpecArtifact, StoreError, EXTRACTION};
use atlas_ir::LibraryInterface;
use atlas_store::Json;
use proptest::prelude::*;

/// Deterministic value-tree generator: SplitMix64 over a seed, recursing
/// with shrinking breadth/depth.  Produces every `Json` variant, gnarly
/// strings (quotes, controls, non-ASCII), and full-range floats — exactly
/// the population the writer can emit (non-finite floats are excluded:
/// they serialize as `null` by design).
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn build_json(state: &mut u64, depth: usize) -> Json {
    let choice = if depth == 0 {
        splitmix(state) % 5
    } else {
        splitmix(state) % 7
    };
    match choice {
        0 => Json::Null,
        1 => Json::Bool(splitmix(state).is_multiple_of(2)),
        2 => Json::Int(splitmix(state) as i64),
        3 => {
            let f = f64::from_bits(splitmix(state));
            Json::Float(if f.is_finite() { f } else { 0.5 })
        }
        4 => {
            let len = (splitmix(state) % 12) as usize;
            let s: String =
                (0..len)
                    .map(|_| {
                        // Bias toward characters that exercise the escaper.
                        match splitmix(state) % 8 {
                            0 => '"',
                            1 => '\\',
                            2 => '\n',
                            3 => char::from_u32((splitmix(state) % 0x20) as u32).unwrap(),
                            4 => char::from_u32(0x80 + (splitmix(state) % 0x2000) as u32)
                                .unwrap_or('é'),
                            5 => char::from_u32(0x1F600 + (splitmix(state) % 0x50) as u32)
                                .unwrap_or('x'),
                            _ => char::from_u32(0x20 + (splitmix(state) % 0x5f) as u32).unwrap(),
                        }
                    })
                    .collect();
            Json::Str(s)
        }
        5 => {
            let len = (splitmix(state) % 4) as usize;
            Json::Arr((0..len).map(|_| build_json(state, depth - 1)).collect())
        }
        _ => {
            let len = (splitmix(state) % 4) as usize;
            let mut obj = Json::obj();
            for i in 0..len {
                // Distinct keys: the parser rejects duplicates.
                let key = format!("k{i}_{}", splitmix(state) % 100);
                obj = obj.set(&key, build_json(state, depth - 1));
            }
            obj
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The satellite property: `parser(writer(x)) == x` over randomized
    /// value trees.
    #[test]
    fn parser_inverts_writer(seed in any::<u64>()) {
        let mut state = seed;
        let value = build_json(&mut state, 3);
        let rendered = value.render();
        let parsed = Json::parse(&rendered)
            .unwrap_or_else(|e| panic!("writer output must parse: {e}\n{rendered}"));
        prop_assert_eq!(parsed, value);
    }
}

fn box_setup() -> (atlas_ir::Program, LibraryInterface) {
    let mut pb = atlas_ir::builder::ProgramBuilder::new();
    atlas_javalib::install_library(&mut pb);
    atlas_javalib::install_box_example(&mut pb);
    let program = pb.build();
    let interface = LibraryInterface::from_program(&program);
    (program, interface)
}

fn box_config(program: &atlas_ir::Program) -> AtlasConfig {
    AtlasConfig {
        samples_per_cluster: 250,
        clusters: vec![vec![program.class_named("Box").unwrap()]],
        num_threads: 1,
        ..AtlasConfig::default()
    }
}

/// The store round-trip through the one writer: a store-backed run over an
/// empty root persists the cluster's shard; reloading its cache gives back
/// the statistics and every verdict of the cluster's run (a plain session
/// over the same engine learns it again, deterministically), re-encoding
/// is byte-identical, and a fresh engine splices the shard with nothing
/// executed.
#[test]
fn cache_artifact_preserves_stats_and_verdicts() {
    let root = std::env::temp_dir().join(format!("atlas-store-roundtrip-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let (program, interface) = box_setup();
    let engine = Engine::new(&program, &interface, box_config(&program));
    let outcome = engine
        .run_with_store(&engine.run_provenance(), &root, EXTRACTION)
        .expect("cold root");
    assert_eq!(outcome.dirty_clusters, 1);
    let mut session = engine.session();
    session.run();
    let cache = session.into_cache();
    assert!(!cache.is_empty());

    let closure = engine.cluster_jobs()[0].closure;
    let shard = atlas_store::shard_entry(&root, closure);
    let reloaded = atlas_store::load_cache(&shard.cache).expect("shard cache");
    let provenance = reloaded.provenance;
    assert_eq!(provenance.closure, closure);
    assert_eq!(
        provenance.fingerprint, outcome.library,
        "closure shards are attributed to the library fingerprint"
    );
    // Identical CacheStats: the cluster's own counters...
    assert_eq!(reloaded.stats, cache.stats());
    assert_eq!(reloaded.stats, outcome.cache_stats);
    // ...and identical verdicts for every key, in insertion order.
    let original: Vec<(u64, u64, bool)> = cache
        .entries()
        .map(|(key, verdict)| {
            assert_eq!(key.context(), provenance.context, "{key:?}");
            let (word, word2) = key.word_hashes();
            (word, word2, verdict)
        })
        .collect();
    assert_eq!(reloaded.entries, original);
    // Re-encoding the reloaded artifact reproduces the file.
    assert_eq!(
        reloaded.encode().render(),
        std::fs::read_to_string(&shard.cache).unwrap()
    );

    // A fresh engine over a freshly built program splices it back.
    let (program2, interface2) = box_setup();
    let engine2 = Engine::new(&program2, &interface2, box_config(&program2));
    let warm = engine2
        .run_with_store(&engine2.run_provenance(), &root, EXTRACTION)
        .expect("seeded root");
    assert_eq!((warm.clean_clusters, warm.oracle_executions), (1, 0));
    assert_eq!(warm.spliced_verdicts, reloaded.entries.len());
    std::fs::remove_dir_all(&root).unwrap();
}

/// A shard's `cache.json` holds exactly one provenance group.  A document
/// with two groups, or none, is a schema error naming the file, both for
/// `load_cache` and for a store-backed run over the root holding it: the
/// run fails instead of splicing the shard.
#[test]
fn a_shard_cache_without_exactly_one_group_fails_the_run() {
    let root = std::env::temp_dir().join(format!("atlas-store-groups-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let (program, interface) = box_setup();
    let engine = Engine::new(&program, &interface, box_config(&program));
    engine
        .run_with_store(&engine.run_provenance(), &root, EXTRACTION)
        .expect("cold root");
    let shard = atlas_store::shard_entry(&root, engine.cluster_jobs()[0].closure);
    let doc = atlas_store::load_document(&shard.cache).expect("shard cache");
    let group = doc.get("shards").and_then(Json::as_arr).expect("groups")[0].clone();
    for groups in [vec![group.clone(), group], Vec::new()] {
        let n = groups.len();
        std::fs::write(&shard.cache, doc.clone().set("shards", groups).render()).unwrap();
        let positioned = |err: &StoreError| {
            matches!(err, StoreError::Schema { path, .. } if *path == shard.cache)
                && err.to_string().contains(&format!("found {n}"))
        };
        let err = atlas_store::load_cache(&shard.cache).unwrap_err();
        assert!(positioned(&err), "{n} group(s): {err}");
        let err = engine
            .run_with_store(&engine.run_provenance(), &root, EXTRACTION)
            .unwrap_err();
        assert!(positioned(&err), "{n} group(s): {err}");
    }
    std::fs::remove_dir_all(&root).unwrap();
}

/// Spec artifacts survive the full file cycle against a *freshly built*
/// program, and re-encoding is byte-stable.
#[test]
fn spec_artifact_round_trips_and_is_byte_stable() {
    let (program, interface) = box_setup();
    let outcome = Engine::new(&program, &interface, box_config(&program)).run();
    let artifact = outcome.spec_artifact(&program, &interface, 8, 64);
    assert!(artifact.num_specs() > 0, "inference found specs to persist");

    let rendered = artifact.encode(&program).expect("encode").render();
    // Decode against a *new* build of the same program: names, not ids.
    let (program2, _) = box_setup();
    let reloaded =
        SpecArtifact::decode(&Json::parse(&rendered).unwrap(), &program2).expect("decode");
    assert_eq!(reloaded, artifact);
    assert_eq!(reloaded.all_specs(), outcome.specs(8, 64));
    // Byte-stability: re-encoding the reloaded artifact is identical.
    assert_eq!(
        reloaded.encode(&program2).expect("re-encode").render(),
        rendered
    );
}
