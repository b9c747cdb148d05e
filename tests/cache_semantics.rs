//! Semantics of the verdict cache: content-addressed keys work across
//! program *instances* but never across library *variants*, execution
//! limits, or initialization strategies; warm starts change executions,
//! never results; statistics merge as plain sums.

use atlas_interp::ExecLimits;
use atlas_ir::builder::ProgramBuilder;
use atlas_ir::{LibraryInterface, ParamSlot, Program, Type};
use atlas_learn::{library_fingerprint, CacheKeyer, Oracle, OracleConfig, VerdictCache};
use atlas_store::{CacheArtifact, CacheProvenance};
use atlas_synth::InitStrategy;

/// The Box running example; `broken` swaps `get`'s field load for a fresh
/// allocation — same interface, observably different implementation.
fn box_program(broken_get: bool) -> Program {
    let mut pb = ProgramBuilder::new();
    let mut obj = pb.class("Object");
    obj.library(true);
    let mut init = obj.constructor();
    init.this();
    init.finish();
    obj.build();
    let mut c = pb.class("Box");
    c.library(true);
    c.field("f", Type::object());
    let mut init = c.constructor();
    init.this();
    init.finish();
    let mut set = c.method("set");
    let this = set.this();
    let ob = set.param("ob", Type::object());
    set.store(this, "f", ob);
    set.finish();
    let mut get = c.method("get");
    get.returns(Type::object());
    let this = get.this();
    let r = get.local("r", Type::object());
    if broken_get {
        let obj_class = get.cref("Object");
        get.new_object(r, obj_class);
    } else {
        get.load(r, this, "f");
    }
    get.ret(Some(r));
    get.finish();
    c.build();
    pb.build()
}

fn set_get_word(p: &Program) -> Vec<ParamSlot> {
    let set = p.method_qualified("Box.set").unwrap();
    let get = p.method_qualified("Box.get").unwrap();
    vec![
        ParamSlot::param(set, 0),
        ParamSlot::receiver(set),
        ParamSlot::receiver(get),
        ParamSlot::ret(get),
    ]
}

#[test]
fn cache_transfers_across_identical_program_instances() {
    // Two *separate* builds of the same program: content-addressed keys
    // must match, so verdicts paid for on instance A answer instance B.
    let a = box_program(false);
    let b = box_program(false);
    let iface_a = LibraryInterface::from_program(&a);
    let iface_b = LibraryInterface::from_program(&b);
    assert_eq!(
        library_fingerprint(&a, &iface_a),
        library_fingerprint(&b, &iface_b)
    );

    let mut oracle_a = Oracle::new(&a, &iface_a, OracleConfig::default());
    assert!(oracle_a.check_word(&set_get_word(&a)));
    assert!(oracle_a.stats().executions > 0);

    let mut oracle_b = Oracle::with_cache(
        &b,
        &iface_b,
        OracleConfig::default(),
        &oracle_a.into_cache(),
    );
    assert!(oracle_b.check_word(&set_get_word(&b)));
    assert_eq!(oracle_b.stats().executions, 0, "verdict reused, not re-run");
    assert_eq!(oracle_b.cache_stats().warm_hits, 1);
}

#[test]
fn library_variants_never_share_verdicts() {
    // Same interface, different implementation: the fingerprint (and hence
    // every key context) differs, so the working variant's cache yields no
    // hits — and the broken variant correctly computes its own `false`.
    let good = box_program(false);
    let bad = box_program(true);
    let iface_good = LibraryInterface::from_program(&good);
    let iface_bad = LibraryInterface::from_program(&bad);
    assert_eq!(iface_good.num_methods(), iface_bad.num_methods());
    assert_ne!(
        library_fingerprint(&good, &iface_good),
        library_fingerprint(&bad, &iface_bad)
    );

    let mut oracle_good = Oracle::new(&good, &iface_good, OracleConfig::default());
    assert!(oracle_good.check_word(&set_get_word(&good)));

    let mut oracle_bad = Oracle::with_cache(
        &bad,
        &iface_bad,
        OracleConfig::default(),
        &oracle_good.into_cache(),
    );
    assert!(
        !oracle_bad.check_word(&set_get_word(&bad)),
        "broken get must not inherit the working variant's verdict"
    );
    assert_eq!(oracle_bad.cache_stats().warm_hits, 0);
    assert!(oracle_bad.stats().executions > 0);
}

#[test]
fn limits_and_strategy_are_part_of_the_key() {
    let p = box_program(false);
    let iface = LibraryInterface::from_program(&p);
    let word = set_get_word(&p);
    let fp = library_fingerprint(&p, &iface);
    let default_keyer = CacheKeyer::with_fingerprint(
        &p,
        &iface,
        fp,
        InitStrategy::Instantiate,
        ExecLimits::for_unit_tests(),
    );
    let null_keyer = CacheKeyer::with_fingerprint(
        &p,
        &iface,
        fp,
        InitStrategy::Null,
        ExecLimits::for_unit_tests(),
    );
    let starved_keyer = CacheKeyer::with_fingerprint(
        &p,
        &iface,
        fp,
        InitStrategy::Instantiate,
        ExecLimits {
            max_steps: 1,
            max_call_depth: 1,
            max_heap_objects: 1,
        },
    );
    assert_ne!(default_keyer.context(), null_keyer.context());
    assert_ne!(default_keyer.context(), starved_keyer.context());
    assert_ne!(default_keyer.key(&word), null_keyer.key(&word));
    // Within one context, different words get different keys and key
    // computation is stable.
    assert_eq!(default_keyer.key(&word), default_keyer.key(&word));
    assert_ne!(default_keyer.key(&word), default_keyer.key(&word[..2]));

    // An oracle with starvation-level limits never hits on a cache built
    // under the default limits.
    let mut generous = Oracle::new(&p, &iface, OracleConfig::default());
    assert!(generous.check_word(&word));
    let mut starved = Oracle::with_cache(
        &p,
        &iface,
        OracleConfig {
            limits: ExecLimits {
                max_steps: 1,
                max_call_depth: 1,
                max_heap_objects: 1,
            },
            ..OracleConfig::default()
        },
        &generous.into_cache(),
    );
    assert!(!starved.check_word(&word), "starved execution must fail");
    assert_eq!(starved.cache_stats().warm_hits, 0);
}

#[test]
fn session_caches_accumulate_and_stats_merge_as_sums() {
    let mut pb = ProgramBuilder::new();
    atlas_javalib::install_library(&mut pb);
    atlas_javalib::install_box_example(&mut pb);
    let library = pb.build();
    let interface = LibraryInterface::from_program(&library);
    let box_cluster = atlas_javalib::class_ids(&library, &["Box"]);
    let stack_cluster = atlas_javalib::class_ids(&library, &["Stack"]);
    let fingerprint = library_fingerprint(&library, &interface);
    for num_threads in [1, 4] {
        let config = atlas_core::AtlasConfig {
            samples_per_cluster: 250,
            clusters: vec![box_cluster.clone(), stack_cluster.clone()],
            num_threads,
            ..atlas_core::AtlasConfig::default()
        };

        let engine = atlas_core::Engine::new(&library, &interface, config.clone());
        let mut session = engine.session();
        let outcome = session.run();
        let cache = session.into_cache();

        // The aggregated counters are the sums of the per-cluster oracles':
        // every oracle query is exactly one cache lookup, and the harvested
        // cache carries the same totals.
        assert_eq!(outcome.cache_stats.lookups, outcome.oracle_queries);
        assert_eq!(
            outcome.cache_stats.misses,
            outcome.cache_stats.lookups - outcome.cache_stats.hits
        );
        assert_eq!(cache.stats().lookups, outcome.cache_stats.lookups);
        assert_eq!(cache.stats().hits, outcome.cache_stats.hits);
        // Memoization pays off even within a single cold run.
        assert!(outcome.cache_stats.hits > 0);
        assert!(cache.len() <= outcome.cache_stats.insertions);

        // Chained sessions: warm-start from run 1; run 2 executes nothing,
        // so every lookup is a warm hit.
        let engine2 =
            atlas_core::Engine::new(&library, &interface, config.clone()).warm_start(cache.clone());
        let mut session2 = engine2.session();
        let outcome2 = session2.run();
        let cache2 = session2.into_cache();
        assert_eq!(outcome2.oracle_executions, 0);
        assert_eq!(outcome2.cache_stats.warm_hits, outcome2.cache_stats.lookups);
        // Run 2's harvested cache lists exactly run 1's verdicts, context
        // by context, each in insertion order.
        assert_eq!(
            cache2.entries().collect::<Vec<_>>(),
            cache.entries().collect::<Vec<_>>(),
            "{num_threads} thread(s)"
        );
        // So every cluster's persisted verdict half renders the same bytes
        // from either cache.  Counters are zeroed on both sides: run 2
        // counts its own warm hits.
        for job in engine.cluster_jobs() {
            let provenance =
                CacheProvenance::for_closure(fingerprint, job.closure, config.init, config.limits);
            assert!(cache.context_entries(provenance.context).next().is_some());
            let render = |cache: &VerdictCache| {
                CacheArtifact::from_cache(&cache.warm_clone(), provenance)
                    .encode()
                    .render()
            };
            assert_eq!(
                render(&cache),
                render(&cache2),
                "cluster {} at {num_threads} thread(s)",
                job.index
            );
        }
    }
}
