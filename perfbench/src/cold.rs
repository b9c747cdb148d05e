//! `cold-javalib`: one op is a complete cold `Engine::run` over javalib
//! (4000 samples per cluster, MCTS, the default seeds, no store) followed
//! by encoding and rendering its `atlas-spec/1` artifact.  The learner and
//! the oracle do their work here; the store, serve and incremental layers
//! are bypassed.

use crate::measure::{self, median, ms, tail, timed, Sentinel};
use crate::spans::Tracer;
use crate::{Args, Outcome, Schedule};
use atlas_core::{AtlasConfig, Engine, InferenceOutcome};
use atlas_interp::{BuiltinRegistry, CompiledProgram, ExecLimits, Vm, VmScratch};
use atlas_ir::{LibraryInterface, Program};
use atlas_learn::{library_fingerprint, CacheKeyer, VerdictCache};
use atlas_serve::{render_compact, EXTRACTION};
use atlas_spec::PathSpec;
use atlas_synth::{synthesize_witness, InitStrategy, InstantiationPlanner, WitnessScratch};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// One size of the workload, with the fingerprint of its work and
/// output recorded at the commit that introduced the benchmark.
struct Size {
    library: &'static str,
    samples: usize,
    /// FNV-1a of the rendered `atlas-spec/1` artifact.
    golden: &'static str,
    queries: usize,
    executions: usize,
    /// Seconds an op takes at most on the reference host.
    op_s: f64,
}

const FULL: Size = Size {
    library: "javalib",
    samples: 4000,
    golden: "0x971d9ab4ef320039",
    queries: 13_831,
    executions: 10_358,
    op_s: 4.0,
};

const TOY: Size = Size {
    library: "javalib-lang",
    samples: 500,
    golden: "0x51c04a829e4573c8",
    queries: 538,
    executions: 383,
    op_s: 0.1,
};

/// Library builds per set-up sample.  One build takes well under a
/// millisecond, so a sample times a batch of them; and a sample is taken
/// after every op, so the samples span the run and see the same host
/// the ops see.  `setup_s` is the median sample, per build.
const SETUP_BATCH: usize = 25;
/// Synthetic-member seed of the registry (the daemon's default).
const SYNTH_SEED: u64 = 0x5EED;

/// The library under inference.
struct Library {
    program: Program,
    interface: LibraryInterface,
    config: AtlasConfig,
}

/// One set-up sample: `SETUP_BATCH` library builds, the last one kept,
/// with the mean seconds per build.
fn setup(size: &Size) -> Result<(Library, f64), String> {
    let t = Instant::now();
    let mut built = None;
    for _ in 0..SETUP_BATCH {
        let lib =
            atlas_apps::build_library(size.library, SYNTH_SEED).map_err(|e| format!("{e:?}"))?;
        let interface = LibraryInterface::from_program(&lib.program);
        built = Some((lib, interface));
    }
    let secs = t.elapsed().as_secs_f64() / SETUP_BATCH as f64;
    let (lib, interface) = built.expect("a set-up builds the library");
    let config = AtlasConfig {
        samples_per_cluster: size.samples,
        clusters: lib.clusters,
        num_threads: 1,
        ..AtlasConfig::default()
    };
    let library = Library {
        program: lib.program,
        interface,
        config,
    };
    Ok((library, secs))
}

/// The op's artifact, encoded against its program and rendered.
fn render(lib: &Library, outcome: &InferenceOutcome) -> String {
    let doc = outcome
        .spec_artifact(&lib.program, &lib.interface, EXTRACTION.0, EXTRACTION.1)
        .encode(&lib.program)
        .expect("a fresh artifact encodes against its own program");
    render_compact(&doc)
}

/// What one op produced.
struct Op {
    outcome: InferenceOutcome,
    /// The verdicts the run paid for.
    cache: VerdictCache,
    rendered: String,
    ms: f64,
    encode_ms: f64,
}

/// One op: a cold run, then the artifact encoded and rendered.  The
/// untraced op runs the engine without a recorder.
fn op(lib: &Library, tracer: &mut Tracer, traced: bool) -> Op {
    let engine = Engine::new(&lib.program, &lib.interface, lib.config.clone());
    let engine = if traced {
        engine.with_recorder(tracer.program_recorder())
    } else {
        engine
    };
    let mut span = tracer.op();
    let t = Instant::now();
    let mut session = engine.session();
    let outcome = span.child("engine.run", || session.run());
    let (rendered, encode_ms) = span.child("spec.encode", || timed(|| render(lib, &outcome)));
    let elapsed = ms(t.elapsed());
    span.end("cold-op");
    Op {
        outcome,
        cache: session.into_cache(),
        rendered,
        ms: elapsed,
        encode_ms,
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let size = if args.toy { &TOY } else { &FULL };
    let (lib, secs) = setup(size)?;
    let mut setups = vec![secs];
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let mut sentinel = Sentinel::new(args.seed, Duration::ZERO);
    let mut tracer = Tracer::new(args.trace);
    let mut untraced = Vec::new();
    let mut traced: Vec<Op> = Vec::new();
    let mut first_counts = None;
    let mut schedule = Schedule::new(args, size.op_s);
    while let Some(trace_this) = schedule.next_op() {
        sentinel.between_ops();
        let op = op(&lib, &mut tracer, trace_this);
        let hash = measure::hash_hex(&op.rendered);
        let counts = (op.outcome.oracle_queries, op.outcome.oracle_executions);
        let first = *first_counts.get_or_insert(counts);
        out.check(hash == size.golden && counts == first, || {
            format!(
                "artifact hash {hash} (golden {}), counts {counts:?} (first op {first:?})",
                size.golden
            )
        });
        if trace_this {
            traced.push(op);
        } else {
            untraced.push(op.ms);
        }
        setups.push(setup(size)?.1);
    }

    let (queries, executions) = first_counts.expect("at least one op");
    out.work(&[
        (
            "learn.oracle.queries",
            "count",
            queries as f64,
            size.queries as f64,
        ),
        (
            "learn.oracle.executions",
            "count",
            executions as f64,
            size.executions as f64,
        ),
    ]);
    out.set("ops", untraced.len() as f64, "count");
    sentinel.report(&mut out);
    out.set("cold_p50_s", median(&untraced) / 1e3, "s");
    let per_s = untraced.len() as f64 / (untraced.iter().sum::<f64>() / 1e3);
    out.end_to_end(&setups, median(&untraced), tail(&untraced), per_s);
    if !args.trace {
        return Ok(out);
    }

    // Traced run: per-layer attribution from the traced ops.
    let traced_ms: Vec<f64> = traced.iter().map(|op| op.ms).collect();
    out.set(
        "obs.trace_overhead_pct",
        (median(&traced_ms) / median(&untraced) - 1.0) * 100.0,
        "%",
    );
    let last = traced.last().expect("a traced run makes a traced op");
    let phase = |o: &InferenceOutcome, f: fn(&atlas_core::ClusterOutcome) -> Duration| {
        o.clusters.iter().map(|c| ms(f(c))).collect::<Vec<f64>>()
    };
    let rpni = phase(&last.outcome, |c| c.phase2_time);
    let sample = phase(&last.outcome, |c| c.phase1_time);
    out.set("learn.rpni.ms", rpni.iter().sum(), "ms");
    out.set(
        "learn.rpni.max_cluster_ms",
        rpni.iter().copied().fold(0.0, f64::max),
        "ms",
    );
    out.set("learn.sample.ms", sample.iter().sum(), "ms");
    out.set(
        "learn.cache.hit_rate",
        last.outcome.cache_stats.hit_rate(),
        "ratio",
    );
    out.set(
        "store.spec_encode_ms",
        median(&traced.iter().map(|op| op.encode_ms).collect::<Vec<_>>()),
        "ms",
    );

    // The learner's own time: replay the op warm-started from the cache
    // it harvested, so no unit test executes; the difference is oracle
    // time.
    let warm = Engine::new(&lib.program, &lib.interface, lib.config.clone())
        .warm_start(last.cache.warm_clone())
        .run();
    if warm.oracle_executions != 0 || render(&lib, &warm) != last.rendered {
        out.correct = false;
        eprintln!("perfbench: the warm replay diverged from its cold run");
    }
    let warm_rpni: f64 = phase(&warm, |c| c.phase2_time).iter().sum();
    let warm_sample: f64 = phase(&warm, |c| c.phase1_time).iter().sum();
    out.set("learn.rpni.self_ms", warm_rpni, "ms");
    out.set("learn.sample.self_ms", warm_sample, "ms");
    out.set(
        "learn.oracle.ms",
        rpni.iter().sum::<f64>() + sample.iter().sum::<f64>() - warm_rpni - warm_sample,
        "ms",
    );

    per_call_layers(&lib, &last.outcome, &mut out);
    crate::spans::export(args, &tracer, &out.metrics)?;
    Ok(out)
}

/// Mean time per call of `f`, repeated over `items` until at least
/// 20 ms have passed, in ns.
fn per_call_ns<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let t = Instant::now();
    let mut calls = 0usize;
    while calls == 0 || t.elapsed() < Duration::from_millis(20) {
        for item in items {
            f(item);
        }
        calls += items.len();
    }
    t.elapsed().as_nanos() as f64 / calls as f64
}

/// The oracle's inner layers, timed call by call over the run's
/// positive examples: cache keying, witness synthesis, witness lowering
/// and VM execution; plus the one-time bytecode compilation.
fn per_call_layers(lib: &Library, outcome: &InferenceOutcome, out: &mut Outcome) {
    let (program, interface) = (&lib.program, &lib.interface);
    let positives: Vec<&PathSpec> = outcome
        .clusters
        .iter()
        .flat_map(|c| c.positives.iter())
        .collect();
    let limits = ExecLimits::for_unit_tests();
    let strategy = InitStrategy::Instantiate;
    let keyer = CacheKeyer::with_fingerprint(
        program,
        interface,
        library_fingerprint(program, interface),
        strategy,
        limits,
    );
    out.set(
        "learn.cache.key_ns",
        per_call_ns(&positives, |spec| {
            black_box(keyer.key(spec.symbols()));
        }),
        "ns",
    );
    let planner = InstantiationPlanner::new(program, interface);
    let synth = |spec: &PathSpec| synthesize_witness(program, interface, &planner, spec, strategy);
    out.set(
        "synth.witness_us",
        per_call_ns(&positives, |spec| {
            let _ = black_box(synth(spec));
        }) / 1e3,
        "us",
    );
    let witnesses: Vec<_> = positives.iter().filter_map(|s| synth(s).ok()).collect();
    let mut scratch = WitnessScratch::default();
    out.set(
        "synth.lower_us",
        per_call_ns(&witnesses, |w| {
            black_box(w.compile_into(&mut scratch));
        }) / 1e3,
        "us",
    );
    let compile = (0..3)
        .map(|_| timed(|| CompiledProgram::compile(program)))
        .map(|(c, t)| {
            black_box(c);
            t
        })
        .collect::<Vec<f64>>();
    out.set("interp.compile_ms", median(&compile), "ms");
    let compiled = CompiledProgram::compile(program);
    let lowered: Vec<_> = witnesses.iter().map(|w| w.compile()).collect();
    let builtins = BuiltinRegistry::with_defaults();
    let mut vm = Vm::with_scratch(&compiled, &builtins, limits, VmScratch::default());
    out.set(
        "interp.vm_us",
        per_call_ns(&lowered, |cw| {
            vm.reset(limits);
            let _ = black_box(vm.run_witness(cw));
        }) / 1e3,
        "us",
    );
}
