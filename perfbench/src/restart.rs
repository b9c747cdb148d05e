//! `warm-restart`: set-up cold-starts the daemon once on an empty store,
//! which seeds javalib at 4000 samples per cluster into closure shards.
//! One op is a `Service::spawn` over that unchanged store, timed up to
//! the first `specs` reply; shutdown is not timed.  This drives the store
//! decode and splice path and bypasses the learner and the oracle.

use crate::measure::{median, ms, tail, timed, Sentinel};
use crate::spans::Tracer;
use crate::{Args, Outcome, Schedule};
use atlas_core::{AtlasConfig, Engine};
use atlas_ir::DepGraph;
use atlas_ir::LibraryInterface;
use atlas_serve::{encode_request, encode_response, Envelope, Request, Service};
use atlas_store::{list_shards, load_cache, load_specs, shard_entry, Json, ShardEntry};
use std::path::Path;
use std::time::{Duration, Instant};

/// One size of the workload, with the fingerprint of its work recorded
/// at the commit that introduced the benchmark.
struct Size {
    library: &'static str,
    samples: usize,
    /// Shards the restart loads (misses of the hot shard cache).
    loads: i64,
    /// Bytes of the store's shard files.
    shard_bytes: u64,
    /// Seconds a restart and its shutdown take at most on the reference
    /// host.
    op_s: f64,
}

const FULL: Size = Size {
    library: "javalib",
    samples: 4000,
    loads: 11,
    shard_bytes: 1_239_966,
    op_s: 0.025,
};

const TOY: Size = Size {
    library: "javalib-lang",
    samples: 500,
    loads: 2,
    shard_bytes: 55_510,
    op_s: 0.01,
};

/// Cold seeds per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// The `specs` request every op sends first, as a wire frame.
fn specs_frame() -> String {
    encode_request(&Envelope::with_id(1_i64, Request::Specs))
}

/// Stops a service and waits for its worker.
fn stop(mut service: Service) -> Result<(), String> {
    let reply = service.handle().request(Envelope::of(Request::Shutdown));
    service.join();
    reply
        .outcome
        .map(|_| ())
        .map_err(|e| format!("shutdown refused: {}", e.message))
}

/// Total bytes of the store's shard files.
fn shard_bytes(store: &Path) -> Result<u64, String> {
    Ok(bytes_of(&list_shards(store).map_err(|e| e.to_string())?))
}

fn bytes_of(shards: &[ShardEntry]) -> u64 {
    let size = |p: &Path| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0);
    shards.iter().map(|s| size(&s.cache) + size(&s.specs)).sum()
}

/// One cold seed into an empty store: `(first specs reply, seconds)`.
fn seed(size: &Size, store: &Path) -> Result<(String, f64), String> {
    let _ = std::fs::remove_dir_all(store);
    let t = Instant::now();
    let service = Service::spawn(crate::serve_config(
        size.library,
        size.samples,
        store,
        false,
    ))
    .map_err(|e| format!("{e:?}"))?;
    let reply = encode_response(&service.handle().request_line(&specs_frame()));
    stop(service)?;
    Ok((reply, t.elapsed().as_secs_f64()))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let size = if args.toy { &TOY } else { &FULL };
    let root = args
        .out
        .join(format!("warm-restart-{}", std::process::id()));
    let result = measure_restarts(args, size, &root);
    let _ = std::fs::remove_dir_all(&root);
    result
}

fn measure_restarts(args: &Args, size: &Size, root: &Path) -> Result<Outcome, String> {
    let store = root.join("store");
    let mut setups = Vec::new();
    let mut expected: Option<String> = None;
    for _ in 0..SETUPS {
        let (reply, secs) = seed(size, &store)?;
        setups.push(secs);
        if expected.get_or_insert_with(|| reply.clone()) != &reply {
            return Err("two cold seeds served different artifacts".to_string());
        }
    }
    let expected = expected.expect("at least one set-up");
    let bytes = shard_bytes(&store)?;

    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let mut sentinel = Sentinel::new(args.seed, Duration::from_millis(200));
    let mut tracer = Tracer::new(args.trace);
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut shards = Json::Null;
    let frame = specs_frame();
    let mut schedule = Schedule::new(args, size.op_s);
    while let Some(trace_this) = schedule.next_op() {
        sentinel.between_ops();
        let cfg = crate::serve_config(size.library, size.samples, &store, trace_this);
        let mut span = tracer.op();
        let t = Instant::now();
        let service = span
            .child("daemon.spawn", || Service::spawn(cfg))
            .map_err(|e| format!("{e:?}"))?;
        let handle = service.handle();
        let reply = span.child("proto.first_read", || {
            encode_response(&handle.request_line(&frame))
        });
        let op_ms = ms(t.elapsed());
        span.end("restart-op");
        out.check(reply == expected, || {
            "the first specs reply differs from the seeded artifact".to_string()
        });
        // Shard-cache counters, once per run (they repeat exactly).
        if shards == Json::Null {
            let stats = handle.request(Envelope::of(Request::Stats));
            shards = stats
                .outcome
                .ok()
                .and_then(|s| s.get("shards").cloned())
                .unwrap_or(Json::Null);
        }
        if trace_this {
            tracer.adopt(service.recorder());
            traced.push(op_ms);
        } else {
            untraced.push(op_ms);
        }
        stop(service)?;
    }
    if shard_bytes(&store)? != bytes {
        out.correct = false;
        eprintln!("perfbench: a restart wrote to the store");
    }

    let count = |key: &str| shards.get(key).and_then(Json::as_int).unwrap_or(-1) as f64;
    out.work(&[
        (
            "serve.shards.loads",
            "count",
            count("misses"),
            size.loads as f64,
        ),
        (
            "store.shard_bytes",
            "bytes",
            bytes as f64,
            size.shard_bytes as f64,
        ),
    ]);
    out.set("ops", untraced.len() as f64, "count");
    sentinel.report(&mut out);
    out.set("restart_p50_ms", median(&untraced), "ms");
    out.set("restart_tail_ms", tail(&untraced), "ms");
    let per_s = untraced.len() as f64 / (untraced.iter().sum::<f64>() / 1e3);
    out.end_to_end(&setups, median(&untraced), tail(&untraced), per_s);
    if !args.trace {
        return Ok(out);
    }

    out.set(
        "obs.trace_overhead_pct",
        (median(&traced) / median(&untraced) - 1.0) * 100.0,
        "%",
    );
    out.set("serve.shards.flushes", count("flushes"), "count");
    out.set("serve.shards.evictions", count("evictions"), "count");
    restart_layers(size.library, size.samples, &store, &mut out)?;
    let lib = atlas_apps::build_library(size.library, 0x5EED).map_err(|e| format!("{e:?}"))?;
    out.set(
        "ir.depgraph_ms",
        median_of_five(&mut || {
            std::hint::black_box(DepGraph::build(&lib.program));
        }),
        "ms",
    );

    crate::spans::export(args, &tracer, &out.metrics)?;
    Ok(out)
}

fn median_of_five(f: &mut dyn FnMut()) -> f64 {
    median(&(0..5).map(|_| timed(&mut *f).1).collect::<Vec<_>>())
}

/// The restart's layers over a seeded store, timed call by call: the two
/// halves of an untraced restart (spawn; first `specs` reply), decoding
/// the shard files a restart splices, and building the library.
pub(crate) fn restart_layers(
    library: &str,
    samples: usize,
    store: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    let frame = specs_frame();
    let (mut spawn_ms, mut read_ms) = (Vec::new(), Vec::new());
    let t = Instant::now();
    while spawn_ms.len() < 20 || t.elapsed() < Duration::from_secs(1) {
        let config = crate::serve_config(library, samples, store, false);
        let (service, spawn) = timed(|| Service::spawn(config));
        let service = service.map_err(|e| format!("{e:?}"))?;
        let read = timed(|| encode_response(&service.handle().request_line(&frame))).1;
        stop(service)?;
        spawn_ms.push(spawn);
        read_ms.push(read);
    }
    out.set("serve.daemon.spawn_ms", median(&spawn_ms), "ms");
    out.set("serve.proto.first_read_ms", median(&read_ms), "ms");

    // The shards a restart splices: one per cluster closure.
    let lib = atlas_apps::build_library(library, 0x5EED).map_err(|e| format!("{e:?}"))?;
    let interface = LibraryInterface::from_program(&lib.program);
    let config = AtlasConfig {
        samples_per_cluster: samples,
        clusters: lib.clusters.clone(),
        ..AtlasConfig::default()
    };
    let shards: Vec<ShardEntry> = Engine::new(&lib.program, &interface, config)
        .run_provenance()
        .clusters
        .iter()
        .map(|c| shard_entry(store, c.closure))
        .collect();
    out.set("store.shard_bytes", bytes_of(&shards) as f64, "bytes");
    let mut failed = false;
    out.set(
        "store.cache_decode_ms",
        median_of_five(&mut || {
            for s in &shards {
                failed |= s.cache.exists() && load_cache(&s.cache).is_err();
            }
        }),
        "ms",
    );
    out.set(
        "store.spec_decode_ms",
        median_of_five(&mut || {
            for s in &shards {
                failed |= s.specs.exists() && load_specs(&s.specs, &lib.program).is_err();
            }
        }),
        "ms",
    );
    if failed {
        return Err("a shard file failed to decode".to_string());
    }
    out.set(
        "apps.build_library_ms",
        median_of_five(&mut || {
            let _ = std::hint::black_box(atlas_apps::build_library(library, 0x5EED));
        }),
        "ms",
    );
    Ok(())
}
