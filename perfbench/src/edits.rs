//! `serve-edits`: a daemon on javalib at 120 samples per cluster with the
//! default write-behind schedule replays a fixed stream of mutation
//! edits.  One op is an edit followed by one `specs` read, both through
//! the NDJSON wire codec (`encode_request`, `ServeHandle::request_line`,
//! `encode_response`).  The stream is generated and dry-run on a client
//! replica during set-up, which predicts every edit's dirty-cluster count
//! and library fingerprint.

use crate::measure::{median, ms, tail, timed, Sentinel};
use crate::spans::{covered_ns, has_arg, named, Tracer};
use crate::{Args, Outcome, Schedule};
use atlas_apps::{mutate_library, MutationConfig};
use atlas_core::{AtlasConfig, Engine};
use atlas_ir::hash::library_fingerprint;
use atlas_ir::{ClassId, DepGraph, LibraryInterface, MutationKind, Program};
use atlas_serve::{
    encode_request, encode_response, render_compact, EditRequest, Envelope, Request, Response,
    ServeHandle, Service, EXTRACTION,
};
use atlas_store::{hex64_string, Json};
use std::path::Path;
use std::time::{Duration, Instant};

/// One size of the workload, with the fingerprint of its work recorded
/// at the commit that introduced the benchmark.
struct Size {
    library: &'static str,
    samples: usize,
    /// Proposed edits; ineligible ones are dropped during set-up.
    edits: usize,
    /// Mutation seed of edit 0; edit `i` uses `seed + i`.
    seed: u64,
    /// Over the stream: accepted edits, dirty clusters, oracle
    /// executions, spliced verdicts.
    work: [i64; 4],
    /// Seconds one replay with its set-up takes at most on the reference
    /// host: the schedule's op is a whole replay.
    replay_s: f64,
}

const FULL: Size = Size {
    library: "javalib",
    samples: 120,
    edits: 1000,
    seed: 0xA77A5,
    work: [1000, 1716, 26_612, 185_114],
    replay_s: 25.0,
};

const TOY: Size = Size {
    library: "javalib-lang",
    samples: 120,
    edits: 24,
    seed: 7,
    work: [24, 8, 357, 1833],
    replay_s: 1.0,
};

/// Set-ups per run at least; `setup_s` is their median.
const SETUPS: usize = 3;

/// Names and units of the stream's work counts, in `Size::work` order.
const WORK: [(&str, &str); 4] = [
    ("serve.edits.accepted", "count"),
    ("core.incremental.dirty_clusters", "count"),
    ("learn.oracle.executions", "count"),
    ("core.incremental.spliced_verdicts", "count"),
];

/// The generator rotation of the stream.
const EDIT_KINDS: [MutationKind; 4] = [
    MutationKind::BodyEdit,
    MutationKind::RenameLocal,
    MutationKind::AddMethod,
    MutationKind::SignatureChange,
];

/// One eligible edit with what the dry run predicts for it.
struct Edit {
    request: EditRequest,
    dirty: i64,
    fingerprint: String,
}

/// The dry-run stream: eligible edits, the replica's final program, and
/// the replica's per-edit layer timings.
struct Stream {
    edits: Vec<Edit>,
    program: Program,
    clusters: Vec<Vec<ClassId>>,
    mutate_ms: Vec<f64>,
    depgraph_ms: Vec<f64>,
}

/// Generates the stream and dry-runs every edit on a client replica,
/// keeping the eligible ones.  A cluster is predicted dirty when its
/// dependency closure changed (empty clusters never run).
fn generate(size: &Size) -> Result<Stream, String> {
    let lib = atlas_apps::build_library(size.library, 0x5EED).map_err(|e| format!("{e:?}"))?;
    let closures = |graph: &DepGraph| -> Vec<u64> {
        lib.clusters
            .iter()
            .map(|c| graph.closure_fingerprint(c))
            .collect()
    };
    let mut program = lib.program.clone();
    let mut before = closures(&DepGraph::build(&program));
    let mut stream = Stream {
        edits: Vec::new(),
        program: lib.program.clone(),
        clusters: lib.clusters.clone(),
        mutate_ms: Vec::new(),
        depgraph_ms: Vec::new(),
    };
    for i in 0..size.edits {
        let request = EditRequest {
            kind: EDIT_KINDS[i % EDIT_KINDS.len()],
            target: None,
            seed: size.seed + i as u64,
        };
        let mutation = MutationConfig::new(request.kind, request.seed);
        let (mutated, mutate_ms) = timed(|| mutate_library(&program, &mutation));
        let Ok(mutated) = mutated else { continue };
        let (graph, depgraph_ms) = timed(|| DepGraph::build(&mutated.program));
        let after = closures(&graph);
        let interface = LibraryInterface::from_program(&mutated.program);
        let dirty = (0..after.len())
            .filter(|&c| after[c] != before[c])
            .filter(|&c| {
                !interface
                    .restrict_to_classes(&lib.clusters[c])
                    .slots()
                    .is_empty()
            })
            .count();
        stream.edits.push(Edit {
            request,
            dirty: dirty as i64,
            fingerprint: hex64_string(library_fingerprint(&mutated.program, &interface)),
        });
        stream.mutate_ms.push(mutate_ms);
        stream.depgraph_ms.push(depgraph_ms);
        program = mutated.program;
        before = after;
    }
    stream.program = program;
    Ok(stream)
}

/// One set-up: the stream plus a daemon cold-started on an empty store.
fn setup(size: &Size, store: &Path, trace: bool) -> Result<(Stream, Service, f64), String> {
    let _ = std::fs::remove_dir_all(store);
    let t = Instant::now();
    let stream = generate(size)?;
    let service = Service::spawn(crate::serve_config(
        size.library,
        size.samples,
        store,
        trace,
    ))
    .map_err(|e| format!("{e:?}"))?;
    Ok((stream, service, t.elapsed().as_secs_f64()))
}

/// Sends one request through the wire codec: `(reply, rendered ms,
/// render ms)`, timed from encoding the frame to rendering the reply.
fn exchange(handle: &ServeHandle, envelope: &Envelope) -> (Response, f64, f64) {
    let t = Instant::now();
    let line = encode_request(envelope);
    let reply = handle.request_line(&line);
    let (rendered, render_ms) = timed(|| encode_response(&reply));
    std::hint::black_box(rendered);
    (reply, ms(t.elapsed()), render_ms)
}

/// What one replay of the stream measured.
#[derive(Default)]
struct Replay {
    edit_ms: Vec<f64>,
    read_ms: Vec<f64>,
    render_ms: Vec<f64>,
    /// Accepted edits, dirty clusters, oracle executions, spliced
    /// verdicts.
    work: [i64; 4],
    /// The last read's artifact, rendered.
    artifact: String,
}

impl Replay {
    fn op_ms(&self) -> Vec<f64> {
        self.edit_ms
            .iter()
            .zip(&self.read_ms)
            .map(|(e, r)| e + r)
            .collect()
    }

    fn op_p50(&self) -> f64 {
        median(&self.op_ms())
    }

    fn op_tail(&self) -> f64 {
        tail(&self.op_ms())
    }

    fn per_s(&self) -> f64 {
        self.work[0] as f64 / (self.op_ms().iter().sum::<f64>() / 1e3)
    }
}

/// Replays the stream against the daemon: each edit, then one read.
fn replay(
    stream: &Stream,
    service: &Service,
    sentinel: &mut Sentinel,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Replay {
    let mut r = Replay::default();
    let handle = service.handle();
    for (k, edit) in stream.edits.iter().enumerate() {
        sentinel.between_ops();
        let id = 2 * k as i64;
        let mut span = tracer.op();
        let edit_req = Envelope::with_id(id, Request::Edit(edit.request.clone()));
        let (reply, edit_ms, _) = span.child("edit", || exchange(&handle, &edit_req));
        let read_req = Envelope::with_id(id + 1, Request::Specs);
        let (read, read_ms, render_ms) = span.child("read", || exchange(&handle, &read_req));
        span.end("edit-op");
        r.edit_ms.push(edit_ms);
        r.read_ms.push(read_ms);
        r.render_ms.push(render_ms);

        let result = reply.outcome.as_ref().ok();
        let field = |path: &[&str]| {
            let mut v = result?;
            for key in path {
                v = v.get(key)?;
            }
            v.as_int()
        };
        let dirty = field(&["clusters", "dirty"]);
        let forced = field(&["clusters", "forced_dirty"]);
        let read = read.outcome.ok();
        let fingerprint = read
            .as_ref()
            .and_then(|s| s.get("library_fingerprint"))
            .and_then(Json::as_str)
            .map(str::to_string);
        let ok = dirty == Some(edit.dirty)
            && forced == Some(0)
            && fingerprint.as_deref() == Some(edit.fingerprint.as_str());
        out.check(ok, || {
            format!(
                "edit {k}: dirty {dirty:?} (predicted {}), forced {forced:?}, \
                 fingerprint {fingerprint:?} (replica {})",
                edit.dirty, edit.fingerprint
            )
        });
        r.work[0] += i64::from(result.is_some());
        r.work[1] += dirty.unwrap_or(0);
        r.work[2] += field(&["executions", "oracle"]).unwrap_or(0);
        r.work[3] += field(&["executions", "spliced_verdicts"]).unwrap_or(0);
        if k + 1 == stream.edits.len() {
            r.artifact = read
                .and_then(|s| s.get("artifact").map(render_compact))
                .unwrap_or_default();
        }
    }
    r
}

/// The cold batch run over the replica's final program, rendered: what
/// the daemon's final `specs` must equal byte for byte.
fn cold_baseline(size: &Size, stream: &Stream) -> Result<String, String> {
    let interface = LibraryInterface::from_program(&stream.program);
    let config = AtlasConfig {
        samples_per_cluster: size.samples,
        clusters: stream.clusters.clone(),
        num_threads: 1,
        ..AtlasConfig::default()
    };
    let outcome = Engine::new(&stream.program, &interface, config).run();
    let doc = outcome
        .spec_artifact(&stream.program, &interface, EXTRACTION.0, EXTRACTION.1)
        .encode(&stream.program)
        .map_err(|e| e.to_string())?;
    Ok(render_compact(&doc))
}

/// The `stats` reply, then shutdown.
fn finish(mut service: Service) -> Result<Json, String> {
    let handle = service.handle();
    let stats = handle.request(Envelope::of(Request::Stats)).outcome;
    let stop = handle.request(Envelope::of(Request::Shutdown)).outcome;
    service.join();
    stop.map_err(|e| format!("shutdown refused: {}", e.message))?;
    stats.map_err(|e| format!("stats refused: {}", e.message))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let size = if args.toy { &TOY } else { &FULL };
    let store = args.out.join(format!("serve-edits-{}", std::process::id()));
    let result = measure_stream(args, size, &store);
    let _ = std::fs::remove_dir_all(&store);
    result
}

fn measure_stream(args: &Args, size: &Size, store: &Path) -> Result<Outcome, String> {
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let mut sentinel = Sentinel::new(args.seed, Duration::from_millis(200));
    let mut tracer = Tracer::new(args.trace);
    let mut setups = Vec::new();
    let (mut untraced, mut traced) = (Vec::<Replay>::new(), Vec::<(Replay, Json)>::new());
    let mut events = Vec::new();
    let mut last_stream = None;
    // Whole replays, each on a fresh daemon.
    let mut schedule = Schedule::new(args, size.replay_s);
    while let Some(trace_this) = schedule.next_op() {
        let (stream, service, secs) = setup(size, store, trace_this)?;
        setups.push(secs);
        if trace_this {
            tracer.adopt(service.recorder());
        }
        let r = replay(&stream, &service, &mut sentinel, &mut tracer, &mut out);
        let recorder = service.recorder().clone();
        let stats = finish(service)?;
        if trace_this {
            events = recorder.events();
            out.set(
                "serve.service.queue_wait_ms",
                recorder
                    .histogram("serve.queue_wait_ns")
                    .map_or(0.0, |h| h.percentile(50) as f64 / 1e6),
                "ms",
            );
            // The restart path, over the store this stream left behind.
            crate::restart::restart_layers(size.library, size.samples, store, &mut out)?;
            traced.push((r, stats));
        } else {
            untraced.push(r);
        }
        last_stream = Some(stream);
    }
    while setups.len() < SETUPS {
        let (_, service, secs) = setup(size, store, false)?;
        setups.push(secs);
        finish(service)?;
    }

    // Run-level checks, outside the timed region: every replay did the
    // same work and served the artifact a cold batch run produces.
    let stream = last_stream.expect("at least one replay");
    let baseline = cold_baseline(size, &stream)?;
    let all = untraced.iter().chain(traced.iter().map(|(r, _)| r));
    let work = untraced[0].work;
    for r in all {
        if r.artifact != baseline || r.work != work {
            out.correct = false;
            eprintln!(
                "perfbench: a replay served {} artifact, work {:?} (first {work:?})",
                if r.artifact == baseline {
                    "the cold"
                } else {
                    "a different"
                },
                r.work
            );
        }
    }
    let counts: Vec<_> = WORK
        .iter()
        .zip(work.iter().zip(size.work))
        .map(|(&(name, unit), (&count, recorded))| (name, unit, count as f64, recorded as f64))
        .collect();
    out.work(&counts);
    out.set(
        "ops",
        untraced.iter().map(|r| r.edit_ms.len()).sum::<usize>() as f64,
        "count",
    );
    sentinel.report(&mut out);
    // Each number is taken per replay, then the median over replays.
    let across = |f: &dyn Fn(&Replay) -> f64| median(&untraced.iter().map(f).collect::<Vec<_>>());
    out.set("edit_p50_ms", across(&|r| median(&r.edit_ms)), "ms");
    out.set("edit_tail_ms", across(&|r| tail(&r.edit_ms)), "ms");
    out.set("read_p50_ms", across(&|r| median(&r.read_ms)), "ms");
    out.set("read_tail_ms", across(&|r| tail(&r.read_ms)), "ms");
    out.set("edits_per_s", across(&Replay::per_s), "1/s");
    out.end_to_end(
        &setups,
        across(&Replay::op_p50),
        across(&Replay::op_tail),
        across(&Replay::per_s),
    );
    if !args.trace {
        return Ok(out);
    }

    let (traced_replay, stats) = traced.last().expect("a traced run makes a traced replay");
    let traced_p50 = median(&traced.iter().map(|(r, _)| r.op_p50()).collect::<Vec<_>>());
    out.set(
        "obs.trace_overhead_pct",
        (traced_p50 / across(&Replay::op_p50) - 1.0) * 100.0,
        "%",
    );
    let first = &untraced[0].edit_ms;
    let block = first.len().min(100);
    out.set(
        "serve.edit_growth",
        median(&first[first.len() - block..]) / median(&first[..block]),
        "ratio",
    );
    out.set("apps.mutate_ms", median(&stream.mutate_ms), "ms");
    out.set("ir.depgraph_ms", median(&stream.depgraph_ms), "ms");
    out.set(
        "serve.proto.render_ms",
        median(&traced_replay.render_ms),
        "ms",
    );
    let stat = |path: &[&str]| {
        path.iter()
            .try_fold(stats, |v, key| v.get(key))
            .and_then(Json::as_int)
            .unwrap_or(-1) as f64
    };
    out.set("learn.cache.entries", stat(&["warm_verdicts"]), "count");
    out.set("serve.shards.loads", stat(&["shards", "misses"]), "count");
    out.set(
        "serve.shards.flushes",
        stat(&["shards", "flushes"]),
        "count",
    );
    out.set(
        "serve.shards.evictions",
        stat(&["shards", "evictions"]),
        "count",
    );
    span_layers(&events, traced_replay, &mut out);

    crate::spans::export(args, &tracer, &out.metrics)?;
    Ok(out)
}

/// The daemon's own spans of the traced replay, attributed per edit.
/// Only spans within the stream count: the daemon's cold start and its
/// shutdown flush are not edits.
fn span_layers(events: &[atlas_obs::Event], replay: &Replay, out: &mut Outcome) {
    let requests = named(events, "serve", "request");
    let edits: Vec<_> = requests
        .iter()
        .filter(|e| has_arg(e, "op", "edit"))
        .copied()
        .collect();
    let reads: Vec<_> = requests
        .iter()
        .filter(|e| has_arg(e, "op", "specs"))
        .copied()
        .collect();
    let lo = edits.iter().map(|e| e.start_ns).min().unwrap_or(0);
    let hi = edits
        .iter()
        .map(|e| e.start_ns + e.dur_ns)
        .max()
        .unwrap_or(0);
    let stream: Vec<atlas_obs::Event> = events
        .iter()
        .filter(|e| e.start_ns >= lo && e.start_ns + e.dur_ns <= hi)
        .cloned()
        .collect();
    let span_ms = |spans: &[&atlas_obs::Event]| {
        spans
            .iter()
            .map(|e| e.dur_ns as f64 / 1e6)
            .collect::<Vec<f64>>()
    };
    let edit_span_ms = span_ms(&edits);
    out.set("serve.request.edit_p50_ms", median(&edit_span_ms), "ms");
    out.set("serve.request.edit_tail_ms", tail(&edit_span_ms), "ms");
    out.set("serve.request.specs_ms", median(&span_ms(&reads)), "ms");
    let handoff: Vec<f64> = replay
        .edit_ms
        .iter()
        .zip(&edit_span_ms)
        .map(|(client, server)| client - server)
        .collect();
    out.set("serve.service.handoff_ms", median(&handoff), "ms");
    let n = edits.len().max(1) as f64;
    let total_ms = |cat: &str, name: &str| span_ms(&named(&stream, cat, name)).iter().sum::<f64>();
    out.set(
        "core.incremental.ms",
        total_ms("incr", "incremental") / n,
        "ms",
    );
    out.set("learn.cluster_ms", total_ms("engine", "cluster") / n, "ms");
    out.set(
        "serve.shards.flush_ms",
        total_ms("shards", "flush") / n,
        "ms",
    );
    let inner: Vec<&atlas_obs::Event> = stream
        .iter()
        .filter(|e| e.dur_ns > 0 && !(e.cat == "serve" && e.name == "request"))
        .collect();
    let covered: u64 = edits.iter().map(|e| covered_ns(e, &inner)).sum();
    let total: u64 = edits.iter().map(|e| e.dur_ns).sum();
    out.set(
        "serve.request.unattributed_ms",
        (total - covered) as f64 / 1e6 / n,
        "ms",
    );
    out.set(
        "serve.request.attributed_share",
        covered as f64 / total.max(1) as f64,
        "ratio",
    );
}
