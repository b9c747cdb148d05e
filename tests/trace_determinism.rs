//! The observability no-interference invariant: attaching an `atlas-obs`
//! recorder — at any level, under any thread count — never changes a
//! single result byte, and the event stream itself is a deterministic
//! function of the workload rather than the schedule.
//!
//! Three angles:
//!
//! * **Artifact identity.**  Batch, incremental, and resident-service
//!   pipelines are run traced and untraced; spec artifacts (and, for the
//!   incremental leg, every store file) must be byte-identical.
//! * **Drain-order determinism.**  The same traced session at 1 and 4
//!   worker threads must export the same `(lane, cat, name)` event
//!   sequence: lanes are keyed by workload structure (cluster index),
//!   never by thread identity, and the export stable-sorts by lane.
//! * **Schedule-free counters.**  Commutative merges make the counter
//!   map thread-count-independent too.
//!
//! The traced daemon run also checks the trace's structure: every served
//! edit's request span contains a named span for each step of the edit.

use atlas_core::{AtlasConfig, Engine, Recorder};
use atlas_ir::{LibraryInterface, MutationKind};
use atlas_obs::{ArgValue, Event};
use atlas_serve::{Daemon, EditRequest, Envelope, Request, ServeConfig};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

const EXTRACTION: (usize, usize) = (8, 64);

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("atlas-tracedet-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn small_config(lib: &atlas_apps::RegistryLibrary, threads: usize) -> AtlasConfig {
    AtlasConfig {
        samples_per_cluster: 200,
        clusters: lib.clusters.clone(),
        num_threads: threads,
        ..AtlasConfig::default()
    }
}

/// One full inference run under `recorder`, rendered to artifact bytes.
fn batch_artifact(lib: &atlas_apps::RegistryLibrary, threads: usize, recorder: Recorder) -> String {
    let interface = LibraryInterface::from_program(&lib.program);
    Engine::new(&lib.program, &interface, small_config(lib, threads))
        .with_recorder(recorder)
        .run()
        .spec_artifact(&lib.program, &interface, EXTRACTION.0, EXTRACTION.1)
        .encode(&lib.program)
        .expect("encodable artifact")
        .render()
}

/// Every file under `root`, relative path -> bytes.
fn dir_bytes(root: &Path) -> BTreeMap<String, Vec<u8>> {
    fn walk(root: &Path, dir: &Path, out: &mut BTreeMap<String, Vec<u8>>) {
        for entry in std::fs::read_dir(dir).expect("readable store") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                walk(root, &path, out);
            } else {
                let rel = path
                    .strip_prefix(root)
                    .expect("under root")
                    .display()
                    .to_string();
                out.insert(rel, std::fs::read(&path).expect("readable file"));
            }
        }
    }
    let mut out = BTreeMap::new();
    if root.exists() {
        walk(root, root, &mut out);
    }
    out
}

#[test]
fn tracing_keeps_batch_artifacts_byte_identical() {
    let lib = atlas_apps::build_library("javalib-lang", 0x5EED).expect("registry library");
    let plain = batch_artifact(&lib, 2, Recorder::off());
    let traced_recorder = Recorder::tracing();
    let traced = batch_artifact(&lib, 2, traced_recorder.clone());
    assert_eq!(plain, traced, "tracing changed the spec artifact");
    assert!(
        !traced_recorder.events().is_empty(),
        "the traced run must actually have recorded spans"
    );
    assert!(
        traced_recorder.counter("engine.oracle_executions") > 0,
        "the traced run must have mirrored the engine counters"
    );
}

#[test]
fn tracing_keeps_incremental_run_and_store_bytes_identical() {
    // The same cold-seed + edit + incremental-rerun sequence against two
    // store roots: one fully traced, one untraced.  The spliced artifact
    // AND every byte the store wrote must match.
    let run = |store: &Path, recorder: Recorder| -> String {
        let lib = atlas_apps::build_library("javalib-lang", 0x5EED).expect("registry library");
        let interface = LibraryInterface::from_program(&lib.program);
        let engine = Engine::new(&lib.program, &interface, small_config(&lib, 2))
            .with_recorder(recorder.clone());
        let provenance = engine.run_provenance();
        engine
            .run_with_store(&provenance, store, EXTRACTION)
            .expect("seedable store");

        let mutated = atlas_apps::mutate_library(
            &lib.program,
            &atlas_apps::MutationConfig {
                kind: MutationKind::BodyEdit,
                seed: 7,
                target: None,
            },
        )
        .expect("eligible edit");
        let new_program = mutated.program;
        let new_interface = LibraryInterface::from_program(&new_program);
        let config = AtlasConfig {
            samples_per_cluster: 200,
            clusters: lib.clusters.clone(),
            num_threads: 2,
            ..AtlasConfig::default()
        };
        let engine = Engine::new(&new_program, &new_interface, config)
            .with_recorder(recorder.with_lane_base(4096));
        let outcome = engine
            .run_with_store(&provenance, store, EXTRACTION)
            .expect("incremental run");
        outcome
            .spec_artifact(&new_program)
            .encode(&new_program)
            .expect("encodable artifact")
            .render()
    };

    let plain_store = scratch("incr-plain");
    let traced_store = scratch("incr-traced");
    let plain = run(&plain_store, Recorder::off());
    let recorder = Recorder::tracing();
    let traced = run(&traced_store, recorder.clone());
    assert_eq!(plain, traced, "tracing changed the incremental artifact");
    assert_eq!(
        dir_bytes(&plain_store),
        dir_bytes(&traced_store),
        "tracing changed what the store wrote"
    );
    assert!(
        recorder.counter("incr.spliced_verdicts") > 0,
        "the traced incremental run must have spliced (and counted it)"
    );
    let _ = std::fs::remove_dir_all(&plain_store);
    let _ = std::fs::remove_dir_all(&traced_store);
}

#[test]
fn event_stream_is_independent_of_thread_count() {
    let lib = atlas_apps::build_library("javalib-lang", 0x5EED).expect("registry library");
    let shape = |threads: usize| -> Vec<(u64, &'static str, &'static str)> {
        let recorder = Recorder::tracing();
        let artifact = batch_artifact(&lib, threads, recorder.clone());
        let shape = recorder
            .events()
            .iter()
            .map(|e| (e.lane, e.cat, e.name))
            .collect();
        // Counters merge commutatively: same totals at any parallelism.
        let mut counters = recorder.counters();
        counters.insert("artifact_len".to_string(), artifact.len() as u64);
        assert!(counters["engine.clusters"] > 0);
        shape
    };
    let single = shape(1);
    let parallel = shape(4);
    assert_eq!(
        single, parallel,
        "the exported event sequence must not depend on the thread count"
    );
}

#[test]
fn counters_are_independent_of_thread_count() {
    let lib = atlas_apps::build_library("javalib-lang", 0x5EED).expect("registry library");
    let counts = |threads: usize| {
        let recorder = Recorder::metrics();
        let _ = batch_artifact(&lib, threads, recorder.clone());
        recorder.counters()
    };
    assert_eq!(counts(1), counts(4));
}

const KINDS: &[MutationKind] = &[
    MutationKind::BodyEdit,
    MutationKind::RenameLocal,
    MutationKind::AddMethod,
    MutationKind::SignatureChange,
];

/// The named steps of one served edit, as `(cat, name)`.
const EDIT_STEPS: &[(&str, &str)] = &[
    ("serve", "mutate"),
    ("serve", "rehash"),
    ("serve", "lower"),
    ("engine", "jobs"),
    ("incr", "incremental"),
    ("engine", "provenance"),
    ("serve", "encode"),
    ("serve", "commit"),
];

/// Asserts that the `serve/request` span of every edit that succeeded
/// (`edits_ok`, in request order) contains a span of each edit step, and
/// that no edit lowers the whole program again (`engine/compile`): it
/// lowers only the method it touched (`serve/lower`).
fn assert_edit_steps_are_spanned(events: &[Event], edits_ok: &[bool]) {
    let mut requests: Vec<&Event> = events
        .iter()
        .filter(|e| e.cat == "serve" && e.name == "request")
        .filter(|e| e.args.contains(&("op", ArgValue::from("edit"))))
        .collect();
    requests.sort_by_key(|e| e.start_ns);
    assert_eq!(requests.len(), edits_ok.len(), "one request span per edit");
    assert!(edits_ok.contains(&true), "no edit succeeded: {edits_ok:?}");
    for (request, _) in requests.iter().zip(edits_ok).filter(|(_, ok)| **ok) {
        let end = request.start_ns + request.dur_ns;
        for &(cat, name) in EDIT_STEPS {
            assert!(
                events.iter().any(|e| e.cat == cat
                    && e.name == name
                    && e.dur_ns > 0
                    && e.start_ns >= request.start_ns
                    && e.start_ns + e.dur_ns <= end),
                "an edit's request span lacks a {cat}/{name} span"
            );
        }
    }
    for request in &requests {
        let end = request.start_ns + request.dur_ns;
        assert!(
            !events.iter().any(|e| e.cat == "engine"
                && e.name == "compile"
                && e.start_ns >= request.start_ns
                && e.start_ns + e.dur_ns <= end),
            "an edit lowered the whole program again"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// A traced daemon and an untraced daemon serve the same random edit
    /// stream against separate store roots: every `specs` response — and
    /// every flushed store byte — must be identical, and the traced one
    /// must span every step of every edit it served.
    #[test]
    fn traced_daemon_serves_identical_bytes(entropy in any::<u64>()) {
        let run = |store: PathBuf, trace: bool| -> (Vec<String>, BTreeMap<String, Vec<u8>>) {
            let mut config = ServeConfig::small(store.clone());
            config.library = "javalib-lang".to_string();
            config.samples = 150;
            config.trace = trace;
            let daemon = Daemon::new(config).expect("daemon startup");
            let mut specs = Vec::new();
            let mut edits_ok = Vec::new();
            for i in 0..6u64 {
                let seed = entropy.wrapping_add(i);
                let kind = KINDS[(seed % KINDS.len() as u64) as usize];
                let edit = daemon.handle(&Envelope::of(Request::Edit(EditRequest {
                    kind,
                    seed,
                    target: None,
                })));
                edits_ok.push(edit.outcome.is_ok());
                let response = daemon.handle(&Envelope::of(Request::Specs));
                specs.push(match response.outcome {
                    Ok(json) => json.render(),
                    Err(e) => format!("error:{}", e.code.as_str()),
                });
            }
            let _ = daemon.handle(&Envelope::of(Request::Shutdown));
            if trace {
                assert_edit_steps_are_spanned(&daemon.recorder().events(), &edits_ok);
            }
            drop(daemon);
            let bytes = dir_bytes(&store);
            let _ = std::fs::remove_dir_all(&store);
            (specs, bytes)
        };
        let plain = run(scratch(&format!("serve-plain-{entropy:016x}")), false);
        let traced = run(scratch(&format!("serve-traced-{entropy:016x}")), true);
        prop_assert_eq!(plain.0, traced.0);
        prop_assert_eq!(plain.1, traced.1);
    }
}
