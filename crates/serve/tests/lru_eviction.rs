//! Hot-shard cache transparency: a daemon squeezed into a one-shard LRU
//! budget — evicting and reloading shards mid-stream — answers every edit
//! exactly like a daemon that never evicts, a write-behind daemon that
//! pins dirty shards past its budget persists exactly the store an
//! eager-flushing daemon does, and that store is the one the store-backed
//! run writes; a shard lost from disk is re-learned, not answered from
//! memory.  Failures are contained: an edit that fails — on a corrupt
//! shard, or at a flush point that reports a failed background write —
//! changes nothing, the daemon keeps serving, and a restart re-learns
//! whatever never reached disk.

use atlas_apps::{mutate_library, MutationConfig};
use atlas_core::{AtlasConfig, Engine, EXTRACTION};
use atlas_ir::hash::Fnv;
use atlas_ir::{LibraryInterface, MutationKind};
use atlas_serve::{Daemon, EditRequest, Envelope, ErrorCode, Request, ServeConfig};
use atlas_store::{shard_entry, Json};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("atlas-serve-lru-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The edit script: body edits alternating between javalib-lang's two
/// clusters, so a one-shard budget must evict on every step.
const SCRIPT: &[&str] = &[
    "StringBuilder.append",
    "Integer.intValue",
    "StringBuilder.append",
    "Integer.intValue",
    "StringBuilder.append",
    "Integer.intValue",
];

/// Per script step, the edit response's `executions.oracle` and
/// `executions.spliced_verdicts`.
const EDIT_WORK: [(i64, i64); 6] = [
    (86, 155),
    (127, 86),
    (86, 155),
    (127, 86),
    (86, 155),
    (127, 86),
];
/// FNV-1a over the flushed store: every file's path relative to the
/// root, then its length and bytes, in path order.
const STORE_HASH: &str = "0x2a8e49643da17a53";
/// The same walk over the store's `specs.json` files only: the half of
/// [`STORE_HASH`] that must hold when the verdict half (`cache.json`) goes.
const SPEC_STORE_HASH: &str = "0x5af84c6baa443c85";

struct ScriptOutcome {
    /// One edit-response result per script step.
    edits: Vec<Json>,
    /// The final `specs` artifact, rendered.
    specs: String,
    /// The final `stats` result.
    stats: Json,
}

fn run_script(
    script: &[&str],
    store: &Path,
    shard_budget: usize,
    flush_every: usize,
) -> ScriptOutcome {
    let mut config = ServeConfig::small(store.to_path_buf());
    config.shard_budget = shard_budget;
    config.flush_every = flush_every;
    let daemon = Daemon::new(config).expect("daemon startup");
    let edits = script
        .iter()
        .enumerate()
        .map(|(i, target)| {
            let envelope = Envelope::of(Request::Edit(EditRequest {
                kind: atlas_ir::MutationKind::BodyEdit,
                target: Some(target.to_string()),
                seed: 1000 + i as u64,
            }));
            daemon
                .handle(&envelope)
                .outcome
                .unwrap_or_else(|e| panic!("edit {i} ({target}) failed: {e}"))
        })
        .collect();
    let stats = daemon
        .handle(&Envelope::of(Request::Stats))
        .outcome
        .expect("stats");
    let specs = daemon
        .handle(&Envelope::of(Request::Specs))
        .outcome
        .expect("specs")
        .get("artifact")
        .expect("artifact payload")
        .render();
    let flushed = daemon
        .handle(&Envelope::of(Request::Flush))
        .outcome
        .expect("flush");
    assert!(flushed.get("flushed_shards").is_some());
    ScriptOutcome {
        edits,
        specs,
        stats,
    }
}

fn shard_stat(stats: &Json, key: &str) -> i64 {
    stats
        .get("shards")
        .and_then(|s| s.get(key))
        .and_then(Json::as_int)
        .unwrap_or_else(|| panic!("missing shard stat {key}: {stats:?}"))
}

/// Every file under a store root, keyed by relative path.
fn store_files(root: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut files = BTreeMap::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).expect("store dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                stack.push(path);
            } else {
                let rel = path
                    .strip_prefix(root)
                    .expect("under root")
                    .to_string_lossy()
                    .into_owned();
                files.insert(rel, std::fs::read(&path).expect("store file"));
            }
        }
    }
    files
}

/// The pinned fingerprint of a flushed store's files (see [`STORE_HASH`]).
fn store_hash<'a>(files: impl IntoIterator<Item = (&'a String, &'a Vec<u8>)>) -> String {
    let mut h = Fnv::new(0);
    for (path, bytes) in files {
        h.write_str(path);
        h.write_u64(bytes.len() as u64);
        h.write(bytes);
    }
    format!("{:#018x}", h.finish())
}

/// `(executions.oracle, executions.spliced_verdicts)` of one edit response.
fn edit_work(edit: &Json) -> (i64, i64) {
    let executions = edit.get("executions").expect("executions");
    let count = |key: &str| {
        executions
            .get(key)
            .and_then(Json::as_int)
            .unwrap_or_else(|| panic!("missing {key}: {edit:?}"))
    };
    (count("oracle"), count("spliced_verdicts"))
}

/// A budget of one shard forces an eviction on every step of the
/// alternating script, and a reload on its repeated last step; the
/// responses — re-execution counts included — and the final artifact must
/// nonetheless be identical to a run whose cache holds everything.
#[test]
fn eviction_never_changes_results_or_execution_counts() {
    let store_small = scratch("tight");
    let store_big = scratch("roomy");
    // The script, then its last edit's cluster edited again: the
    // StringBuilder shard the last step evicted is clean again and must be
    // read back from disk.  (Alternating edits alone never reload: each
    // step's clean shard is the one the step before re-ran.)
    let script = [SCRIPT, &["Integer.intValue"]].concat();
    let small = run_script(&script, &store_small, 1, 0);
    let big = run_script(&script, &store_big, 64, 0);

    assert_eq!(
        small.edits, big.edits,
        "evicting mid-stream changed an edit response"
    );
    assert_eq!(small.specs, big.specs, "final artifacts diverged");

    assert!(
        shard_stat(&small.stats, "evictions") > 0,
        "a one-shard budget must evict: {:?}",
        small.stats
    );
    assert_eq!(
        shard_stat(&big.stats, "evictions"),
        0,
        "a roomy budget must not evict: {:?}",
        big.stats
    );
    // Reloads show up as misses: the tight cache re-reads shards the
    // roomy cache kept hot.
    assert!(
        shard_stat(&small.stats, "misses") > shard_stat(&big.stats, "misses"),
        "evicted shards must be reloaded from disk"
    );
    assert_eq!(shard_stat(&small.stats, "resident"), 1);

    let _ = std::fs::remove_dir_all(&store_small);
    let _ = std::fs::remove_dir_all(&store_big);
}

/// Dirty shards are pinned: under write-behind (no flush until asked) a
/// one-shard budget overflows without evicting unpersisted work, and the
/// eventual flush writes byte-for-byte the store an eager daemon wrote.
#[test]
fn pinned_dirty_shards_survive_the_budget_and_flush_identically() {
    let store_eager = scratch("eager");
    let store_behind = scratch("behind");
    let eager = run_script(SCRIPT, &store_eager, 1, 0);
    let behind = run_script(SCRIPT, &store_behind, 1, 100);

    // Same answers, whatever the flush schedule (modulo the per-edit
    // flush receipt, which reports the schedule itself).
    let strip_flush = |edits: &[Json]| -> Vec<Json> {
        edits
            .iter()
            .map(|e| e.clone().set("flushed_shards", Json::Null))
            .collect()
    };
    assert_eq!(strip_flush(&eager.edits), strip_flush(&behind.edits));
    assert_eq!(eager.specs, behind.specs);

    // The write-behind run accumulated more dirty shards than its budget:
    // the pin kept them resident instead of evicting unpersisted work.
    assert!(
        shard_stat(&behind.stats, "pin_overflows") > 0,
        "dirty shards beyond the budget must overflow the pin: {:?}",
        behind.stats
    );
    assert!(
        shard_stat(&behind.stats, "dirty") > 1,
        "write-behind must have accumulated dirty shards: {:?}",
        behind.stats
    );
    assert_eq!(
        shard_stat(&eager.stats, "dirty"),
        0,
        "eager flushing leaves nothing dirty: {:?}",
        eager.stats
    );

    // After the final flush both stores hold the same files with the same
    // bytes.
    assert_eq!(
        store_files(&store_eager),
        store_files(&store_behind),
        "write-behind persisted a different store than eager flushing"
    );

    // Absolute pins: the verdicts each edit re-ran and spliced, and the
    // bytes the daemon persisted.  The comparisons above hold even when
    // both daemons lose the same verdicts; these do not.
    let work: Vec<(i64, i64)> = eager.edits.iter().map(edit_work).collect();
    assert_eq!(work, EDIT_WORK);
    let files = store_files(&store_eager);
    assert_eq!(store_hash(&files), STORE_HASH);
    let specs = files
        .iter()
        .filter(|(path, _)| Path::new(path).file_name() == Some("specs.json".as_ref()));
    assert_eq!(store_hash(specs), SPEC_STORE_HASH);

    let _ = std::fs::remove_dir_all(&store_eager);
    let _ = std::fs::remove_dir_all(&store_behind);
}

/// The daemon's store is the store-backed run's: a daemon that starts,
/// serves one `Integer.intValue` body edit and flushes leaves a fresh root
/// holding, byte for byte, the files `run_with_store` writes into another
/// fresh root for the same library, clusters and edit.
#[test]
fn a_daemon_flushes_the_store_the_store_backed_run_writes() {
    let edit = MutationConfig {
        kind: MutationKind::BodyEdit,
        seed: 1000,
        target: Some("Integer.intValue".to_string()),
    };

    let store_daemon = scratch("transparent-daemon");
    let config = ServeConfig::small(store_daemon.clone());
    let daemon = Daemon::new(config.clone()).expect("daemon startup");
    let envelope = Envelope::of(Request::Edit(EditRequest {
        kind: edit.kind,
        target: edit.target.clone(),
        seed: edit.seed,
    }));
    daemon.handle(&envelope).outcome.expect("edit");
    daemon
        .handle(&Envelope::of(Request::Flush))
        .outcome
        .expect("flush");
    drop(daemon);

    let store_run = scratch("transparent-run");
    let lib = atlas_apps::build_library(&config.library, config.synth_seed).expect("library");
    let atlas_config = AtlasConfig {
        samples_per_cluster: config.samples,
        clusters: lib.clusters.clone(),
        ..AtlasConfig::default()
    };
    let interface = LibraryInterface::from_program(&lib.program);
    let engine = Engine::new(&lib.program, &interface, atlas_config.clone());
    let provenance = engine.run_provenance();
    engine
        .run_with_store(&provenance, &store_run, EXTRACTION)
        .expect("store-backed start");
    let edited = mutate_library(&lib.program, &edit)
        .expect("edit applies")
        .program;
    let edited_interface = LibraryInterface::from_program(&edited);
    Engine::new(&edited, &edited_interface, atlas_config)
        .run_with_store(&provenance, &store_run, EXTRACTION)
        .expect("store-backed edit");

    // Two clusters at start-up, plus the edited cluster's new shard.
    let daemon_files = store_files(&store_daemon);
    let run_files = store_files(&store_run);
    assert_eq!(daemon_files.len(), 6, "{:?}", daemon_files.keys());
    assert_eq!(
        daemon_files.keys().collect::<Vec<_>>(),
        run_files.keys().collect::<Vec<_>>()
    );
    for (path, bytes) in &daemon_files {
        assert!(
            *bytes == run_files[path],
            "the daemon and the store-backed run wrote different {path}"
        );
    }

    let _ = std::fs::remove_dir_all(&store_daemon);
    let _ = std::fs::remove_dir_all(&store_run);
}

/// A lost shard is re-learned: after start-up (which flushes), the shard
/// directory of the StringBuilder cluster — evicted from the one-shard
/// cache, and clean under an `Integer.intValue` edit — is deleted.  The
/// edit must demote that cluster to a re-run (`forced_dirty: 1`) that
/// executes its unit tests again, because a daemon keeps no verdicts
/// outside its shards, and must serve the specs an undamaged daemon
/// serves after the same edit.
#[test]
fn a_lost_shard_is_relearned_and_serves_identical_specs() {
    let start = |store: &Path| {
        let mut config = ServeConfig::small(store.to_path_buf());
        config.shard_budget = 1;
        Daemon::new(config).expect("daemon startup")
    };
    let edit = |daemon: &Daemon| -> (Json, String) {
        let envelope = Envelope::of(Request::Edit(EditRequest {
            kind: atlas_ir::MutationKind::BodyEdit,
            target: Some("Integer.intValue".to_string()),
            seed: 1000,
        }));
        let response = daemon.handle(&envelope).outcome.expect("edit");
        let specs = daemon
            .handle(&Envelope::of(Request::Specs))
            .outcome
            .expect("specs")
            .get("artifact")
            .expect("artifact payload")
            .render();
        (response, specs)
    };
    let forced_dirty = |response: &Json| {
        response
            .get("clusters")
            .and_then(|c| c.get("forced_dirty"))
            .and_then(Json::as_int)
            .unwrap_or_else(|| panic!("missing clusters.forced_dirty: {response:?}"))
    };

    let store_intact = scratch("intact");
    let (intact, intact_specs) = edit(&start(&store_intact));
    assert_eq!(forced_dirty(&intact), 0, "{intact:?}");

    let store_damaged = scratch("damaged");
    let daemon = start(&store_damaged);
    std::fs::remove_dir_all(shard_entry(&store_damaged, string_builder_closure()).dir)
        .expect("start-up flushed the StringBuilder shard");
    let (damaged, damaged_specs) = edit(&daemon);
    assert_eq!(forced_dirty(&damaged), 1, "{damaged:?}");
    let (oracle, _) = edit_work(&damaged);
    assert!(
        oracle > edit_work(&intact).0,
        "the lost cluster must execute its unit tests again: {damaged:?}"
    );
    assert_eq!(damaged_specs, intact_specs, "recovery changed the specs");

    drop(daemon);
    let _ = std::fs::remove_dir_all(&store_intact);
    let _ = std::fs::remove_dir_all(&store_damaged);
}

/// The start-up closure of the StringBuilder cluster (javalib-lang's
/// first), computed as the daemon computes it.
fn string_builder_closure() -> u64 {
    let (lib, interface, atlas_config) = small_library();
    Engine::new(&lib.program, &interface, atlas_config)
        .run_provenance()
        .clusters[0]
        .closure
}

/// The library, interface and engine configuration of
/// `ServeConfig::small`.
fn small_library() -> (atlas_apps::RegistryLibrary, LibraryInterface, AtlasConfig) {
    let config = ServeConfig::small(PathBuf::new());
    let lib = atlas_apps::build_library(&config.library, config.synth_seed).expect("library");
    let interface = LibraryInterface::from_program(&lib.program);
    let atlas_config = AtlasConfig {
        samples_per_cluster: config.samples,
        clusters: lib.clusters.clone(),
        ..AtlasConfig::default()
    };
    (lib, interface, atlas_config)
}

/// A small daemon over `store` with the given shard budget and
/// write-behind schedule.
fn start(store: &Path, shard_budget: usize, flush_every: usize) -> Daemon {
    let mut config = ServeConfig::small(store.to_path_buf());
    config.shard_budget = shard_budget;
    config.flush_every = flush_every;
    Daemon::new(config).expect("daemon startup")
}

/// A body edit of `target` in the default session.
fn body_edit(target: &str, seed: u64) -> Envelope {
    Envelope::of(Request::Edit(EditRequest {
        kind: MutationKind::BodyEdit,
        target: Some(target.to_string()),
        seed,
    }))
}

/// What a client can see of the default session's state: its library
/// fingerprint, its rendered `specs` artifact and its `generation`.
fn visible_state(daemon: &Daemon) -> (i64, String, String) {
    let ok = |request: Request| {
        daemon
            .handle(&Envelope::of(request))
            .outcome
            .expect("served")
    };
    let fingerprint = ok(Request::Fingerprint)
        .get("library_fingerprint")
        .and_then(Json::as_str)
        .expect("fingerprint")
        .to_string();
    let specs = ok(Request::Specs)
        .get("artifact")
        .expect("artifact payload")
        .render();
    let generation = ok(Request::Stats)
        .get("generation")
        .and_then(Json::as_int)
        .expect("generation");
    (generation, fingerprint, specs)
}

/// The wire error code of a reply, or `None` for a success.
fn error_code(daemon: &Daemon, envelope: &Envelope) -> Option<ErrorCode> {
    daemon.handle(envelope).outcome.err().map(|e| e.code)
}

/// Replaces the directory at `dir` by a regular file, so every write
/// under it fails (permission bits would not stop a root user); returns
/// where the directory was moved.
fn break_dir(dir: &Path) -> PathBuf {
    let aside = dir.with_extension("aside");
    std::fs::rename(dir, &aside).expect("move the directory aside");
    std::fs::write(dir, b"not a directory").expect("a file in its place");
    aside
}

/// Undoes [`break_dir`].
fn repair_dir(dir: &Path, aside: &Path) {
    std::fs::remove_file(dir).expect("remove the file");
    std::fs::rename(aside, dir).expect("move the directory back");
}

/// An edit that must splice a corrupt shard fails with a `store` error
/// and changes nothing the client can see; once the shard's file is
/// restored, the same edit replies exactly as an undamaged daemon does.
#[test]
fn a_corrupt_shard_fails_the_edit_and_changes_nothing() {
    let edit = body_edit("Integer.intValue", 1000);
    let store_intact = scratch("corrupt-intact");
    let intact = start(&store_intact, 1, 8);
    let intact_reply = intact.handle(&edit).outcome.expect("edit");
    let intact_state = visible_state(&intact);

    // After start-up the StringBuilder shard is on disk and, in a
    // one-shard cache, not resident: the edit must read it back.
    let store = scratch("corrupt");
    let daemon = start(&store, 1, 8);
    let before = visible_state(&daemon);
    let specs = shard_entry(&store, string_builder_closure()).specs;
    let bytes = std::fs::read(&specs).expect("start-up flushed the shard");
    std::fs::write(&specs, "{ not json").unwrap();
    assert_eq!(error_code(&daemon, &edit), Some(ErrorCode::Store));
    assert_eq!(
        visible_state(&daemon),
        before,
        "a failed edit changed state"
    );

    std::fs::write(&specs, bytes).unwrap();
    assert_eq!(daemon.handle(&edit).outcome.expect("edit"), intact_reply);
    assert_eq!(visible_state(&daemon), intact_state);

    drop((intact, daemon));
    let _ = std::fs::remove_dir_all(&store_intact);
    let _ = std::fs::remove_dir_all(&store);
}

/// A flush point that reports a failed background write fails its edit,
/// and the edit changes nothing: after a first edit whose write-behind
/// batch cannot reach the store (the store root is a regular file), the
/// next edit's flush reports it as a `store` error and the session is
/// left as the first edit left it.  The daemon keeps serving; once the
/// root is repaired, the same edit replies exactly as an undamaged
/// daemon's second edit does.
#[test]
fn a_failed_flush_fails_the_edit_and_changes_nothing() {
    let (first, second) = (
        body_edit("Integer.intValue", 1000),
        body_edit("StringBuilder.append", 1001),
    );
    let store_intact = scratch("flush-intact");
    let intact = start(&store_intact, 64, 1);
    intact.handle(&first).outcome.expect("first edit");
    let intact_reply = intact.handle(&second).outcome.expect("second edit");
    let intact_state = visible_state(&intact);

    let store = scratch("flush");
    let daemon = start(&store, 64, 1);
    let aside = break_dir(&store);
    // The first edit hands its shard to the writer and replies before
    // the write fails.
    let reply = daemon.handle(&first).outcome.expect("first edit");
    assert_eq!(reply.get("flushed_shards").and_then(Json::as_int), Some(1));
    let before = visible_state(&daemon);
    assert_eq!(error_code(&daemon, &second), Some(ErrorCode::Store));
    assert_eq!(
        visible_state(&daemon),
        before,
        "a failed edit changed state"
    );

    repair_dir(&store, &aside);
    assert_eq!(daemon.handle(&second).outcome.expect("retry"), intact_reply);
    assert_eq!(visible_state(&daemon), intact_state);

    drop((intact, daemon));
    let _ = std::fs::remove_dir_all(&store_intact);
    let _ = std::fs::remove_dir_all(&store);
}

/// A failed background write surfaces once, as a `store` error, at the
/// next flush point of the namespace it belongs to: another session's
/// flushes and edits do not see it, and the daemon keeps serving.
#[test]
fn a_failed_write_surfaces_at_its_namespaces_next_flush_point() {
    let store = scratch("write-failure");
    let daemon = start(&store, 64, 1);
    let in_session = |request: Request| Envelope {
        id: None,
        session: Some("side".to_string()),
        request,
    };
    daemon
        .handle(&in_session(Request::Open))
        .outcome
        .expect("open");
    let side = store.join("sessions").join("side");
    let aside = break_dir(&side);

    let Request::Edit(edit) = body_edit("Integer.intValue", 1000).request else {
        unreachable!()
    };
    daemon
        .handle(&in_session(Request::Edit(edit)))
        .outcome
        .expect("the edit replies before its write fails");
    // The default session's edits and flushes are not the side session's
    // flush points.
    daemon
        .handle(&body_edit("Integer.intValue", 2000))
        .outcome
        .expect("default-session edit");
    let flush = Envelope::of(Request::Flush);
    assert_eq!(error_code(&daemon, &flush), None);

    let side_flush = in_session(Request::Flush);
    assert_eq!(error_code(&daemon, &side_flush), Some(ErrorCode::Store));
    assert_eq!(error_code(&daemon, &side_flush), None, "reported once");
    assert_eq!(error_code(&daemon, &in_session(Request::Specs)), None);

    repair_dir(&side, &aside);
    let close = Envelope {
        id: None,
        session: Some("side".to_string()),
        request: Request::Close,
    };
    assert_eq!(error_code(&daemon, &close), None);
    drop(daemon);
    let _ = std::fs::remove_dir_all(&store);
}

/// A restart over a repaired root re-learns what never reached disk: the
/// StringBuilder shard, lost from disk after start-up, is re-learned by
/// an edit whose write-behind batch then fails.  The failure surfaces at
/// the next flush, and a daemon restarted over the root, once repaired,
/// demotes exactly that cluster (`forced_dirty`) and serves the specs of
/// a cold batch run.
#[test]
fn a_restart_relearns_the_shards_that_never_reached_disk() {
    let store = scratch("restart");
    let daemon = start(&store, 1, 1);
    std::fs::remove_dir_all(shard_entry(&store, string_builder_closure()).dir)
        .expect("start-up flushed the StringBuilder shard");
    let aside = break_dir(&store);
    let reply = daemon
        .handle(&body_edit("Integer.intValue", 1000))
        .outcome
        .expect("the edit replies before its write fails");
    assert_eq!(
        reply
            .get("clusters")
            .and_then(|c| c.get("forced_dirty"))
            .and_then(Json::as_int),
        Some(1),
        "{reply:?}"
    );
    let flush = Envelope::of(Request::Flush);
    assert_eq!(error_code(&daemon, &flush), Some(ErrorCode::Store));
    assert_eq!(error_code(&daemon, &flush), None, "reported once");
    drop(daemon);
    repair_dir(&store, &aside);

    let restarted = start(&store, 1, 1);
    assert_eq!(restarted.recorder().counter("incr.forced_dirty"), 1);
    let (lib, interface, atlas_config) = small_library();
    let cold = Engine::new(&lib.program, &interface, atlas_config)
        .run()
        .spec_artifact(&lib.program, &interface, EXTRACTION.0, EXTRACTION.1)
        .encode(&lib.program)
        .expect("encodable")
        .render();
    assert_eq!(visible_state(&restarted).2, cold);

    drop(restarted);
    let _ = std::fs::remove_dir_all(&store);
}

/// Disk is read only once the writer is idle: with a one-shard budget and
/// a flush after every edit, an edit that re-runs both clusters (the
/// StringBuilder shard was lost from disk) flushes both and evicts the
/// StringBuilder shard right away, and the next edit reads it back from
/// disk without demoting it.
#[test]
fn a_shard_evicted_right_after_its_flush_reads_back_from_disk() {
    let store = scratch("read-back");
    let daemon = start(&store, 1, 1);
    std::fs::remove_dir_all(shard_entry(&store, string_builder_closure()).dir)
        .expect("start-up flushed the StringBuilder shard");
    let forced_dirty = |reply: &Json| {
        reply
            .get("clusters")
            .and_then(|c| c.get("forced_dirty"))
            .and_then(Json::as_int)
            .unwrap_or_else(|| panic!("missing clusters.forced_dirty: {reply:?}"))
    };
    let misses = || {
        shard_stat(
            &daemon
                .handle(&Envelope::of(Request::Stats))
                .outcome
                .unwrap(),
            "misses",
        )
    };
    for seed in 1000..1004 {
        let relearned = daemon
            .handle(&body_edit("Integer.intValue", seed))
            .outcome
            .expect("edit");
        assert_eq!(
            relearned.get("flushed_shards").and_then(Json::as_int),
            Some(2)
        );
        let before = misses();
        let read_back = daemon
            .handle(&body_edit("Integer.intValue", seed + 100))
            .outcome
            .expect("edit");
        assert_eq!(
            misses(),
            before + 1,
            "the shard was not read back from disk"
        );
        assert_eq!(forced_dirty(&read_back), 0, "{read_back:?}");
        assert_eq!(forced_dirty(&relearned), 1, "{relearned:?}");
        // Lose the shard again for the next round.
        std::fs::remove_dir_all(shard_entry(&store, string_builder_closure()).dir)
            .expect("the shard reached disk");
    }
    drop(daemon);
    let _ = std::fs::remove_dir_all(&store);
}
