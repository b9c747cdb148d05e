//! The `store` binary on closure-sharded roots, driven as a separate
//! process exactly as an operator would run it:
//!
//! * `stats`, then `gc-shards` with and without a history window, on a
//!   hand-built root mirroring a delta store after one edit: two live
//!   closures the caller keeps by name, plus two retired generations of
//!   edited closures whose shard caches carry staggered modification
//!   times.  The newer retired generation is written first and sorts last
//!   by path, so only its modification time can make a history window
//!   keep it.  `merge` is not a command: a shard's verdicts are written
//!   whole, never merged.
//! * `stats` into a pipe whose reader is already gone: the output ends,
//!   the command does not fail.
//! * `inspect`, `stats`, `export-specs` and `diff-specs` on a root the
//!   store-backed run wrote (javalib-lang at a small budget), plus the
//!   whole-run `specs.json` export beside its shards.

use atlas_core::{AtlasConfig, Engine, EXTRACTION};
use atlas_interp::ExecLimits;
use atlas_ir::LibraryInterface;
use atlas_learn::CacheStats;
use atlas_store::{
    list_shards, load_cache, save_cache, save_specs, shard_entry, CacheArtifact, CacheProvenance,
};
use atlas_synth::InitStrategy;
use std::path::{Path, PathBuf};
use std::process::Output;
use std::time::{Duration, SystemTime};

/// The live closures, kept explicitly.
const LIVE: [u64; 2] = [0x30, 0x40];
/// The retired generations: 0x20 is the *newer* one, so a history window
/// of one keeps it and drops 0x10.
const RETIRED_NEWER: u64 = 0x20;
const RETIRED_OLDER: u64 = 0x10;

/// The cache of a closure shard.
fn closure_cache(closure: u64, entries: usize) -> CacheArtifact {
    CacheArtifact {
        provenance: CacheProvenance {
            fingerprint: 0xF00D,
            closure,
            context: closure.wrapping_mul(31),
            strategy: InitStrategy::Instantiate,
            limits: ExecLimits::for_unit_tests(),
        },
        stats: CacheStats::default(),
        entries: (0..entries as u64).map(|i| (i, i, i % 2 == 0)).collect(),
    }
}

/// Writes the four-shard root.  Each shard cache gets `2 + age` entries
/// and a modification time `age` hours after a fixed epoch: the older
/// retired generation is oldest, then the newer one, then the live
/// closures.
fn build_root(root: &Path) {
    let epoch = SystemTime::UNIX_EPOCH + Duration::from_secs(1_700_000_000);
    for (closure, age) in [
        (RETIRED_NEWER, 1u64),
        (RETIRED_OLDER, 0),
        (LIVE[0], 2),
        (LIVE[1], 3),
    ] {
        let cache = shard_entry(root, closure).cache;
        save_cache(&cache, &closure_cache(closure, 2 + age as usize)).expect("save shard cache");
        std::fs::File::options()
            .write(true)
            .open(&cache)
            .and_then(|f| f.set_modified(epoch + Duration::from_secs(3600 * age)))
            .expect("stagger mtime");
    }
}

fn store(args: &[&str]) -> Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_store"))
        .args(args)
        .output()
        .expect("spawn store binary")
}

fn stdout(output: &Output) -> String {
    String::from_utf8(output.stdout.clone()).expect("utf-8 stdout")
}

fn path_str(path: &Path) -> String {
    path.to_str().expect("utf-8 temp path").to_string()
}

fn fingerprints(root: &Path) -> Vec<u64> {
    list_shards(root)
        .expect("list shards")
        .iter()
        .map(|s| s.fingerprint)
        .collect()
}

#[test]
fn stats_and_gc_shards_on_a_closure_root() {
    let dir: PathBuf = std::env::temp_dir().join(format!("atlas-store-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    build_root(&dir);
    let root = dir.to_str().expect("utf-8 temp path");
    let keeps: Vec<String> = LIVE.iter().map(|&c| atlas_store::hex64_string(c)).collect();
    let keep_args = ["--keep", &keeps[0], "--keep", &keeps[1]];

    // stats: every shard dir with its entry count (2 + 3 + 4 + 5).
    let out = store(&["stats", root]);
    assert!(out.status.success(), "stats failed: {out:?}");
    let text = stdout(&out);
    assert!(text.contains(": 4 shard dir(s)"), "{text}");
    assert!(text.contains("total: 14 entries"), "{text}");

    // One history generation: the newer retired shard survives.
    let mut args = vec!["gc-shards", root];
    args.extend(keep_args);
    args.extend(["--keep-history", "1"]);
    let out = store(&args);
    assert!(
        out.status.success(),
        "gc-shards --keep-history 1 failed: {out:?}"
    );
    let text = stdout(&out);
    assert!(
        text.contains("kept 3 shard dir(s) (2 explicit, history 1), removed 1\n"),
        "{text}"
    );
    assert_eq!(fingerprints(&dir), vec![RETIRED_NEWER, LIVE[0], LIVE[1]]);
    assert!(!shard_entry(&dir, RETIRED_OLDER).dir.exists());

    // No history: the remaining retired generation goes too.
    let mut args = vec!["gc-shards", root];
    args.extend(keep_args);
    let out = store(&args);
    assert!(out.status.success(), "gc-shards failed: {out:?}");
    let text = stdout(&out);
    assert!(
        text.contains("kept 2 shard dir(s) (2 explicit, history 0), removed 1\n"),
        "{text}"
    );
    assert_eq!(fingerprints(&dir), LIVE.to_vec());

    let out = store(&["stats", root]);
    assert!(out.status.success(), "stats failed: {out:?}");
    assert!(stdout(&out).contains("total: 9 entries"));

    // Neither --keep nor --keep-history is a usage error (exit 1), and it
    // removes nothing.
    let out = store(&["gc-shards", root]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("--keep-history"));
    assert_eq!(fingerprints(&dir), LIVE.to_vec());

    // Verdict sets are written whole, never merged: there is no `merge`
    // command, and asking for one is a usage error that writes nothing.
    let a = path_str(&shard_entry(&dir, LIVE[0]).cache);
    let b = path_str(&shard_entry(&dir, LIVE[1]).cache);
    let merged = dir.join("merged.json");
    let out = store(&["merge", &path_str(&merged), &a, &b]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command 'merge'"));
    assert!(!merged.exists());

    std::fs::remove_dir_all(&dir).unwrap();
}

/// A reader that closed the pipe before the first line (`store stats
/// <ROOT> | head -n 0`) ends the output, not the command: `stats` exits
/// with its own status, 0, and nothing panics.
#[test]
fn a_closed_stdout_ends_the_output_not_the_command() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("atlas-store-cli-pipe-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    build_root(&dir);
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_store"))
        .args(["stats", &path_str(&dir)])
        .stdout(writer)
        .output()
        .expect("spawn store binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn inspect_stats_and_spec_commands_on_a_store_backed_root() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("atlas-store-cli-run-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // The store-backed run fills the empty root shard by shard; the
    // whole-run export goes beside the shards, as batch and fleet write it.
    let variant = atlas_javalib::variant_named("javalib-lang").expect("registered variant");
    let program = variant.build_program();
    let interface = LibraryInterface::from_program(&program);
    let config = AtlasConfig {
        samples_per_cluster: 150,
        clusters: variant.cluster_ids(&program),
        num_threads: 1,
        ..AtlasConfig::default()
    };
    let engine = Engine::new(&program, &interface, config);
    let outcome = engine
        .run_with_store(&engine.run_provenance(), &dir, EXTRACTION)
        .expect("store-backed run");
    let artifact = outcome.spec_artifact(&program);
    let export = dir.join("specs.json");
    save_specs(&export, &artifact, &program).expect("whole-run export");
    let shards = list_shards(&dir).expect("list shards");
    assert_eq!(
        shards.len(),
        artifact.clusters.len(),
        "one shard per cluster"
    );
    let caches: Vec<CacheArtifact> = shards
        .iter()
        .map(|s| load_cache(&s.cache).expect("shard cache"))
        .collect();
    let entries: Vec<usize> = caches.iter().map(|c| c.entries.len()).collect();
    let (root, export) = (path_str(&dir), path_str(&export));
    let (shard_cache, shard_specs) = (path_str(&shards[0].cache), path_str(&shards[0].specs));
    let provenance = caches[0].provenance;
    let positives = caches[0].entries.iter().filter(|e| e.2).count();

    // inspect: a shard's cache and specs, and the export.
    let out = store(&["inspect", &shard_cache, &shard_specs, &export]);
    assert!(out.status.success(), "inspect failed: {out:?}");
    let text = stdout(&out);
    assert!(text.contains("schema: atlas-cache/2"), "{text}");
    assert!(
        text.contains(&format!(
            "  library {} closure {} context {}\n",
            atlas_store::hex64_string(provenance.fingerprint),
            atlas_store::hex64_string(provenance.closure),
            atlas_store::hex64_string(provenance.context)
        )),
        "{text}"
    );
    assert!(
        text.contains(&format!(
            "  {} entries ({positives} positive), recorded stats: {} lookups",
            entries[0], caches[0].stats.lookups
        )),
        "{text}"
    );
    assert!(text.contains("schema: atlas-spec/1"), "{text}");
    assert!(
        text.contains("clusters: 1\n"),
        "a shard holds one cluster: {text}"
    );
    assert!(
        text.contains(&format!("clusters: {}\n", artifact.clusters.len())),
        "{text}"
    );

    // stats: the root (one row per shard) and one shard cache file.
    let out = store(&["stats", &root]);
    assert!(out.status.success(), "stats failed: {out:?}");
    let text = stdout(&out);
    assert!(
        text.contains(&format!(": {} shard dir(s)", shards.len())),
        "{text}"
    );
    let total: usize = entries.iter().sum();
    assert!(text.contains(&format!("total: {total} entries")), "{text}");
    assert!(
        text.contains(&format!(
            "  {}: {} entries, specs yes\n",
            atlas_store::hex64_string(shards[0].fingerprint),
            entries[0]
        )),
        "{text}"
    );
    assert!(!text.contains("specs no"), "every shard has specs: {text}");
    let out = store(&["stats", &shard_cache]);
    assert!(out.status.success(), "stats failed: {out:?}");
    let text = stdout(&out);
    assert_eq!(
        text,
        format!(
            "{shard_cache}: library {} closure {}: {} entries ({positives} positive)\n",
            atlas_store::hex64_string(provenance.fingerprint),
            atlas_store::hex64_string(provenance.closure),
            entries[0]
        )
    );

    // export-specs and diff-specs resolve the export against the modeled
    // library; javalib-lang is a different library content, which they
    // name in a warning but still resolve.
    let out = store(&["export-specs", &export]);
    assert!(out.status.success(), "export-specs failed: {out:?}");
    let text = stdout(&out);
    assert!(
        text.starts_with(&format!(
            "{} specification(s) in {} cluster(s), extracted with max_len={} limit={}",
            artifact.num_specs(),
            artifact.clusters.len(),
            EXTRACTION.0,
            EXTRACTION.1
        )),
        "{text}"
    );
    let warning = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(
        warning.contains(&atlas_store::hex64_string(artifact.fingerprint)),
        "{warning}"
    );
    let out = store(&["diff-specs", &export]);
    assert!(out.status.success(), "diff-specs failed: {out:?}");
    let text = stdout(&out);
    assert!(text.contains("summary: "), "{text}");

    // A shard of the root is not a spec export of the whole run, but it
    // is a valid one of its cluster.
    let out = store(&["export-specs", &shard_specs]);
    assert!(
        out.status.success(),
        "export-specs on a shard failed: {out:?}"
    );
    assert!(stdout(&out).contains("in 1 cluster(s)"));

    std::fs::remove_dir_all(&dir).unwrap();
}
