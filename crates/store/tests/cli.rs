//! The `store` binary on a closure-sharded root: `stats`, then
//! `gc-shards` with and without a history window, driven as a separate
//! process exactly as an operator would run it.
//!
//! The root mirrors a delta store after one edit: two live closures the
//! caller keeps by name, plus two retired generations of edited closures
//! whose shard caches carry staggered modification times.  The newer
//! retired generation is written first and sorts last by path, so only
//! its modification time can make a history window keep it.

use atlas_interp::ExecLimits;
use atlas_learn::CacheStats;
use atlas_store::{
    list_shards, save_cache, shard_entry, CacheArtifact, CacheProvenance, CacheShard,
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

/// A one-provenance cache for a closure shard.
fn closure_cache(closure: u64, entries: usize) -> CacheArtifact {
    CacheArtifact {
        shards: vec![CacheShard {
            provenance: CacheProvenance {
                fingerprint: 0xF00D,
                closure,
                context: closure.wrapping_mul(31),
                strategy: InitStrategy::Instantiate,
                limits: ExecLimits::for_unit_tests(),
            },
            stats: CacheStats::default(),
            entries: (0..entries as u64).map(|i| (i, i, i % 2 == 0)).collect(),
        }],
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
        text.contains("kept 3 shard dir(s) (2 explicit, history 1), removed 1,"),
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
        text.contains("kept 2 shard dir(s) (2 explicit, history 0), removed 1,"),
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

    std::fs::remove_dir_all(&dir).unwrap();
}
