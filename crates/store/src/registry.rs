//! File-level operations of the registry: loading, atomic persistence,
//! and the closure-sharded store root.
//!
//! **Atomicity.**  Every write goes to a temporary file in the *same
//! directory* as the target and is then `rename`d over it.  On POSIX,
//! rename within a filesystem is atomic: a concurrent reader sees either
//! the complete old artifact or the complete new one, never a torn write —
//! the invariant a long-running spec service needs when runs persist while
//! other runs warm-start.
//!
//! **Durability of meaning.**  Loading never mutates: `load_cache` +
//! `save_cache` of an untouched artifact is byte-identical (deterministic
//! encoding), so a shard a splice reads is never rewritten and a warm run
//! reproduces a cold run's files byte for byte.

use crate::artifact::{CacheArtifact, SchemaError, SpecArtifact};
use crate::json::{Json, JsonError};
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// An error raised by a registry operation, carrying the file it concerns.
#[derive(Debug)]
pub enum StoreError {
    /// The file could not be read, written, or renamed.
    Io {
        /// The file concerned.
        path: PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// The file is not valid JSON.
    Parse {
        /// The file concerned.
        path: PathBuf,
        /// Position and description of the first offending byte.
        error: JsonError,
    },
    /// The file is valid JSON but not a valid artifact.
    Schema {
        /// The file concerned.
        path: PathBuf,
        /// What was wrong.
        error: SchemaError,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, source } => {
                write!(f, "{}: {source}", path.display())
            }
            StoreError::Parse { path, error } => {
                write!(f, "{}: {error}", path.display())
            }
            StoreError::Schema { path, error } => {
                write!(f, "{}: {error}", path.display())
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl StoreError {
    fn io(path: &Path, source: std::io::Error) -> StoreError {
        StoreError::Io {
            path: path.to_path_buf(),
            source,
        }
    }

    /// Wraps a [`SchemaError`] with the file it was found in.
    pub fn schema(path: &Path, error: SchemaError) -> StoreError {
        StoreError::Schema {
            path: path.to_path_buf(),
            error,
        }
    }
}

/// Reads and parses a JSON document from disk.
pub fn load_document(path: &Path) -> Result<Json, StoreError> {
    let text = fs::read_to_string(path).map_err(|e| StoreError::io(path, e))?;
    Json::parse(&text).map_err(|error| StoreError::Parse {
        path: path.to_path_buf(),
        error,
    })
}

/// Writes `contents` to `path` atomically: the bytes land in a temporary
/// sibling file first and are renamed over the target, so a reader never
/// observes a torn write and a crash never corrupts an existing artifact.
pub fn atomic_write(path: &Path, contents: &str) -> Result<(), StoreError> {
    // Unique per process *and* per call: two threads writing the same
    // target must not share a temporary, or one could rename the other's
    // half-written bytes into place.
    static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        fs::create_dir_all(parent).map_err(|e| StoreError::io(parent, e))?;
    }
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(format!(
        ".tmp.{}.{}",
        std::process::id(),
        SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    let tmp = PathBuf::from(tmp);
    fs::write(&tmp, contents).map_err(|e| StoreError::io(&tmp, e))?;
    match fs::rename(&tmp, path) {
        Ok(()) => Ok(()),
        Err(e) => {
            // Leave no temporary behind on failure.
            let _ = fs::remove_file(&tmp);
            Err(StoreError::io(path, e))
        }
    }
}

/// Loads an `atlas-cache/2` artifact.
pub fn load_cache(path: &Path) -> Result<CacheArtifact, StoreError> {
    let doc = load_document(path)?;
    CacheArtifact::decode(&doc).map_err(|e| StoreError::schema(path, e))
}

/// Persists an `atlas-cache/2` artifact atomically.
pub fn save_cache(path: &Path, artifact: &CacheArtifact) -> Result<(), StoreError> {
    atomic_write(path, &artifact.encode().render())
}

/// Loads an `atlas-spec/1` artifact, resolving method names against
/// `program`.
pub fn load_specs(path: &Path, program: &atlas_ir::Program) -> Result<SpecArtifact, StoreError> {
    let doc = load_document(path)?;
    SpecArtifact::decode(&doc, program).map_err(|e| StoreError::schema(path, e))
}

/// Persists an `atlas-spec/1` artifact atomically.
pub fn save_specs(
    path: &Path,
    artifact: &SpecArtifact,
    program: &atlas_ir::Program,
) -> Result<(), StoreError> {
    let doc = artifact
        .encode(program)
        .map_err(|e| StoreError::schema(path, e))?;
    atomic_write(path, &doc.render())
}

// ---------------------------------------------------------------------------
// Closure-sharded store roots
// ---------------------------------------------------------------------------

/// One shard of a closure-sharded store root: the persisted result of one
/// cluster (`<root>/0x<closure>/{cache,specs}.json`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardEntry {
    /// The closure fingerprint the shard directory is named after.
    pub fingerprint: u64,
    /// The shard directory (`<root>/0x<16 hex digits>`).
    pub dir: PathBuf,
    /// The shard's verdict-cache file (may not exist yet).
    pub cache: PathBuf,
    /// The shard's spec-artifact file (may not exist yet).
    pub specs: PathBuf,
}

/// The canonical artifact paths of the shard for one closure fingerprint
/// under a store root: `<root>/0x<16 hex digits>/{cache,specs}.json`.
/// Every cluster writes its own shard, so concurrent persists never race
/// on a file and a GC pass can drop a closure by removing one directory.
pub fn shard_entry(root: &Path, fingerprint: u64) -> ShardEntry {
    let dir = root.join(crate::artifact::hex64_string(fingerprint));
    ShardEntry {
        fingerprint,
        cache: dir.join("cache.json"),
        specs: dir.join("specs.json"),
        dir,
    }
}

/// Lists the shards under a store root, sorted by fingerprint (so every
/// consumer iterates deterministically).  Entries that are not directories
/// or whose names are not `0x`-hex are ignored — a root may hold unrelated
/// files, like the whole-run `specs.json` export.  A missing root is an
/// empty store, not an error.
pub fn list_shards(root: &Path) -> Result<Vec<ShardEntry>, StoreError> {
    let mut shards = Vec::new();
    let entries = match fs::read_dir(root) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(shards),
        Err(e) => return Err(StoreError::io(root, e)),
    };
    for entry in entries {
        let entry = entry.map_err(|e| StoreError::io(root, e))?;
        let dir = entry.path();
        if !dir.is_dir() {
            continue;
        }
        let Some(name) = dir.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let Ok(fingerprint) = crate::artifact::parse_hex64(name) else {
            continue;
        };
        // Keep the directory path as found on disk: parse_hex64 accepts
        // non-canonical spellings (short or uppercase hex), and rebuilding
        // the canonical name would point operations at a path that does
        // not exist.
        shards.push(ShardEntry {
            fingerprint,
            cache: dir.join("cache.json"),
            specs: dir.join("specs.json"),
            dir,
        });
    }
    // Tie-break equal fingerprints (a canonical and a non-canonical
    // spelling of the same hash) by directory path, so iteration never
    // depends on `read_dir` order.
    shards.sort_by(|a, b| (a.fingerprint, &a.dir).cmp(&(b.fingerprint, &b.dir)));
    Ok(shards)
}

/// What a cross-shard GC pass did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardGcSummary {
    /// Shard directories kept.
    pub kept: usize,
    /// Shard directories removed (their fingerprint was not in the keep
    /// set, nor among the history survivors).
    pub removed: usize,
}

/// Garbage-collects a closure-sharded store root: removes every shard
/// directory whose closure fingerprint is not in `keep`, except the
/// `history` most-recently-written others (recency by the shard cache's
/// modification time, directory path as the deterministic tie-break).
/// Kept shards are left as they are: each holds one closure's verdicts,
/// written whole.
///
/// Every dependency closure owns a shard: after an edit the new closure
/// gets a fresh shard, and `--keep-history N` keeps the last `N`
/// generations around so reverting an edit warm-starts instantly, while
/// truly orphaned closures eventually age out.
pub fn gc_shards_with_history(
    root: &Path,
    keep: &[u64],
    history: usize,
) -> Result<ShardGcSummary, StoreError> {
    let shards = list_shards(root)?;
    // Rank the non-kept shards by recency to decide who survives the
    // history window.
    let mut candidates: Vec<(std::time::SystemTime, PathBuf, u64)> = Vec::new();
    for shard in &shards {
        if keep.contains(&shard.fingerprint) {
            continue;
        }
        let mtime = fs::metadata(&shard.cache)
            .or_else(|_| fs::metadata(&shard.dir))
            .and_then(|m| m.modified())
            .unwrap_or(std::time::SystemTime::UNIX_EPOCH);
        candidates.push((mtime, shard.dir.clone(), shard.fingerprint));
    }
    candidates.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    let survivors: Vec<u64> = candidates.iter().take(history).map(|c| c.2).collect();

    let mut summary = ShardGcSummary::default();
    for shard in shards {
        if keep.contains(&shard.fingerprint) || survivors.contains(&shard.fingerprint) {
            summary.kept += 1;
        } else {
            fs::remove_dir_all(&shard.dir).map_err(|e| StoreError::io(&shard.dir, e))?;
            summary.removed += 1;
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::CacheProvenance;
    use atlas_interp::ExecLimits;
    use atlas_learn::CacheStats;
    use atlas_synth::InitStrategy;

    /// A per-test scratch directory under the target-adjacent temp dir,
    /// removed on drop.
    struct Scratch(PathBuf);

    impl Scratch {
        fn new(tag: &str) -> Scratch {
            let dir =
                std::env::temp_dir().join(format!("atlas-store-test-{}-{tag}", std::process::id()));
            fs::create_dir_all(&dir).expect("create scratch dir");
            Scratch(dir)
        }

        fn path(&self, name: &str) -> PathBuf {
            self.0.join(name)
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn sample_artifact(fingerprint: u64, entries: Vec<(u64, u64, bool)>) -> CacheArtifact {
        CacheArtifact {
            provenance: CacheProvenance {
                fingerprint,
                closure: fingerprint,
                context: fingerprint.wrapping_mul(31),
                strategy: InitStrategy::Instantiate,
                limits: ExecLimits::for_unit_tests(),
            },
            stats: CacheStats::default(),
            entries,
        }
    }

    #[test]
    fn save_load_is_identity_and_byte_stable() {
        let scratch = Scratch::new("roundtrip");
        let path = scratch.path("nested/dir/cache.json");
        let artifact = sample_artifact(7, vec![(1, 2, true), (3, 4, false)]);
        save_cache(&path, &artifact).expect("save");
        let loaded = load_cache(&path).expect("load");
        assert_eq!(loaded, artifact);
        // Re-saving the loaded artifact is byte-identical.
        let first = fs::read(&path).unwrap();
        save_cache(&path, &loaded).expect("re-save");
        assert_eq!(fs::read(&path).unwrap(), first);
        // No temporary files left behind.
        let leftovers: Vec<_> = fs::read_dir(path.parent().unwrap())
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(leftovers, vec![std::ffi::OsString::from("cache.json")]);
    }

    #[test]
    fn sharded_roots_list_merge_and_gc_deterministically() {
        let scratch = Scratch::new("shards");
        let root = scratch.path("fleet");
        // A missing root is an empty store.
        assert_eq!(list_shards(&root).expect("missing root ok"), vec![]);

        let a = sample_artifact(0xA, vec![(1, 1, true), (2, 2, false)]);
        let b = sample_artifact(0xB, vec![(3, 3, true)]);
        save_cache(&shard_entry(&root, 0xA).cache, &a).unwrap();
        save_cache(&shard_entry(&root, 0xB).cache, &b).unwrap();
        // Unrelated content in the root is ignored.
        fs::create_dir_all(root.join("not-a-shard")).unwrap();
        fs::write(root.join("README"), "hi").unwrap();

        let shards = list_shards(&root).expect("list");
        assert_eq!(
            shards.iter().map(|s| s.fingerprint).collect::<Vec<_>>(),
            vec![0xA, 0xB],
            "sorted by fingerprint"
        );
        assert!(shards[0].dir.ends_with("0x000000000000000a"));

        // Listing is deterministic.
        assert_eq!(list_shards(&root).expect("list again"), shards);

        // GC drops the unkept shard directory and keeps the rest intact.
        let summary = gc_shards_with_history(&root, &[0xA], 0).expect("gc");
        assert_eq!(summary.kept, 1);
        assert_eq!(summary.removed, 1);
        assert!(!shard_entry(&root, 0xB).dir.exists());
        assert_eq!(load_cache(&shard_entry(&root, 0xA).cache).unwrap(), a);

        // A non-canonically named shard dir (short/uppercase hex, e.g.
        // written by a foreign tool) is still addressed at its *actual*
        // path — listed, read, and removable.
        let odd_dir = root.join("0xFF");
        fs::create_dir_all(&odd_dir).unwrap();
        save_cache(
            &odd_dir.join("cache.json"),
            &sample_artifact(0xFF, vec![(5, 5, true)]),
        )
        .unwrap();
        let shards = list_shards(&root).expect("list with odd name");
        let odd = shards.iter().find(|s| s.fingerprint == 0xFF).unwrap();
        assert_eq!(odd.dir, odd_dir);
        assert_eq!(load_cache(&odd.cache).unwrap().entries, vec![(5, 5, true)]);
        let summary = gc_shards_with_history(&root, &[0xA], 0).expect("gc odd name");
        assert_eq!(summary.removed, 1);
        assert!(!odd_dir.exists());
    }

    #[test]
    fn gc_keep_history_retains_recent_generations() {
        let scratch = Scratch::new("history");
        let root = scratch.path("delta");
        // Three closure generations written in order, plus the current one.
        // Their modification times are set an hour apart: file timestamps
        // tick coarsely on some kernels, so back-to-back writes can tie.
        let epoch = std::time::SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(1 << 30);
        for (i, fp) in [0x10u64, 0x20, 0x30, 0x40].into_iter().enumerate() {
            let cache = shard_entry(&root, fp).cache;
            save_cache(
                &cache,
                &sample_artifact(fp, vec![(i as u64, i as u64, true)]),
            )
            .unwrap();
            fs::File::options()
                .write(true)
                .open(&cache)
                .and_then(|f| {
                    f.set_modified(epoch + std::time::Duration::from_secs(3600 * i as u64))
                })
                .unwrap();
        }
        // Keep the current closure explicitly and one history generation:
        // the most recent non-kept shard (0x30) survives, older ones go.
        let summary = gc_shards_with_history(&root, &[0x40], 1).expect("gc");
        assert_eq!(summary.kept, 2);
        assert_eq!(summary.removed, 2);
        let left: Vec<u64> = list_shards(&root)
            .unwrap()
            .iter()
            .map(|s| s.fingerprint)
            .collect();
        assert_eq!(left, vec![0x30, 0x40]);
        // History 0 keeps exactly the explicit keep set.
        let summary = gc_shards_with_history(&root, &[0x40], 0).expect("gc");
        assert_eq!(summary.removed, 1);
        assert_eq!(
            list_shards(&root)
                .unwrap()
                .iter()
                .map(|s| s.fingerprint)
                .collect::<Vec<_>>(),
            vec![0x40]
        );
    }

    #[test]
    fn errors_carry_the_offending_path() {
        let scratch = Scratch::new("errors");
        let missing = scratch.path("does-not-exist.json");
        let e = load_cache(&missing).unwrap_err();
        assert!(matches!(e, StoreError::Io { .. }));
        assert!(e.to_string().contains("does-not-exist.json"), "{e}");

        let garbage = scratch.path("garbage.json");
        fs::write(&garbage, "{ nope").unwrap();
        let e = load_cache(&garbage).unwrap_err();
        assert!(matches!(e, StoreError::Parse { .. }));
        assert!(e.to_string().contains("line 1"), "{e}");

        let foreign = scratch.path("foreign.json");
        fs::write(&foreign, "{\"schema\": \"atlas-batch/1\"}").unwrap();
        let e = load_cache(&foreign).unwrap_err();
        assert!(matches!(e, StoreError::Schema { .. }));
        assert!(e.to_string().contains("schema mismatch"), "{e}");
    }
}
