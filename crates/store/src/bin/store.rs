//! The registry maintenance CLI.
//!
//! ```text
//! store inspect <FILE>...              summarize cache/spec artifacts
//! store stats <PATH>...                per-shard entry counts and fingerprints
//!                                      (cache files and closure-sharded roots)
//! store gc-shards <ROOT> --keep <0xFP> [--keep <0xFP>]... [--keep-history N]
//!                                      remove the shard dirs of stale
//!                                      closures, keeping the last N
//!                                      generations
//! store export-specs <SPEC-FILE>       print the persisted specifications
//! store diff-specs <SPEC-FILE>         coverage diff vs the handwritten corpus
//! ```
//!
//! A store root holds one shard per cluster closure,
//! `<ROOT>/0x<closure>/{cache,specs}.json`, plus the whole-run
//! `<ROOT>/specs.json` export the batch and fleet pipelines write.  The
//! root itself goes to `stats` and `gc-shards`, its cache files to
//! `inspect` and `stats`, its spec files to `inspect`, `export-specs` and
//! `diff-specs`.  A shard's cache file holds one provenance group: the
//! verdicts of one closure, written whole by the run that learned it.
//!
//! `export-specs` and `diff-specs` resolve the artifact against the modeled
//! `atlas-javalib` library (the same program every inference run uses);
//! both warn when the artifact's library fingerprint does not match the
//! current library content.
//!
//! Exit codes: `0` success, `1` usage error, `2` operation failure.  A
//! reader that closes the pipe early (`store stats <ROOT> | head -n 1`)
//! ends the output, not the command: the rest of the output is dropped and
//! the exit code is the command's own.

use atlas_ir::hash::{library_fingerprint, Fnv};
use atlas_ir::LibraryInterface;
use atlas_javalib::{handwritten_specs, library_program};
use atlas_spec::{fragment_signature, CodeFragments};
use atlas_store::{
    document_schema, load_cache, load_document, load_specs, parse_hex64, CacheArtifact, Json,
    SpecArtifact,
};
use std::collections::BTreeSet;
use std::io::{self, Write};
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "\
usage:
  store inspect <FILE>...
  store stats <PATH>...
  store gc-shards <ROOT> --keep <0xFINGERPRINT> [--keep <0xFINGERPRINT>]... [--keep-history N]
  store export-specs <SPEC-FILE>
  store diff-specs <SPEC-FILE>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.split_first() {
        Some((c, rest)) => (c.as_str(), rest),
        None => {
            eprintln!("{USAGE}");
            return ExitCode::from(1);
        }
    };
    let out = &mut Out(io::stdout().lock());
    let result = match command {
        "inspect" => inspect(out, rest),
        "stats" => stats(out, rest),
        "gc-shards" => gc_shards_cmd(out, rest),
        "export-specs" => export_specs(out, rest),
        "diff-specs" => diff_specs(out, rest),
        other => Err(CliError::Usage(format!("unknown command '{other}'"))),
    }
    .and_then(|()| out.flush().map_err(CliError::from));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(message)) => {
            eprintln!("store: {message}\n{USAGE}");
            ExitCode::from(1)
        }
        Err(CliError::Failed(message)) => {
            eprintln!("store: {message}");
            ExitCode::from(2)
        }
    }
}

enum CliError {
    Usage(String),
    Failed(String),
}

impl From<atlas_store::StoreError> for CliError {
    fn from(e: atlas_store::StoreError) -> CliError {
        CliError::Failed(e.to_string())
    }
}

impl From<io::Error> for CliError {
    fn from(e: io::Error) -> CliError {
        CliError::Failed(format!("cannot write to stdout: {e}"))
    }
}

/// Standard output, locked once for the whole command, on which a closed
/// pipe (`BrokenPipe`) ends the output: such a write is dropped instead
/// of failing, so the command still runs to its own exit code.
struct Out(io::StdoutLock<'static>);

impl Write for Out {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self.0.write(buf) {
            Err(e) if e.kind() == io::ErrorKind::BrokenPipe => Ok(buf.len()),
            result => result,
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self.0.flush() {
            Err(e) if e.kind() == io::ErrorKind::BrokenPipe => Ok(()),
            result => result,
        }
    }
}

use atlas_store::hex64_string as hex;

// ---------------------------------------------------------------------------
// inspect
// ---------------------------------------------------------------------------

fn inspect(out: &mut Out, files: &[String]) -> Result<(), CliError> {
    if files.is_empty() {
        return Err(CliError::Usage("inspect needs at least one file".into()));
    }
    for file in files {
        let path = Path::new(file);
        let doc = load_document(path)?;
        let mut digest = Fnv::new(0);
        digest.write(doc.render().as_bytes());
        writeln!(out, "{}:", path.display())?;
        writeln!(out, "  content digest: {}", hex(digest.finish()))?;
        match document_schema(&doc) {
            Some(CacheArtifact::SCHEMA) => inspect_cache(out, path, &doc)?,
            Some(SpecArtifact::SCHEMA) => inspect_specs(out, &doc)?,
            Some(other) => writeln!(out, "  schema: {other} (not a store artifact)")?,
            None => writeln!(out, "  schema: none (not a store artifact)")?,
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// stats
// ---------------------------------------------------------------------------

/// Per-shard composition, without hand-inspecting JSON: for a cache file,
/// its entry counts and provenance; for a closure-sharded store root, one
/// row per shard directory (entry counts read from each shard's cache
/// file).
fn stats(out: &mut Out, paths: &[String]) -> Result<(), CliError> {
    if paths.is_empty() {
        return Err(CliError::Usage("stats needs at least one path".into()));
    }
    for raw in paths {
        let path = Path::new(raw);
        if path.is_dir() {
            let shards = atlas_store::list_shards(path)?;
            writeln!(out, "{}: {} shard dir(s)", path.display(), shards.len())?;
            let mut total = 0usize;
            for shard in &shards {
                let entries = if shard.cache.exists() {
                    load_cache(&shard.cache)?.entries.len()
                } else {
                    0
                };
                total += entries;
                writeln!(
                    out,
                    "  {}: {entries} entries, specs {}",
                    hex(shard.fingerprint),
                    if shard.specs.exists() { "yes" } else { "no" }
                )?;
            }
            writeln!(out, "  total: {total} entries")?;
        } else {
            let artifact = load_cache(path)?;
            let p = &artifact.provenance;
            writeln!(
                out,
                "{}: library {} closure {}: {} entries ({} positive)",
                path.display(),
                hex(p.fingerprint),
                hex(p.closure),
                artifact.entries.len(),
                positives(&artifact)
            )?;
        }
    }
    Ok(())
}

fn inspect_cache(out: &mut Out, path: &Path, doc: &Json) -> Result<(), CliError> {
    let artifact =
        CacheArtifact::decode(doc).map_err(|e| atlas_store::StoreError::schema(path, e))?;
    let p = &artifact.provenance;
    writeln!(out, "  schema: {}", CacheArtifact::SCHEMA)?;
    writeln!(
        out,
        "  library {} closure {} context {}",
        hex(p.fingerprint),
        hex(p.closure),
        hex(p.context)
    )?;
    writeln!(
        out,
        "  strategy {:?}, limits {}/{}/{} (steps/depth/heap)",
        p.strategy, p.limits.max_steps, p.limits.max_call_depth, p.limits.max_heap_objects
    )?;
    writeln!(
        out,
        "  {} entries ({} positive), recorded stats: {} lookups, {:.1}% hit rate",
        artifact.entries.len(),
        positives(&artifact),
        artifact.stats.lookups,
        100.0 * artifact.stats.hit_rate()
    )?;
    Ok(())
}

/// How many of a cache artifact's verdicts accept their word.
fn positives(artifact: &CacheArtifact) -> usize {
    artifact.entries.iter().filter(|e| e.2).count()
}

/// Spec files are inspected structurally (no method-name resolution), so
/// `inspect` also works on artifacts from foreign library variants.
fn inspect_specs(out: &mut Out, doc: &Json) -> Result<(), CliError> {
    writeln!(out, "  schema: {}", SpecArtifact::SCHEMA)?;
    if let Some(fp) = doc.get("library_fingerprint").and_then(Json::as_str) {
        writeln!(out, "  library: {fp}")?;
    }
    let clusters = doc.get("clusters").and_then(Json::as_arr).unwrap_or(&[]);
    writeln!(out, "  clusters: {}", clusters.len())?;
    for (i, cluster) in clusters.iter().enumerate() {
        let classes: Vec<&str> = cluster
            .get("classes")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(Json::as_str)
            .collect();
        let num_specs = cluster
            .get("specs")
            .and_then(Json::as_arr)
            .map_or(0, <[Json]>::len);
        let states = cluster
            .get("fsa")
            .and_then(|f| f.get("states"))
            .and_then(Json::as_int)
            .unwrap_or(0);
        let transitions = cluster
            .get("fsa")
            .and_then(|f| f.get("transitions"))
            .and_then(Json::as_arr)
            .map_or(0, <[Json]>::len);
        writeln!(
            out,
            "  cluster {i} [{}]: {num_specs} specs, fsa {states} states / {transitions} transitions",
            classes.join(", ")
        )?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// gc-shards (closure-sharded roots)
// ---------------------------------------------------------------------------

fn gc_shards_cmd(out: &mut Out, args: &[String]) -> Result<(), CliError> {
    let mut root = None;
    let mut keep = Vec::new();
    let mut history = 0usize;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--keep" => {
                let value = iter
                    .next()
                    .ok_or_else(|| CliError::Usage("--keep needs a fingerprint".into()))?;
                keep.push(parse_hex64(value).map_err(|e| CliError::Usage(e.to_string()))?);
            }
            "--keep-history" => {
                history = iter
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| CliError::Usage("--keep-history needs a count".into()))?;
            }
            other if root.is_none() && !other.starts_with("--") => {
                root = Some(other.to_string());
            }
            other => return Err(CliError::Usage(format!("unexpected argument '{other}'"))),
        }
    }
    let root = root.ok_or_else(|| CliError::Usage("gc-shards needs a store root".into()))?;
    if keep.is_empty() && history == 0 {
        return Err(CliError::Usage(
            "gc-shards needs --keep <0xFINGERPRINT> or --keep-history <N>".into(),
        ));
    }
    let summary = atlas_store::gc_shards_with_history(Path::new(&root), &keep, history)?;
    writeln!(
        out,
        "gc-shards {root}: kept {} shard dir(s) ({} explicit, history {history}), removed {}",
        summary.kept,
        keep.len(),
        summary.removed
    )?;
    Ok(())
}

// ---------------------------------------------------------------------------
// export-specs / diff-specs
// ---------------------------------------------------------------------------

fn load_against_library(file: &str) -> Result<(SpecArtifact, atlas_ir::Program), CliError> {
    let program = library_program();
    let artifact = load_specs(Path::new(file), &program)?;
    let interface = LibraryInterface::from_program(&program);
    let current = library_fingerprint(&program, &interface);
    if artifact.fingerprint != current {
        eprintln!(
            "store: warning: artifact was inferred against library {} but the current modeled \
             library is {} — names resolved, but verdicts may not transfer",
            hex(artifact.fingerprint),
            hex(current)
        );
    }
    Ok((artifact, program))
}

fn export_specs(out: &mut Out, args: &[String]) -> Result<(), CliError> {
    let [file] = args else {
        return Err(CliError::Usage("export-specs needs one spec file".into()));
    };
    let (artifact, program) = load_against_library(file)?;
    let interface = LibraryInterface::from_program(&program);
    writeln!(
        out,
        "{} specification(s) in {} cluster(s), extracted with max_len={} limit={}",
        artifact.num_specs(),
        artifact.clusters.len(),
        artifact.extraction.0,
        artifact.extraction.1
    )?;
    for cluster in &artifact.clusters {
        writeln!(out, "[{}]", cluster.classes.join(", "))?;
        for spec in &cluster.specs {
            writeln!(out, "  {}", spec.display(&interface))?;
        }
    }
    Ok(())
}

fn diff_specs(out: &mut Out, args: &[String]) -> Result<(), CliError> {
    let [file] = args else {
        return Err(CliError::Usage("diff-specs needs one spec file".into()));
    };
    let (artifact, program) = load_against_library(file)?;
    let inferred = CodeFragments::from_specs(&program, &artifact.all_specs());
    let handwritten = CodeFragments::from_bodies(handwritten_specs(&program));

    let methods: BTreeSet<atlas_ir::MethodId> =
        inferred.methods().chain(handwritten.methods()).collect();
    let mut both = 0usize;
    let mut exact = 0usize;
    let mut inferred_only = 0usize;
    let mut handwritten_only = 0usize;
    // Columns count *normalized points-to effects* (the deduplicated
    // statement signatures the §6 evaluation compares corpora by), not raw
    // fragment statements — "exact" means the effect sets coincide.
    writeln!(
        out,
        "{:<34} {:>9} {:>12}  verdict",
        "method", "inferred", "handwritten"
    )?;
    for method in methods {
        let name = program.qualified_name(method);
        let sig_inf = inferred
            .body(method)
            .map(|body| fragment_signature(&program, method, body));
        let sig_hand = handwritten
            .body(method)
            .map(|body| fragment_signature(&program, method, body));
        let verdict = match (&sig_inf, &sig_hand) {
            (Some(a), Some(b)) => {
                both += 1;
                if a == b {
                    exact += 1;
                    "exact"
                } else {
                    "differs"
                }
            }
            (Some(_), None) => {
                inferred_only += 1;
                "inferred only"
            }
            (None, Some(_)) => {
                handwritten_only += 1;
                "handwritten only"
            }
            (None, None) => continue,
        };
        writeln!(
            out,
            "{name:<34} {:>9} {:>12}  {verdict}",
            sig_inf.map_or(0, |s| s.len()),
            sig_hand.map_or(0, |s| s.len()),
        )?;
    }
    writeln!(
        out,
        "summary: {} method(s) in both ({exact} exact), {inferred_only} inferred-only, \
         {handwritten_only} handwritten-only",
        both
    )?;
    Ok(())
}
