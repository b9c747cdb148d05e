//! The two artifact schemas of the registry:
//!
//! * **`atlas-cache/2`** ([`CacheArtifact`]) — one closure shard's
//!   persisted verdicts: the provenance of its entries (library and
//!   closure fingerprints, key context, initialization strategy, execution
//!   limits), the cache statistics at persist time, and the entries
//!   themselves in insertion order.  Keys are content hashes, so a
//!   reloaded cache means exactly what the original meant — in any
//!   process.
//! * **`atlas-spec/1`** ([`SpecArtifact`]) — an inferred specification set:
//!   per-cluster extracted [`PathSpec`]s *and* the full learned [`Fsa`],
//!   with symbols written as qualified slot names (`ArrayList.add#p0`) and
//!   resolved back against a program on decode.
//!
//! Both schemas version explicitly (the `schema` field): an incompatible
//! change bumps the version and readers reject any other version loudly
//! instead of mis-reading it.  Encoding is deterministic — entry order,
//! transition order, and key order are all canonical — so re-encoding an
//! unchanged artifact is byte-identical, which is what the cross-process
//! determinism check in the batch pipeline asserts.

use crate::json::Json;
use atlas_interp::ExecLimits;
use atlas_ir::{MethodId, ParamSlot, Program, SlotKind};
use atlas_learn::{CacheKeyer, CacheStats, VerdictCache};
use atlas_spec::{CodeFragments, Fsa, PathSpec, StateId};
use atlas_synth::InitStrategy;
use std::fmt;

/// A schema violation found while decoding an artifact (wrong schema tag,
/// missing field, unresolvable method name, …).  The registry layer wraps
/// this with the file path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaError(pub String);

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for SchemaError {}

fn err(message: impl Into<String>) -> SchemaError {
    SchemaError(message.into())
}

/// The canonical `0x`-prefixed, 16-digit rendering of a 64-bit hash — the
/// inverse of [`parse_hex64`].  Shard directory names, reports, and CLI
/// output all use this one helper, so the round trip can never drift.
pub fn hex64_string(v: u64) -> String {
    format!("{v:#018x}")
}

/// u64 values exceed JSON's interoperable integer range (and our `Json`
/// integers are `i64`), so all 64-bit hashes serialize as fixed-width hex
/// strings.
fn hex64(v: u64) -> Json {
    Json::Str(hex64_string(v))
}

/// Parses a `0x`-prefixed hex string as written by the artifact encoder
/// (any width up to 16 digits).
pub fn parse_hex64(text: &str) -> Result<u64, SchemaError> {
    let digits = text
        .strip_prefix("0x")
        .ok_or_else(|| err(format!("expected 0x-prefixed hex, got '{text}'")))?;
    u64::from_str_radix(digits, 16).map_err(|_| err(format!("invalid hex value '{text}'")))
}

fn field<'a>(doc: &'a Json, key: &str) -> Result<&'a Json, SchemaError> {
    doc.get(key)
        .ok_or_else(|| err(format!("missing field '{key}'")))
}

fn str_field<'a>(doc: &'a Json, key: &str) -> Result<&'a str, SchemaError> {
    field(doc, key)?
        .as_str()
        .ok_or_else(|| err(format!("field '{key}' must be a string")))
}

fn hex_field(doc: &Json, key: &str) -> Result<u64, SchemaError> {
    parse_hex64(str_field(doc, key)?)
}

fn usize_field(doc: &Json, key: &str) -> Result<usize, SchemaError> {
    let value = field(doc, key)?
        .as_int()
        .ok_or_else(|| err(format!("field '{key}' must be an integer")))?;
    usize::try_from(value).map_err(|_| err(format!("field '{key}' must be non-negative")))
}

fn arr_field<'a>(doc: &'a Json, key: &str) -> Result<&'a [Json], SchemaError> {
    field(doc, key)?
        .as_arr()
        .ok_or_else(|| err(format!("field '{key}' must be an array")))
}

fn check_schema(doc: &Json, expected: &str) -> Result<(), SchemaError> {
    let found = str_field(doc, "schema")?;
    if found == expected {
        Ok(())
    } else {
        Err(err(format!(
            "schema mismatch: expected '{expected}', found '{found}'"
        )))
    }
}

/// The schema tag of a parsed store document, when it has one — used by
/// consumers (the `store` CLI's `inspect`) to dispatch on file kind.
pub fn document_schema(doc: &Json) -> Option<&str> {
    doc.get("schema").and_then(Json::as_str)
}

// ---------------------------------------------------------------------------
// atlas-cache/2
// ---------------------------------------------------------------------------

/// Where a cache shard's entries came from: which library content, which
/// dependency closure, under which oracle configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheProvenance {
    /// Content fingerprint of the library (`atlas_ir::hash::library_fingerprint`).
    pub fingerprint: u64,
    /// The fingerprint the entries are *keyed* on: the serving cluster's
    /// job fingerprint (its `atlas_ir::DepGraph` closure mixed with the
    /// cluster's identity and learner configuration), which also names the
    /// shard directory.
    pub closure: u64,
    /// The key context every entry of the shard shares
    /// ([`CacheKeyer::context`]): the closure fingerprint mixed with
    /// strategy and limits.
    pub context: u64,
    /// The initialization strategy the verdicts were computed under.
    pub strategy: InitStrategy,
    /// The execution limits the verdicts were computed under.
    pub limits: ExecLimits,
}

impl CacheProvenance {
    /// The provenance of one cluster-scoped oracle context: entries keyed
    /// on the cluster's dependency-closure fingerprint, attributed to the
    /// library identified by `fingerprint`.
    pub fn for_closure(
        fingerprint: u64,
        closure: u64,
        strategy: InitStrategy,
        limits: ExecLimits,
    ) -> CacheProvenance {
        CacheProvenance {
            fingerprint,
            closure,
            context: CacheKeyer::context_of(closure, strategy, limits),
            strategy,
            limits,
        }
    }
}

/// One persisted verdict: the two word-content hashes and the verdict.  The
/// key context is shard-level (every entry of a shard shares it).
pub type CacheEntry = (u64, u64, bool);

/// A persisted verdict cache (`atlas-cache/2`): one closure shard's
/// verdicts, all computed against one library under one oracle
/// configuration, in insertion order.  A shard's verdicts are one set,
/// written whole: nothing merges two artifacts.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheArtifact {
    /// Provenance of every entry.
    pub provenance: CacheProvenance,
    /// Cache statistics at persist time (informational).
    pub stats: CacheStats,
    /// `(word, word2, verdict)` triples in insertion order.
    pub entries: Vec<CacheEntry>,
}

impl CacheArtifact {
    /// The schema tag this artifact encodes as.  The document records the
    /// closure fingerprint its entries are keyed on.
    pub const SCHEMA: &'static str = "atlas-cache/2";

    /// Builds an artifact from a live cache, reading only the partition of
    /// `provenance`'s key context (entries of other contexts are someone
    /// else's to persist — they would be mis-attributed here and can never
    /// hit under this provenance anyway).
    pub fn from_cache(cache: &VerdictCache, provenance: CacheProvenance) -> CacheArtifact {
        let entries: Vec<CacheEntry> = cache
            .context_entries(provenance.context)
            .map(|(key, verdict)| {
                let (word, word2) = key.word_hashes();
                (word, word2, verdict)
            })
            .collect();
        CacheArtifact {
            provenance,
            stats: cache.stats(),
            entries,
        }
    }

    /// Encodes the artifact as an `atlas-cache/2` document: the schema tag
    /// and a `shards` array holding the one provenance group.
    pub fn encode(&self) -> Json {
        let p = &self.provenance;
        let entries: Vec<Json> = self
            .entries
            .iter()
            .map(|&(w, w2, verdict)| Json::Arr(vec![hex64(w), hex64(w2), Json::Bool(verdict)]))
            .collect();
        let group = Json::obj()
            .set("library_fingerprint", hex64(p.fingerprint))
            .set("closure_fingerprint", hex64(p.closure))
            .set("context", hex64(p.context))
            .set(
                "strategy",
                match p.strategy {
                    InitStrategy::Null => "null",
                    InitStrategy::Instantiate => "instantiate",
                },
            )
            .set(
                "limits",
                Json::obj()
                    .set("max_steps", p.limits.max_steps)
                    .set("max_call_depth", p.limits.max_call_depth)
                    .set("max_heap_objects", p.limits.max_heap_objects),
            )
            .set("stats", encode_stats(self.stats))
            .set("entries", entries);
        Json::obj()
            .set("schema", Self::SCHEMA)
            .set("shards", vec![group])
    }

    /// Decodes an `atlas-cache/2` document.
    ///
    /// # Errors
    /// Returns a [`SchemaError`] on a schema-tag mismatch (any other
    /// version included), a `shards` array that does not hold exactly one
    /// provenance group, or any malformed field.
    pub fn decode(doc: &Json) -> Result<CacheArtifact, SchemaError> {
        check_schema(doc, Self::SCHEMA)?;
        let group = match arr_field(doc, "shards")? {
            [group] => group,
            groups => {
                return Err(err(format!(
                    "expected one provenance group in 'shards', found {}",
                    groups.len()
                )))
            }
        };
        let limits_doc = field(group, "limits")?;
        let provenance = CacheProvenance {
            fingerprint: hex_field(group, "library_fingerprint")?,
            closure: hex_field(group, "closure_fingerprint")?,
            context: hex_field(group, "context")?,
            strategy: match str_field(group, "strategy")? {
                "null" => InitStrategy::Null,
                "instantiate" => InitStrategy::Instantiate,
                other => return Err(err(format!("unknown strategy '{other}'"))),
            },
            limits: ExecLimits {
                max_steps: usize_field(limits_doc, "max_steps")?,
                max_call_depth: usize_field(limits_doc, "max_call_depth")?,
                max_heap_objects: usize_field(limits_doc, "max_heap_objects")?,
            },
        };
        let mut entries = Vec::new();
        for entry in arr_field(group, "entries")? {
            let triple = entry
                .as_arr()
                .filter(|a| a.len() == 3)
                .ok_or_else(|| err("cache entry must be a [word, word2, verdict] triple"))?;
            let word = parse_hex64(
                triple[0]
                    .as_str()
                    .ok_or_else(|| err("entry word hash must be a hex string"))?,
            )?;
            let word2 = parse_hex64(
                triple[1]
                    .as_str()
                    .ok_or_else(|| err("entry word hash must be a hex string"))?,
            )?;
            let verdict = triple[2]
                .as_bool()
                .ok_or_else(|| err("entry verdict must be a bool"))?;
            entries.push((word, word2, verdict));
        }
        Ok(CacheArtifact {
            provenance,
            stats: decode_stats(field(group, "stats")?)?,
            entries,
        })
    }
}

fn encode_stats(stats: CacheStats) -> Json {
    Json::obj()
        .set("lookups", stats.lookups)
        .set("hits", stats.hits)
        .set("warm_hits", stats.warm_hits)
        .set("misses", stats.misses)
        .set("insertions", stats.insertions)
        .set("evictions", stats.evictions)
}

fn decode_stats(doc: &Json) -> Result<CacheStats, SchemaError> {
    Ok(CacheStats {
        lookups: usize_field(doc, "lookups")?,
        hits: usize_field(doc, "hits")?,
        warm_hits: usize_field(doc, "warm_hits")?,
        misses: usize_field(doc, "misses")?,
        insertions: usize_field(doc, "insertions")?,
        evictions: usize_field(doc, "evictions")?,
    })
}

// ---------------------------------------------------------------------------
// atlas-spec/1
// ---------------------------------------------------------------------------

/// One cluster's persisted inference result: the classes it covered, the
/// extracted path specifications, and the full learned automaton.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecCluster {
    /// Names of the classes whose specifications were inferred together.
    pub classes: Vec<String>,
    /// The extracted (bounded) path specifications.
    pub specs: Vec<PathSpec>,
    /// The learned automaton, which generates the specs (and more).
    pub fsa: Fsa,
}

/// A persisted specification set (`atlas-spec/1`).
#[derive(Debug, Clone, PartialEq)]
pub struct SpecArtifact {
    /// Fingerprint of the library the specifications were inferred against.
    pub fingerprint: u64,
    /// The `(max_len, limit_per_cluster)` bounds the specs were extracted
    /// with, recorded so consumers can reproduce the extraction.
    pub extraction: (usize, usize),
    /// Per-cluster results, in cluster order.
    pub clusters: Vec<SpecCluster>,
}

impl SpecArtifact {
    /// The schema tag this artifact encodes as.
    pub const SCHEMA: &'static str = "atlas-spec/1";

    /// All extracted specifications across clusters, in cluster order.
    pub fn all_specs(&self) -> Vec<PathSpec> {
        self.clusters
            .iter()
            .flat_map(|c| c.specs.iter().cloned())
            .collect()
    }

    /// Total number of extracted specifications.
    pub fn num_specs(&self) -> usize {
        self.clusters.iter().map(|c| c.specs.len()).sum()
    }

    /// Code-fragment specifications for every cluster's learned automaton,
    /// generated against `program` — what a client analysis consumes in
    /// place of the library implementation, exactly as a live run's
    /// `InferenceOutcome::fragments` would generate them.
    pub fn fragments(&self, program: &Program) -> CodeFragments {
        let mut all = CodeFragments::default();
        for cluster in &self.clusters {
            all.merge(&CodeFragments::from_fsa(program, &cluster.fsa));
        }
        all
    }

    /// Encodes the artifact as an `atlas-spec/1` document.  Method ids are
    /// written as qualified names resolved through `program`, so the file is
    /// meaningful to any process that rebuilds the same library.
    ///
    /// # Errors
    /// Returns a [`SchemaError`] when an automaton's initial state is not
    /// state 0 (never produced by the learner; unrepresentable in the
    /// schema).
    pub fn encode(&self, program: &Program) -> Result<Json, SchemaError> {
        let mut clusters = Vec::new();
        for cluster in &self.clusters {
            let specs: Vec<Json> = cluster
                .specs
                .iter()
                .map(|spec| {
                    Json::Arr(
                        spec.symbols()
                            .iter()
                            .map(|&slot| Json::Str(encode_slot(program, slot)))
                            .collect(),
                    )
                })
                .collect();
            clusters.push(
                Json::obj()
                    .set(
                        "classes",
                        cluster
                            .classes
                            .iter()
                            .map(|c| Json::str(c.as_str()))
                            .collect::<Vec<Json>>(),
                    )
                    .set("specs", specs)
                    .set("fsa", encode_fsa(program, &cluster.fsa)?),
            );
        }
        Ok(Json::obj()
            .set("schema", Self::SCHEMA)
            .set("library_fingerprint", hex64(self.fingerprint))
            .set(
                "extraction",
                Json::obj()
                    .set("max_len", self.extraction.0)
                    .set("limit_per_cluster", self.extraction.1),
            )
            .set("clusters", clusters))
    }

    /// Decodes an `atlas-spec/1` document, resolving qualified method names
    /// against `program`.
    ///
    /// # Errors
    /// Returns a [`SchemaError`] on a schema-tag mismatch, a malformed
    /// field, a name that does not resolve in `program`, or a symbol
    /// sequence that is not a well-formed path specification.
    pub fn decode(doc: &Json, program: &Program) -> Result<SpecArtifact, SchemaError> {
        check_schema(doc, Self::SCHEMA)?;
        let extraction_doc = field(doc, "extraction")?;
        let mut clusters = Vec::new();
        for cluster in arr_field(doc, "clusters")? {
            let mut classes = Vec::new();
            for class in arr_field(cluster, "classes")? {
                classes.push(
                    class
                        .as_str()
                        .ok_or_else(|| err("class names must be strings"))?
                        .to_string(),
                );
            }
            let mut specs = Vec::new();
            for spec in arr_field(cluster, "specs")? {
                let symbols = spec
                    .as_arr()
                    .ok_or_else(|| err("a spec must be an array of symbols"))?
                    .iter()
                    .map(|sym| {
                        decode_slot(
                            program,
                            sym.as_str().ok_or_else(|| err("symbols must be strings"))?,
                        )
                    })
                    .collect::<Result<Vec<ParamSlot>, SchemaError>>()?;
                specs.push(
                    PathSpec::new(symbols)
                        .map_err(|e| err(format!("malformed path specification: {e}")))?,
                );
            }
            clusters.push(SpecCluster {
                classes,
                specs,
                fsa: decode_fsa(program, field(cluster, "fsa")?)?,
            });
        }
        Ok(SpecArtifact {
            fingerprint: hex_field(doc, "library_fingerprint")?,
            extraction: (
                usize_field(extraction_doc, "max_len")?,
                usize_field(extraction_doc, "limit_per_cluster")?,
            ),
            clusters,
        })
    }
}

/// Writes a slot as `Class.method#kind` with `kind` ∈ `this` | `p<i>` |
/// `ret` — the same shape as `LibraryInterface::slot_qualified`.
fn encode_slot(program: &Program, slot: ParamSlot) -> String {
    let kind = match slot.kind {
        SlotKind::Receiver => "this".to_string(),
        SlotKind::Param(i) => format!("p{i}"),
        SlotKind::Return => "ret".to_string(),
    };
    format!("{}#{}", program.qualified_name(slot.method), kind)
}

fn decode_slot(program: &Program, text: &str) -> Result<ParamSlot, SchemaError> {
    let (name, kind) = text
        .rsplit_once('#')
        .ok_or_else(|| err(format!("symbol '{text}' is missing its '#kind' suffix")))?;
    let method: MethodId = program
        .method_qualified(name)
        .ok_or_else(|| err(format!("method '{name}' does not exist in this program")))?;
    let kind = match kind {
        "this" => SlotKind::Receiver,
        "ret" => SlotKind::Return,
        p => {
            let i: u16 = p
                .strip_prefix('p')
                .and_then(|n| n.parse().ok())
                .ok_or_else(|| err(format!("unknown slot kind '{p}' in '{text}'")))?;
            SlotKind::Param(i)
        }
    };
    Ok(ParamSlot { method, kind })
}

fn encode_fsa(program: &Program, fsa: &Fsa) -> Result<Json, SchemaError> {
    if fsa.init() != StateId(0) {
        return Err(err("only automata with initial state 0 are persistable"));
    }
    let accepting: Vec<Json> = fsa
        .states()
        .filter(|&q| fsa.is_accepting(q))
        .map(|q| Json::Int(i64::from(q.0)))
        .collect();
    let transitions: Vec<Json> = fsa
        .transitions()
        .into_iter()
        .map(|(from, sym, to)| {
            Json::Arr(vec![
                Json::Int(i64::from(from.0)),
                Json::Str(encode_slot(program, sym)),
                Json::Int(i64::from(to.0)),
            ])
        })
        .collect();
    Ok(Json::obj()
        .set("states", fsa.num_states())
        .set("accepting", accepting)
        .set("transitions", transitions))
}

fn decode_fsa(program: &Program, doc: &Json) -> Result<Fsa, SchemaError> {
    let num_states = usize_field(doc, "states")?;
    if num_states == 0 {
        return Err(err("an automaton needs at least its initial state"));
    }
    let mut fsa = Fsa::empty();
    for _ in 1..num_states {
        fsa.add_state();
    }
    let state = |value: &Json| -> Result<StateId, SchemaError> {
        let id = value
            .as_int()
            .filter(|&i| i >= 0 && (i as usize) < num_states)
            .ok_or_else(|| err("state ids must be integers in range"))?;
        Ok(StateId(id as u32))
    };
    for q in arr_field(doc, "accepting")? {
        fsa.set_accepting(state(q)?, true);
    }
    for transition in arr_field(doc, "transitions")? {
        let triple = transition
            .as_arr()
            .filter(|a| a.len() == 3)
            .ok_or_else(|| err("a transition must be a [from, symbol, to] triple"))?;
        let sym = decode_slot(
            program,
            triple[1]
                .as_str()
                .ok_or_else(|| err("transition symbols must be strings"))?,
        )?;
        fsa.add_transition(state(&triple[0])?, sym, state(&triple[2])?);
    }
    Ok(fsa)
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlas_learn::VerdictKey;

    fn provenance(fingerprint: u64) -> CacheProvenance {
        CacheProvenance {
            fingerprint,
            closure: fingerprint ^ 0xc105,
            context: fingerprint ^ 0xc0de,
            strategy: InitStrategy::Instantiate,
            limits: ExecLimits::for_unit_tests(),
        }
    }

    #[test]
    fn cache_artifact_round_trips_through_json() {
        let artifacts = [
            CacheArtifact {
                provenance: provenance(0x1),
                stats: CacheStats::default(),
                entries: vec![(1, 2, true), (3, 4, false)],
            },
            CacheArtifact {
                provenance: CacheProvenance {
                    fingerprint: u64::MAX,
                    closure: u64::MAX,
                    context: 0,
                    strategy: InitStrategy::Null,
                    limits: ExecLimits::default(),
                },
                stats: CacheStats {
                    lookups: 10,
                    hits: 6,
                    warm_hits: 2,
                    misses: 4,
                    insertions: 4,
                    evictions: 1,
                },
                entries: vec![(u64::MAX, 0, true)],
            },
        ];
        for artifact in artifacts {
            let doc = artifact.encode();
            let groups = doc.get("shards").and_then(Json::as_arr).map(<[Json]>::len);
            assert_eq!(groups, Some(1), "one provenance group per document");
            let reparsed = Json::parse(&doc.render()).expect("renders parse");
            assert_eq!(CacheArtifact::decode(&reparsed).unwrap(), artifact);
        }
    }

    #[test]
    fn from_cache_keeps_only_the_matching_context() {
        let p = provenance(0xab);
        let mut cache = VerdictCache::new();
        cache.insert(VerdictKey::from_parts(p.context, 1, 2), true);
        cache.insert(VerdictKey::from_parts(0xdead, 3, 4), false); // foreign
        cache.insert(VerdictKey::from_parts(p.context, 5, 6), false);
        let artifact = CacheArtifact::from_cache(&cache, p);
        assert_eq!(artifact.provenance, p);
        assert_eq!(
            artifact.entries,
            vec![(1, 2, true), (5, 6, false)],
            "foreign-context entries are not persisted, order is insertion order"
        );
    }

    #[test]
    fn v1_documents_are_rejected_as_schema_mismatches() {
        // An `atlas-cache/1` artifact: no closure_fingerprint field.
        let v1 = Json::obj().set("schema", "atlas-cache/1").set(
            "shards",
            vec![Json::obj()
                .set("library_fingerprint", "0x00000000000000ab")
                .set("context", "0x0000000000000001")
                .set("strategy", "instantiate")
                .set(
                    "limits",
                    Json::obj()
                        .set("max_steps", 10usize)
                        .set("max_call_depth", 2usize)
                        .set("max_heap_objects", 3usize),
                )
                .set("stats", encode_stats(CacheStats::default()))
                .set(
                    "entries",
                    vec![Json::Arr(vec![
                        Json::str("0x0000000000000005"),
                        Json::str("0x0000000000000006"),
                        Json::Bool(true),
                    ])],
                )],
        );
        let e = CacheArtifact::decode(&v1).unwrap_err();
        assert_eq!(
            e.0,
            "schema mismatch: expected 'atlas-cache/2', found 'atlas-cache/1'"
        );
    }

    #[test]
    fn multi_provenance_caches_persist_one_shard_per_context() {
        let pa = provenance(0xa);
        let pb = CacheProvenance {
            fingerprint: 0xa, // same library…
            closure: 0xb1,    // …different cluster closure
            context: 0xb1 ^ 0xc0de,
            strategy: InitStrategy::Instantiate,
            limits: ExecLimits::for_unit_tests(),
        };
        let empty = CacheProvenance {
            closure: 0xdead,
            context: 0xdead,
            ..pb
        };
        let mut cache = VerdictCache::new();
        cache.insert(VerdictKey::from_parts(pb.context, 7, 8), false);
        cache.insert(VerdictKey::from_parts(pa.context, 1, 2), true);
        cache.insert(VerdictKey::from_parts(pb.context, 9, 10), true);
        // One shard per context: each cluster persists its own entries,
        // and a context with none persists an empty shard.
        let a = CacheArtifact::from_cache(&cache, pa);
        let b = CacheArtifact::from_cache(&cache, pb);
        assert_eq!(a.entries, vec![(1, 2, true)]);
        assert_eq!(
            b.entries,
            vec![(7, 8, false), (9, 10, true)],
            "entries stay in cache insertion order"
        );
        assert!(CacheArtifact::from_cache(&cache, empty).entries.is_empty());
    }

    #[test]
    fn decode_rejects_foreign_and_malformed_documents() {
        let wrong = Json::obj().set("schema", "atlas-spec/1");
        let e = CacheArtifact::decode(&wrong).unwrap_err();
        assert!(e.0.contains("schema mismatch"), "{e}");
        let missing = Json::obj().set("schema", CacheArtifact::SCHEMA);
        assert!(CacheArtifact::decode(&missing)
            .unwrap_err()
            .0
            .contains("missing field 'shards'"));
        // A document holds exactly one provenance group.
        let group = CacheArtifact {
            provenance: provenance(0x1),
            stats: CacheStats::default(),
            entries: vec![(1, 2, true)],
        }
        .encode()
        .get("shards")
        .and_then(Json::as_arr)
        .expect("one group")[0]
            .clone();
        for groups in [vec![group.clone(), group], Vec::new()] {
            let n = groups.len();
            let doc = missing.clone().set("shards", groups);
            assert_eq!(
                CacheArtifact::decode(&doc).unwrap_err().0,
                format!("expected one provenance group in 'shards', found {n}")
            );
        }
        assert!(parse_hex64("123").is_err());
        assert!(parse_hex64("0xzz").is_err());
        assert_eq!(parse_hex64("0xff").unwrap(), 255);
    }
}
