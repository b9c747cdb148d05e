//! The verdict cache: content-addressed memoization of oracle answers.
//!
//! The inference loop spends almost all of its time in the noisy oracle,
//! executing synthesized unit tests.  The oracle is a *deterministic*
//! function of the library implementation, the candidate word, the
//! initialization strategy, and the execution limits — so a verdict paid
//! for once can be reused by any later oracle that agrees on all four,
//! whether in the same run (sampling re-draws the same candidates
//! constantly), across sessions (config sweeps, re-runs after interface
//! edits), or across clusters of the same library.
//!
//! Keys are *content-addressed* ([`VerdictKey`]): they hash the library's
//! observable content (signatures **and** method bodies), not in-memory ids,
//! so a cache built over one program instance warm-starts an oracle over a
//! freshly built but identical program — and yields zero (false) hits when
//! the library implementation differs, even if the interface looks the same
//! ([`library_fingerprint`]).
//!
//! A [`VerdictCache`] maps each key context to one verdict set, its
//! partition.  An oracle only ever looks up its own context: it reads that
//! partition as a warm base, writes its misses to a delta, and hands back
//! base plus delta, which the engine installs into the session cache in
//! cluster order, replacing the partition it started from.  Verdicts are a
//! deterministic function of their key, so a context's set is only ever
//! replaced whole, never merged.  See `DESIGN.md` for the data flow
//! through the engine's `warm_start`/`into_cache` and the determinism
//! invariant: a warm-started run produces bit-identical automata, it only
//! skips re-executions.

use atlas_interp::ExecLimits;
use atlas_ir::hash::{method_content_hash, Fnv};
use atlas_ir::{ContentIndex, LibraryInterface, ParamSlot, Program, SlotKind};
use atlas_synth::InitStrategy;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

// The hashing primitives are shared with `atlas-store` (which persists
// caches across processes) via `atlas_ir::hash` — one implementation, one
// set of reference values.
pub use atlas_ir::hash::library_fingerprint;

/// Computes [`VerdictKey`]s for one oracle context.
///
/// **Closure-fingerprint keying.**  A keyer is built from an explicit
/// content `fingerprint` ([`CacheKeyer::with_fingerprint`]): in the
/// incremental pipeline this is the **dependency-closure fingerprint** of
/// the cluster the oracle serves (`atlas_ir::depgraph`), so verdicts
/// transfer between any two runs that agree on the closure *content* —
/// even when unrelated parts of the library differ.  Callers without a
/// cluster scope pass the whole-library fingerprint
/// ([`library_fingerprint`]), which degrades gracefully to the historical
/// any-edit-invalidates-everything keying.  The fingerprint choice only
/// moves the *context* half of the key ([`CacheKeyer::context_of`]); word
/// hashing is identical either way, so re-keying a cache is a pure
/// re-grouping, never a correctness change.
///
/// The context — fingerprint, [`InitStrategy`], [`ExecLimits`] — is hashed
/// once at construction; per-method content hashes are a table indexed by
/// method id, so that keying a word is a handful of integer mixes, cheap
/// enough for the oracle's hot path.  Keyers built with
/// [`CacheKeyer::from_index`] share their [`ContentIndex`]'s table instead
/// of hashing the interface again.
#[derive(Debug, Clone)]
pub struct CacheKeyer {
    context: u64,
    /// `method_content_hash` per method id, `None` outside the interface
    /// (such methods key on their raw id).
    method_hash: Arc<[Option<u64>]>,
}

impl CacheKeyer {
    /// Builds a keyer whose context is derived from `fingerprint` — a
    /// cluster's dependency-closure fingerprint in the incremental
    /// pipeline, or [`library_fingerprint`] for whole-library scope (see
    /// the [type docs](CacheKeyer) for why the distinction matters).
    pub fn with_fingerprint(
        program: &Program,
        interface: &LibraryInterface,
        fingerprint: u64,
        strategy: InitStrategy,
        limits: ExecLimits,
    ) -> CacheKeyer {
        let mut method_hash = vec![None; program.num_methods()];
        for sig in interface.methods() {
            method_hash[sig.method.index() as usize] =
                Some(method_content_hash(program, interface, sig.method));
        }
        CacheKeyer {
            context: Self::context_of(fingerprint, strategy, limits),
            method_hash: method_hash.into(),
        }
    }

    /// [`CacheKeyer::with_fingerprint`] over the program and interface
    /// `index` was built from: the same keys, read from the index's shared
    /// table of interface content hashes, so building the keyer hashes
    /// nothing but the context.
    pub fn from_index(
        index: &ContentIndex,
        fingerprint: u64,
        strategy: InitStrategy,
        limits: ExecLimits,
    ) -> CacheKeyer {
        CacheKeyer {
            context: Self::context_of(fingerprint, strategy, limits),
            method_hash: Arc::clone(index.interface_hashes()),
        }
    }

    /// The context half of a [`VerdictKey`]: a content fingerprint (one
    /// cluster's dependency closure, or the whole library) mixed with the
    /// initialization strategy and the execution limits.  One definition,
    /// shared by [`CacheKeyer`] and `atlas-store`'s provenance records, so
    /// a context computed at persist time always matches the one computed
    /// at lookup time.
    pub fn context_of(fingerprint: u64, strategy: InitStrategy, limits: ExecLimits) -> u64 {
        let mut h = Fnv::new(0xc0de);
        h.write_u64(fingerprint);
        h.write(&[match strategy {
            InitStrategy::Null => 0,
            InitStrategy::Instantiate => 1,
        }]);
        h.write_u64(limits.max_steps as u64);
        h.write_u64(limits.max_call_depth as u64);
        h.write_u64(limits.max_heap_objects as u64);
        h.finish()
    }

    /// The context half of every key this keyer produces (content
    /// fingerprint mixed with strategy and limits).
    pub fn context(&self) -> u64 {
        self.context
    }

    /// The content-addressed key for one candidate word.
    pub fn key(&self, word: &[ParamSlot]) -> VerdictKey {
        let mut a = Fnv::new(0x9e37_79b9);
        let mut b = Fnv::new(0x85eb_ca6b);
        for slot in word {
            let mh = self
                .method_hash
                .get(slot.method.index() as usize)
                .copied()
                .flatten()
                .unwrap_or_else(|| u64::from(slot.method.index()) | 1 << 63);
            let kind = match slot.kind {
                SlotKind::Receiver => 0u64,
                SlotKind::Param(i) => 1 + u64::from(i),
                SlotKind::Return => u64::MAX,
            };
            a.write_u64(mh);
            a.write_u64(kind);
            b.write_u64(kind);
            b.write_u64(mh);
        }
        VerdictKey {
            context: self.context,
            word: a.finish(),
            word2: b.finish(),
        }
    }
}

/// A content-addressed cache key: 64 bits of oracle context (closure or
/// library fingerprint, initialization strategy, execution limits) plus 128 bits of
/// word content.  Two independent word hashes make accidental collisions
/// negligible at any realistic cache size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VerdictKey {
    context: u64,
    word: u64,
    word2: u64,
}

impl VerdictKey {
    /// Reassembles a key from its three hash components, exactly as
    /// returned by [`VerdictKey::context`] and [`VerdictKey::word_hashes`].
    /// This is the deserialization entry point used by `atlas-store`; keys
    /// are content hashes, so round-tripping them through a file preserves
    /// their meaning.
    pub fn from_parts(context: u64, word: u64, word2: u64) -> VerdictKey {
        VerdictKey {
            context,
            word,
            word2,
        }
    }

    /// The context half of the key (see [`CacheKeyer::context`]).
    pub fn context(&self) -> u64 {
        self.context
    }

    /// The two independent word-content hashes.
    pub fn word_hashes(&self) -> (u64, u64) {
        (self.word, self.word2)
    }
}

/// Counters describing a [`VerdictCache`]'s activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total lookups.
    pub lookups: usize,
    /// Lookups answered from the cache.
    pub hits: usize,
    /// The subset of `hits` answered by *warm* entries — verdicts an
    /// oracle found in the partition it started from, rather than
    /// computed itself.
    pub warm_hits: usize,
    /// Lookups that found nothing.
    pub misses: usize,
    /// Entries inserted.
    pub insertions: usize,
    /// Always `0`: the cache is unbounded and never evicts.  Kept because
    /// persisted shard statistics and the batch report carry the field.
    pub evictions: usize,
}

impl CacheStats {
    /// Fraction of lookups answered from the cache (`0.0` when idle).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }

    /// Fraction of lookups answered by warm-start entries.
    pub fn warm_hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.warm_hits as f64 / self.lookups as f64
        }
    }

    /// Folds another counter set into this one.  Counters are plain sums,
    /// so per-cluster statistics merge into the same totals regardless of
    /// scheduling order.
    pub fn merge(&mut self, other: CacheStats) {
        self.lookups += other.lookups;
        self.hits += other.hits;
        self.warm_hits += other.warm_hits;
        self.misses += other.misses;
        self.insertions += other.insertions;
        self.evictions += other.evictions;
    }
}

/// The two word hashes of a [`VerdictKey`]: the key within one context.
type WordHash = (u64, u64);

/// The verdicts of one key context, in insertion order.
#[derive(Debug, Clone, Default)]
struct Partition {
    verdicts: HashMap<WordHash, bool>,
    order: Vec<(WordHash, bool)>,
}

impl Partition {
    fn get(&self, word: WordHash) -> Option<bool> {
        self.verdicts.get(&word).copied()
    }

    /// Inserts a verdict unless the word is already known (the first
    /// entry wins); returns whether it was new.
    fn insert(&mut self, word: WordHash, verdict: bool) -> bool {
        match self.verdicts.entry(word) {
            Entry::Occupied(_) => false,
            Entry::Vacant(slot) => {
                slot.insert(verdict);
                self.order.push((word, verdict));
                true
            }
        }
    }

    fn len(&self) -> usize {
        self.order.len()
    }
}

/// An unbounded, deterministic store of oracle verdicts keyed by
/// [`VerdictKey`].
///
/// * **Partitioned by context.**  Verdicts are grouped by the context half
///   of their key, one partition per context, and
///   [`install`](VerdictCache::install) replaces a partition whole: one
///   context's verdicts are one set, never a merge of two.
/// * **Deterministic.**  Each partition keeps its verdicts in insertion
///   order, so the contents are a pure function of the operation
///   sequence — never of hash-map iteration order.
/// * **Collision-free in practice.**  Keys carry 192 bits of content hash;
///   a collision would require ~2^96 distinct words.
///
/// ```
/// use atlas_learn::VerdictCache;
/// let mut cache = VerdictCache::default();
/// let keys = VerdictCache::test_keys(2);
/// cache.insert(keys[0], true);
/// cache.insert(keys[0], false); // the first entry wins
/// assert_eq!(cache.get(keys[0]), Some(true));
/// assert_eq!(cache.get(keys[1]), None);
/// assert_eq!(cache.len(), 1);
/// assert_eq!(cache.stats().hit_rate(), 0.5);
/// ```
#[derive(Debug, Clone, Default)]
pub struct VerdictCache {
    /// Context → its verdicts.  Never holds an empty partition.
    partitions: BTreeMap<u64, Partition>,
    stats: CacheStats,
}

impl VerdictCache {
    /// An empty cache.
    pub fn new() -> VerdictCache {
        VerdictCache::default()
    }

    /// Number of cached verdicts.
    pub fn len(&self) -> usize {
        self.partitions.values().map(|p| p.len()).sum()
    }

    /// Whether the cache holds no verdicts.
    pub fn is_empty(&self) -> bool {
        self.partitions.is_empty()
    }

    /// The activity counters accumulated so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Zeroes the counters and keeps every verdict: the starting state of
    /// a new session, whose statistics count only its own activity.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Looks up a verdict, recording a hit or miss.
    pub fn get(&mut self, key: VerdictKey) -> Option<bool> {
        self.stats.lookups += 1;
        let found = self
            .partitions
            .get(&key.context)
            .and_then(|p| p.get((key.word, key.word2)));
        match found {
            Some(_) => self.stats.hits += 1,
            None => self.stats.misses += 1,
        }
        found
    }

    /// Inserts a verdict.  Existing entries win: the oracle is
    /// deterministic, so a collision can only carry the same value anyway.
    pub fn insert(&mut self, key: VerdictKey, verdict: bool) {
        let partition = self.partitions.entry(key.context).or_default();
        if partition.insert((key.word, key.word2), verdict) {
            self.stats.insertions += 1;
        }
    }

    /// Installs another cache's verdict sets: each of its partitions
    /// replaces this cache's partition of the same context whole, and its
    /// counters are added to this cache's ([`CacheStats::merge`]).  What
    /// an oracle hands back is the partition it started from followed by
    /// its own verdicts, so it supersedes that partition.
    pub fn install(&mut self, other: VerdictCache) {
        // Installed entries are not charged as fresh insertions: the donor
        // already counted them, and its counters are added here.
        self.partitions.extend(other.partitions);
        self.stats.merge(other.stats);
    }

    /// A copy with zeroed counters — the same as `clone()` followed by
    /// [`reset_stats`](VerdictCache::reset_stats).  `perfbench`'s warm
    /// replay calls it.
    pub fn warm_clone(&self) -> VerdictCache {
        let mut clone = self.clone();
        clone.reset_stats();
        clone
    }

    /// Every cached verdict: contexts in ascending order, each in insertion
    /// order.
    pub fn entries(&self) -> impl Iterator<Item = (VerdictKey, bool)> + '_ {
        self.partitions
            .keys()
            .flat_map(move |&context| self.context_entries(context))
    }

    /// The verdicts of one key context in insertion order — the canonical
    /// serialization order (`atlas-store` persists a closure shard's
    /// entries in exactly this order, so a reloaded shard lists its
    /// verdicts as the original did).
    pub fn context_entries(&self, context: u64) -> impl Iterator<Item = (VerdictKey, bool)> + '_ {
        self.partitions
            .get(&context)
            .into_iter()
            .flat_map(|p| p.order.iter())
            .map(move |&((word, word2), verdict)| {
                (
                    VerdictKey {
                        context,
                        word,
                        word2,
                    },
                    verdict,
                )
            })
    }

    /// Synthetic, pairwise-distinct keys for tests and doctests.
    pub fn test_keys(n: usize) -> Vec<VerdictKey> {
        (0..n as u64)
            .map(|i| VerdictKey {
                context: 0x7e57,
                word: i,
                word2: !i,
            })
            .collect()
    }
}

/// One oracle's slice of a [`VerdictCache`]: a copy of the partition of
/// the oracle's own key context, read as a warm base, plus a delta of the
/// verdicts the oracle computes.  A hit on the base is a warm hit.  A cold
/// oracle has no base: it allocates nothing for one and looks up only its
/// delta.
#[derive(Debug)]
pub(crate) struct OracleCache {
    context: u64,
    base: Option<Partition>,
    delta: Partition,
    stats: CacheStats,
}

impl OracleCache {
    /// The slice of `cache` an oracle keyed on `context` reads.
    pub(crate) fn new(cache: &VerdictCache, context: u64) -> OracleCache {
        OracleCache {
            context,
            base: cache.partitions.get(&context).cloned(),
            delta: Partition::default(),
            stats: CacheStats::default(),
        }
    }

    /// Looks up a verdict of this slice's context, recording a hit (warm
    /// when the base answers) or a miss.
    pub(crate) fn get(&mut self, key: VerdictKey) -> Option<bool> {
        debug_assert_eq!(key.context, self.context, "a foreign context");
        self.stats.lookups += 1;
        let word = (key.word, key.word2);
        if let Some(verdict) = self.base.as_ref().and_then(|base| base.get(word)) {
            self.stats.hits += 1;
            self.stats.warm_hits += 1;
            return Some(verdict);
        }
        let found = self.delta.get(word);
        match found {
            Some(_) => self.stats.hits += 1,
            None => self.stats.misses += 1,
        }
        found
    }

    /// Records a verdict the oracle computed after a miss.
    pub(crate) fn insert(&mut self, key: VerdictKey, verdict: bool) {
        debug_assert_eq!(key.context, self.context, "a foreign context");
        if self.delta.insert((key.word, key.word2), verdict) {
            self.stats.insertions += 1;
        }
    }

    pub(crate) fn stats(&self) -> CacheStats {
        self.stats
    }

    /// A cache holding this slice's one partition — the base followed by
    /// the delta — and its counters.
    pub(crate) fn into_cache(self) -> VerdictCache {
        let partition = match self.base {
            None => self.delta,
            Some(mut base) => {
                for (word, verdict) in self.delta.order {
                    base.insert(word, verdict);
                }
                base
            }
        };
        VerdictCache {
            partitions: (!partition.order.is_empty())
                .then_some((self.context, partition))
                .into_iter()
                .collect(),
            stats: self.stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closure_keyed_contexts_differ_only_in_the_context_half() {
        use atlas_ir::builder::ProgramBuilder;
        use atlas_ir::Type;
        let mut pb = ProgramBuilder::new();
        pb.class("Object").build();
        let mut c = pb.class("Box");
        c.library(true);
        c.field("f", Type::object());
        let mut set = c.method("set");
        let this = set.this();
        let ob = set.param("ob", Type::object());
        set.store(this, "f", ob);
        let set_id = set.finish();
        c.build();
        let program = pb.build();
        let interface = atlas_ir::LibraryInterface::from_program(&program);
        let strategy = InitStrategy::Instantiate;
        let limits = ExecLimits::for_unit_tests();

        let fp = library_fingerprint(&program, &interface);
        let library = CacheKeyer::with_fingerprint(&program, &interface, fp, strategy, limits);
        assert_eq!(
            library.context(),
            CacheKeyer::context_of(fp, strategy, limits)
        );

        // A closure-keyed keyer differs only in the context half: word
        // hashes are identical, so re-keying is a pure re-grouping.
        let closure = CacheKeyer::with_fingerprint(&program, &interface, 0x1234, strategy, limits);
        assert_ne!(closure.context(), library.context());
        let word = [ParamSlot::param(set_id, 0), ParamSlot::receiver(set_id)];
        let (a, a2) = library.key(&word).word_hashes();
        let (b, b2) = closure.key(&word).word_hashes();
        assert_eq!((a, a2), (b, b2));
    }

    #[test]
    fn keys_round_trip_through_their_parts() {
        let keys = VerdictCache::test_keys(3);
        for key in keys {
            let (w, w2) = key.word_hashes();
            assert_eq!(VerdictKey::from_parts(key.context(), w, w2), key);
        }
    }

    #[test]
    fn entries_iterate_in_insertion_order() {
        let keys = VerdictCache::test_keys(3);
        let mut cache = VerdictCache::new();
        cache.insert(keys[2], true);
        cache.insert(keys[0], false);
        cache.insert(keys[1], true);
        let listed: Vec<_> = cache.entries().collect();
        assert_eq!(
            listed,
            vec![(keys[2], true), (keys[0], false), (keys[1], true)]
        );
    }

    #[test]
    fn default_cache_keeps_every_entry_and_counts() {
        let keys = VerdictCache::test_keys(4);
        let mut cache = VerdictCache::default();
        assert!(cache.is_empty());
        for (i, &key) in keys.iter().enumerate() {
            cache.insert(key, i % 2 == 0);
        }
        // Re-inserting is a no-op (first wins).
        cache.insert(keys[1], true);
        assert_eq!(cache.len(), 4, "nothing is evicted");
        assert_eq!(cache.get(keys[0]), Some(true));
        assert_eq!(cache.get(keys[1]), Some(false));
        let other = VerdictKey::from_parts(1, 0, 0);
        assert_eq!(cache.get(other), None);
        let stats = cache.stats();
        assert_eq!(stats.insertions, 4);
        assert_eq!(stats.lookups, 3);
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 1);
        assert_eq!((stats.warm_hits, stats.evictions), (0, 0));
        assert_eq!(VerdictCache::new().len(), 0);
    }

    #[test]
    fn install_replaces_partitions_whole_and_sums_stats() {
        let keys = VerdictCache::test_keys(3);
        let foreign = VerdictKey::from_parts(1, 7, 7);
        let mut a = VerdictCache::new();
        a.insert(keys[0], true);
        a.insert(keys[1], false);
        let _ = a.get(keys[0]);

        // Installing replaces the partition of each donor context whole
        // (b's verdicts of that context are gone, its other contexts
        // stay), and the donor's counters are added.
        let mut b = VerdictCache::new();
        b.insert(keys[2], true);
        b.insert(foreign, false);
        let before = b.stats();
        b.install(a.clone());
        let listed: Vec<_> = b.entries().collect();
        assert_eq!(
            listed,
            vec![(foreign, false), (keys[0], true), (keys[1], false)]
        );
        let stats = b.stats();
        assert_eq!(stats.lookups, a.stats().lookups);
        assert_eq!(stats.insertions, before.insertions + a.stats().insertions);

        // A warm copy keeps every verdict and zeroes the counters.
        let warm = a.warm_clone();
        assert_eq!(warm.stats(), CacheStats::default());
        assert_eq!(
            warm.entries().collect::<Vec<_>>(),
            a.entries().collect::<Vec<_>>()
        );
    }

    #[test]
    fn oracle_slices_read_a_shared_base_and_hand_back_base_plus_delta() {
        let keys = VerdictCache::test_keys(3);
        let foreign = VerdictKey::from_parts(1, 7, 7);
        let mut session = VerdictCache::new();
        session.insert(keys[0], true);
        session.insert(foreign, false);

        // Base hits are warm hits; the oracle's own verdicts are not.
        let mut slice = OracleCache::new(&session, 0x7e57);
        assert_eq!(slice.get(keys[0]), Some(true));
        assert_eq!(slice.get(keys[1]), None);
        slice.insert(keys[1], false);
        assert_eq!(slice.get(keys[1]), Some(false));
        let stats = slice.stats();
        assert_eq!((stats.lookups, stats.hits, stats.warm_hits), (3, 2, 1));
        assert_eq!((stats.misses, stats.insertions), (1, 1));

        // The slice hands back its one context, base first; the session
        // cache it read is untouched.
        let run = slice.into_cache();
        let listed: Vec<_> = run.entries().collect();
        assert_eq!(listed, vec![(keys[0], true), (keys[1], false)]);
        assert_eq!(run.stats(), stats);
        assert_eq!(session.context_entries(0x7e57).count(), 1);

        // Installing it back supersedes the partition the slice started
        // from and leaves the other context alone.
        session.install(run);
        assert_eq!(session.context_entries(0x7e57).count(), 2);
        assert_eq!(session.len(), 3);

        // A slice that computed nothing hands back its base, and a cold
        // slice that computed nothing hands back an empty cache.
        let idle = OracleCache::new(&session, 0x7e57).into_cache();
        assert_eq!(
            idle.entries().collect::<Vec<_>>(),
            session.context_entries(0x7e57).collect::<Vec<_>>()
        );
        let cold = OracleCache::new(&session, 2);
        assert!(cold.base.is_none());
        assert!(cold.into_cache().is_empty());
    }

    #[test]
    fn stats_merge_is_a_plain_sum() {
        let a = CacheStats {
            lookups: 10,
            hits: 6,
            warm_hits: 2,
            misses: 4,
            insertions: 4,
            evictions: 1,
        };
        let mut m = CacheStats::default();
        m.merge(a);
        m.merge(a);
        assert_eq!(m.lookups, 20);
        assert_eq!(m.hits, 12);
        assert_eq!(m.warm_hits, 4);
        assert_eq!(m.misses, 8);
        assert_eq!(m.insertions, 8);
        assert_eq!(m.evictions, 2);
        assert!((m.hit_rate() - 0.6).abs() < 1e-9);
        assert!((m.warm_hit_rate() - 0.2).abs() < 1e-9);
    }
}
