//! Content-addressed memoization of hot deterministic derivations.
//!
//! A study replays a small set of app shapes (corpus apps × configs ×
//! seeds) many times, and some derivations on its path are *pure
//! functions of their inputs*. This module provides the shared warm-path
//! cache they memoize through: a shard-per-key concurrent map modeled on
//! the [`intern`](crate::intern) layout (fixed shard count, per-shard
//! `RwLock`, `Arc`-shared immutable entries) with generation-tagged
//! invalidation, LRU-ish bounded capacity and a process-wide kill switch.
//!
//! One cache uses it: layout inflation (`inflate`, in `droidsim-view`),
//! on the device path and under the analyzer's shape extraction.
//! Qualifier resolution, essence-mapping plans and app shapes are not
//! cached. Measured one cache at a time, none repaid its key:
//! resolution is a short first-match scan over variants sorted at
//! insert time, cheaper than a probe; a mapping plan was keyed by
//! walking both view trees while a hit still installed every peer
//! pointer, so it saved little of the cold build; and an app shape is
//! extracted once per corpus pass, so its cache never hit. A cache
//! earns its place only when a hit skips more work than the key, the
//! probe and the publish clone cost together.
//!
//! # Content addressing
//!
//! Keys are digests of the *inputs* (template digest, table fingerprint,
//! configuration hash), never identities, so two tasks —
//! or two daemon jobs hours apart — that derive from equal content share
//! one entry, and any mutation changes the key rather than stalely
//! hitting. Values are immutable once published and shared via `Arc`; a
//! consumer that needs to mutate (an activity instantiating a cached
//! template) clones the Arc'd value, which is cheaper than re-deriving
//! it.
//!
//! # Key material and shards
//!
//! [`FnvHasher`] folds a word at a time, `h = (h ^ w) · FNV_PRIME`: every
//! integer write (a symbol index, a length, an enum discriminant) is one
//! word, and byte slices fold in 8-byte chunks, so keying a template
//! costs one multiply per field instead of one per byte. The values are
//! in-process keys only and never reach output (see the `intern`
//! determinism rule). Because a multiply carries only upward, the low
//! bits of such a fold depend only on the low bits of its words, so a
//! cache picks a key's shard from the *top* four bits of
//! `stable_hash(key) · 0x9E37_79B9_7F4A_7C15` (Fibonacci hashing), which
//! spreads keys whose words share their low nibbles.
//!
//! # Determinism contract
//!
//! A cache hit must be bit-identical to the cold derivation — that is the
//! `memo ≡ cold` invariant the fleet determinism suite asserts (per-device
//! logcat and metrics digests equal with the cache on and off, at any job
//! count). Hit/miss/eviction counts, by contrast, depend on scheduling and
//! are telemetry: they surface through [`snapshot_all`] into the
//! fingerprint-*excluded* part of the metrics ledgers, like wall-clock
//! histograms and allocation events.
//!
//! # Admission (touch-counted)
//!
//! Caching a value costs one deep clone (the cache keeps an immutable
//! copy). On workloads where every shape is unique that clone would be
//! pure overhead, so a key is only *admitted* once it has missed
//! [`admission_touches`](MemoCache::with_admission_touches) times
//! (default two): earlier sightings record a tombstone and the caller
//! runs the cold path; the admitting miss builds and publishes the
//! value. Unique-shape workloads therefore pay only the key digest,
//! never the clone. Callers whose probe pattern arrives in bursts tune
//! the threshold to the burst size — the inflater uses three, because
//! one activity creation inflates the same template twice (shadow and
//! sunny instance) and a single creation is not evidence of reuse.
//!
//! # Kill switch
//!
//! [`set_enabled`]`(false)` (the `--no-memo` flag on every harness) or the
//! `DROIDSIM_NO_MEMO` environment variable bypasses every cache: probes
//! return [`Admission::Skip`] without touching a shard. Because hits are
//! bit-identical to cold derivations, flipping the switch concurrently
//! with running fleets is safe — it only changes *where* results come
//! from, never what they are.
//!
//! # Examples
//!
//! ```
//! use droidsim_kernel::memo::{Admission, MemoCache};
//! use std::sync::Arc;
//!
//! static CACHE: std::sync::OnceLock<MemoCache<u64, String>> = std::sync::OnceLock::new();
//! let cache = CACHE.get_or_init(|| MemoCache::new("doc", 64, |s: &String| s.len() as u64));
//!
//! let derive = || "expensive".to_string();
//! // First sighting: cold path, tombstone recorded.
//! assert!(matches!(cache.probe(7), Admission::Skip));
//! // Second miss: caller builds and publishes.
//! assert!(matches!(cache.probe(7), Admission::Build));
//! cache.publish(7, derive());
//! // Warm from here on.
//! match cache.probe(7) {
//!     Admission::Hit(v) => assert_eq!(*v, "expensive"),
//!     _ => unreachable!("published entries hit"),
//! }
//! ```

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

/// FNV-1a offset basis — the same constants as the fleet digest and the
/// interner's shard selector, so distribution is already proven on this
/// corpus.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Number of shards per cache. A power of two so shard selection is a
/// mask; 16 is comfortably above any worker count the fleet driver runs.
const SHARD_COUNT: usize = 16;

/// An FNV-1a [`Hasher`] for content digests of `Hash` types (e.g. a
/// `Configuration`, whose fields are all integral). Process-deterministic
/// and allocation-free; used to build content-addressed cache keys.
#[derive(Debug, Clone)]
pub struct FnvHasher(u64);

impl FnvHasher {
    /// A hasher seeded with the FNV offset basis.
    pub fn new() -> Self {
        FnvHasher(FNV_OFFSET)
    }
}

impl Default for FnvHasher {
    fn default() -> Self {
        FnvHasher::new()
    }
}

impl FnvHasher {
    /// One fold step: the whole word in one multiply.
    #[inline]
    fn fold(&mut self, word: u64) {
        self.0 = fold_u64(self.0, word);
    }
}

/// Integer writes fold their value as one word, so a derived `Hash` over
/// symbols, ids, lengths and enum discriminants costs one multiply per
/// field instead of one per byte. Signed values fold sign-extended.
macro_rules! fold_words {
    ($($method:ident: $ty:ty),* $(,)?) => {
        $(
            #[inline]
            fn $method(&mut self, value: $ty) {
                self.fold(value as u64);
            }
        )*
    };
}

impl Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Fold 8 bytes per multiply instead of the textbook 1: key
        // digests sit on the warm path of every memoized call, and the
        // byte-at-a-time loop was nearly half the cost of a cache hit
        // on a 145-node template. Only in-process stability matters, so
        // the wider folds are free to diverge from canonical FNV-1a.
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.fold(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        for &b in chunks.remainder() {
            self.fold(u64::from(b));
        }
    }

    fold_words! {
        write_u8: u8,
        write_u16: u16,
        write_u32: u32,
        write_u64: u64,
        write_usize: usize,
        write_i8: i8,
        write_i16: i16,
        write_i32: i32,
        write_i64: i64,
        write_isize: isize,
    }
}

/// FNV-1a digest of any `Hash` value. Stable within a process (which is
/// all a memo key needs); not a cross-process fingerprint.
pub fn stable_hash<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut h = FnvHasher::new();
    value.hash(&mut h);
    h.finish()
}

/// Folds one `u64` word into an FNV accumulator in one step,
/// `(acc ^ word) · FNV_PRIME`. Convenience for hand-rolled digest walks
/// (a resource table's fingerprint).
#[inline]
pub fn fold_u64(acc: u64, word: u64) -> u64 {
    (acc ^ word).wrapping_mul(FNV_PRIME)
}

fn enabled_flag() -> &'static AtomicBool {
    static ENABLED: OnceLock<AtomicBool> = OnceLock::new();
    ENABLED.get_or_init(|| AtomicBool::new(std::env::var_os("DROIDSIM_NO_MEMO").is_none()))
}

/// Whether the warm-path caches are live. Defaults to `true` unless the
/// `DROIDSIM_NO_MEMO` environment variable is set.
pub fn enabled() -> bool {
    enabled_flag().load(Ordering::Relaxed)
}

/// Turns every memo cache on or off process-wide (the `--no-memo` kill
/// switch). Safe to flip at any time: hits are bit-identical to cold
/// derivations, so concurrent fleets observe no behavioural difference.
pub fn set_enabled(on: bool) {
    enabled_flag().store(on, Ordering::Relaxed);
}

/// One cache's counters at a point in time. Telemetry only: every field
/// is scheduling-dependent and must stay out of deterministic
/// fingerprints, like wall-clock histograms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoSnapshot {
    /// Cache name (stable, e.g. `inflate`).
    pub name: &'static str,
    /// Probes answered from a published entry.
    pub hits: u64,
    /// Probes that fell through to the cold path (tombstone or absent).
    pub misses: u64,
    /// Entries dropped by capacity pressure, reclaim passes or
    /// generation purges.
    pub evictions: u64,
    /// Published (value-bearing) entries currently resident.
    pub entries: u64,
    /// Approximate bytes held by resident published entries.
    pub bytes: u64,
}

/// What a [`MemoCache::probe`] tells the caller to do.
pub enum Admission<V> {
    /// Warm: use this shared value (clone out of the `Arc` if ownership
    /// is needed).
    Hit(Arc<V>),
    /// The key earned admission (second miss): run the cold path, then
    /// [`MemoCache::publish`] the result for future hits.
    Build,
    /// Cold and not (yet) worth caching: run the cold path and move on.
    Skip,
}

/// One shard entry: a tombstone (key seen, not yet admitted) or a
/// published value.
enum Entry<V> {
    /// Sighting marker for touch-counted admission: `seen` counts the
    /// misses recorded so far (mutated under the shard write lock).
    Seen {
        generation: u64,
        touched: AtomicU64,
        seen: u64,
    },
    /// A published, immutable, shared value.
    Full {
        value: Arc<V>,
        generation: u64,
        touched: AtomicU64,
        bytes: u64,
    },
}

impl<V> Entry<V> {
    fn generation(&self) -> u64 {
        match self {
            Entry::Seen { generation, .. } | Entry::Full { generation, .. } => *generation,
        }
    }

    fn touched(&self) -> &AtomicU64 {
        match self {
            Entry::Seen { touched, .. } | Entry::Full { touched, .. } => touched,
        }
    }

    fn is_full(&self) -> bool {
        matches!(self, Entry::Full { .. })
    }
}

/// A shard-per-key concurrent memo table: fixed shard count, per-shard
/// `RwLock`, `Arc`-shared immutable values, generation-tagged
/// invalidation, touch-counted admission and LRU-ish bounded capacity.
///
/// See the [module docs](self) for the design and the determinism
/// contract.
pub struct MemoCache<K, V> {
    name: &'static str,
    shards: [RwLock<HashMap<K, Entry<V>>>; SHARD_COUNT],
    /// Maximum entries per shard (tombstones included).
    shard_capacity: usize,
    /// Misses a key must accumulate before a probe answers `Build`.
    admission_touches: u64,
    /// Approximate byte weight of one value, charged at publish time.
    weigh: fn(&V) -> u64,
    /// Current generation; entries tagged with an older generation are
    /// invisible and purged lazily.
    generation: AtomicU64,
    /// Monotone stamp source for LRU-ish eviction.
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl<K: Hash + Eq + Clone, V> MemoCache<K, V> {
    /// Creates a cache holding at most `capacity` entries (rounded up to
    /// a multiple of the shard count, minimum one per shard), weighing
    /// published values with `weigh` for the byte gauge.
    pub fn new(name: &'static str, capacity: usize, weigh: fn(&V) -> u64) -> Self {
        MemoCache {
            name,
            shards: std::array::from_fn(|_| RwLock::new(HashMap::new())),
            shard_capacity: capacity.div_ceil(SHARD_COUNT).max(1),
            admission_touches: 2,
            weigh,
            generation: AtomicU64::new(0),
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Sets how many misses a key must accumulate before a probe answers
    /// [`Admission::Build`] (default 2). Callers whose workload probes
    /// every key in fixed-size bursts set this to one more than the
    /// burst size, so a single burst is never mistaken for reuse.
    #[must_use]
    pub fn with_admission_touches(mut self, touches: u64) -> Self {
        self.admission_touches = touches.max(1);
        self
    }

    /// The cache's stable name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The shard from the top bits of the key's Fibonacci-scrambled
    /// digest. A multiply carries only upward, so the low bits of an FNV
    /// fold depend only on the low bits of the words folded in; ids and
    /// symbol indices that share a low nibble would crowd one shard.
    fn shard_of(&self, key: &K) -> usize {
        let mixed = stable_hash(key).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (mixed >> (u64::BITS - SHARD_COUNT.trailing_zeros())) as usize
    }

    fn stamp(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Probes the cache. Returns [`Admission::Hit`] with the shared value,
    /// [`Admission::Build`] when the caller should derive and
    /// [`MemoCache::publish`], or [`Admission::Skip`] when the cold path
    /// should run without caching (first sighting, or caches disabled).
    pub fn probe(&self, key: K) -> Admission<V> {
        if !enabled() {
            return Admission::Skip;
        }
        let generation = self.generation.load(Ordering::Relaxed);
        let shard = &self.shards[self.shard_of(&key)];
        if let Some(entry) = shard.read().unwrap().get(&key) {
            if entry.generation() == generation {
                if let Entry::Full { value, touched, .. } = entry {
                    touched.store(self.stamp(), Ordering::Relaxed);
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Admission::Hit(Arc::clone(value));
                }
                // Tombstone: fall through to the write path to admit.
            }
        }
        let mut map = shard.write().unwrap();
        self.misses.fetch_add(1, Ordering::Relaxed);
        let stamp = self.stamp();
        match map.get_mut(&key) {
            // Double-checked: another worker may have published between
            // our read probe and taking the write lock.
            Some(Entry::Full {
                value,
                generation: g,
                touched,
                ..
            }) if *g == generation => {
                touched.store(stamp, Ordering::Relaxed);
                // Recorded as a miss above: this probe did not avoid the
                // race, and hit-counts are telemetry, not semantics.
                return Admission::Hit(Arc::clone(value));
            }
            Some(Entry::Seen {
                generation: g,
                touched,
                seen,
            }) if *g == generation => {
                touched.store(stamp, Ordering::Relaxed);
                *seen += 1;
                return if *seen >= self.admission_touches {
                    Admission::Build
                } else {
                    Admission::Skip
                };
            }
            // A stale-generation entry: overwrite in place — the key
            // already owns a slot, so no room needs to be made.
            Some(entry) => {
                *entry = Entry::Seen {
                    generation,
                    touched: AtomicU64::new(stamp),
                    seen: 1,
                };
                return if self.admission_touches <= 1 {
                    Admission::Build
                } else {
                    Admission::Skip
                };
            }
            None => {}
        }
        Self::make_room(&mut map, self.shard_capacity, generation, &self.evictions);
        map.insert(
            key,
            Entry::Seen {
                generation,
                touched: AtomicU64::new(stamp),
                seen: 1,
            },
        );
        if self.admission_touches <= 1 {
            Admission::Build
        } else {
            Admission::Skip
        }
    }

    /// Publishes a derived value for `key`. Normally follows an
    /// [`Admission::Build`]; publishing without one is allowed (tests,
    /// pre-warming) and admits the key immediately.
    pub fn publish(&self, key: K, value: V) {
        if !enabled() {
            return;
        }
        let generation = self.generation.load(Ordering::Relaxed);
        let bytes = (self.weigh)(&value);
        let mut map = self.shards[self.shard_of(&key)].write().unwrap();
        // The usual publish follows an admitting probe, so the key
        // already owns a slot (its tombstone) — only a publish for a
        // brand-new key has to make room.
        if !map.contains_key(&key) {
            Self::make_room(&mut map, self.shard_capacity, generation, &self.evictions);
        }
        map.insert(
            key,
            Entry::Full {
                value: Arc::new(value),
                generation,
                touched: AtomicU64::new(self.stamp()),
                bytes,
            },
        );
    }

    /// Drops stale-generation entries, then — if the shard is still at
    /// capacity — the least-recently-touched entry. Called under the
    /// shard write lock before any insert.
    fn make_room(
        map: &mut HashMap<K, Entry<V>>,
        capacity: usize,
        generation: u64,
        evictions: &AtomicU64,
    ) {
        if map.len() < capacity {
            return;
        }
        let before = map.len();
        map.retain(|_, e| e.generation() == generation);
        evictions.fetch_add((before - map.len()) as u64, Ordering::Relaxed);
        while map.len() >= capacity {
            let Some(oldest) = map
                .iter()
                .min_by_key(|(_, e)| e.touched().load(Ordering::Relaxed))
                .map(|(k, _)| k.clone())
            else {
                return;
            };
            map.remove(&oldest);
            evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Bumps the generation: every resident entry becomes invisible at
    /// once and is purged lazily as inserts and reclaims touch its shard.
    pub fn invalidate(&self) {
        self.generation.fetch_add(1, Ordering::Relaxed);
    }

    /// One reclaim pass: drops stale-generation entries everywhere plus
    /// the least-recently-touched half of each shard's survivors.
    /// Returns how many entries were dropped. Results are never affected
    /// — only warmth is.
    pub fn reclaim(&self) -> u64 {
        let generation = self.generation.load(Ordering::Relaxed);
        let mut dropped = 0u64;
        for shard in &self.shards {
            let mut map = shard.write().unwrap();
            let before = map.len();
            map.retain(|_, e| e.generation() == generation);
            if !map.is_empty() {
                let mut stamps: Vec<u64> = map
                    .values()
                    .map(|e| e.touched().load(Ordering::Relaxed))
                    .collect();
                stamps.sort_unstable();
                let cutoff = stamps[stamps.len() / 2];
                map.retain(|_, e| e.touched().load(Ordering::Relaxed) > cutoff);
            }
            dropped += (before - map.len()) as u64;
        }
        self.evictions.fetch_add(dropped, Ordering::Relaxed);
        dropped
    }

    /// Drops every entry and resets nothing else (counters keep
    /// accumulating).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.write().unwrap().clear();
        }
    }

    /// Resident published (value-bearing) entries.
    pub fn len(&self) -> usize {
        let generation = self.generation.load(Ordering::Relaxed);
        self.shards
            .iter()
            .map(|s| {
                s.read()
                    .unwrap()
                    .values()
                    .filter(|e| e.is_full() && e.generation() == generation)
                    .count()
            })
            .sum()
    }

    /// Whether no published entries are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Point-in-time counters (telemetry; fingerprint-excluded).
    pub fn snapshot(&self) -> MemoSnapshot {
        let generation = self.generation.load(Ordering::Relaxed);
        let mut entries = 0u64;
        let mut bytes = 0u64;
        for shard in &self.shards {
            for entry in shard.read().unwrap().values() {
                if let Entry::Full { bytes: b, .. } = entry {
                    if entry.generation() == generation {
                        entries += 1;
                        bytes += *b;
                    }
                }
            }
        }
        MemoSnapshot {
            name: self.name,
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries,
            bytes,
        }
    }
}

/// Control surface a registered cache exposes to the process-wide
/// registry, type-erased over key/value.
pub trait MemoControl: Send + Sync {
    /// Point-in-time counters.
    fn control_snapshot(&self) -> MemoSnapshot;
    /// One reclaim pass; returns entries dropped.
    fn control_reclaim(&self) -> u64;
    /// Generation bump.
    fn control_invalidate(&self);
}

impl<K: Hash + Eq + Clone + Send + Sync, V: Send + Sync> MemoControl for MemoCache<K, V> {
    fn control_snapshot(&self) -> MemoSnapshot {
        self.snapshot()
    }

    fn control_reclaim(&self) -> u64 {
        self.reclaim()
    }

    fn control_invalidate(&self) {
        self.invalidate();
    }
}

fn registry() -> &'static Mutex<Vec<&'static dyn MemoControl>> {
    static REGISTRY: OnceLock<Mutex<Vec<&'static dyn MemoControl>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

/// Registers a process-lifetime cache with the global registry so
/// [`snapshot_all`] / [`reclaim_all`] / [`invalidate_all`] reach it.
/// Idempotent per pointer.
pub fn register(cache: &'static dyn MemoControl) {
    let mut list = registry().lock().unwrap();
    if !list
        .iter()
        .any(|c| std::ptr::eq(*c as *const _ as *const (), cache as *const _ as *const ()))
    {
        list.push(cache);
    }
}

/// Counters for every registered cache, sorted by name for stable
/// rendering. Telemetry only — fingerprint-excluded.
pub fn snapshot_all() -> Vec<MemoSnapshot> {
    let mut out: Vec<MemoSnapshot> = registry()
        .lock()
        .unwrap()
        .iter()
        .map(|c| c.control_snapshot())
        .collect();
    out.sort_by_key(|s| s.name);
    out
}

/// One reclaim pass over every registered cache (the daemon's
/// memory-pressure hook). Returns total entries dropped. Never changes
/// results — a post-reclaim probe just misses and re-derives.
pub fn reclaim_all() -> u64 {
    registry()
        .lock()
        .unwrap()
        .iter()
        .map(|c| c.control_reclaim())
        .sum()
}

/// Bumps every registered cache's generation, making all resident
/// entries invisible at once (purged lazily).
pub fn invalidate_all() {
    for c in registry().lock().unwrap().iter() {
        c.control_invalidate();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // `&String`, not `&str`: the signature must match the cache's
    // `fn(&V) -> u64` weigher type with `V = String`.
    #[allow(clippy::ptr_arg)]
    fn weigh(s: &String) -> u64 {
        s.len() as u64
    }

    #[test]
    fn two_touch_admission_then_hits() {
        let c: MemoCache<u64, String> = MemoCache::new("t-admit", 64, weigh);
        assert!(matches!(c.probe(1), Admission::Skip), "first sighting");
        assert!(matches!(c.probe(1), Admission::Build), "second miss admits");
        c.publish(1, "value".to_owned());
        match c.probe(1) {
            Admission::Hit(v) => assert_eq!(*v, "value"),
            _ => panic!("published entry must hit"),
        }
        let snap = c.snapshot();
        assert_eq!(snap.hits, 1);
        assert_eq!(snap.misses, 2);
        assert_eq!(snap.entries, 1);
        assert_eq!(snap.bytes, 5);
    }

    #[test]
    fn generation_bump_invalidates_everything() {
        let c: MemoCache<u64, String> = MemoCache::new("t-gen", 64, weigh);
        c.probe(9);
        c.publish(9, "old".to_owned());
        assert!(matches!(c.probe(9), Admission::Hit(_)));
        c.invalidate();
        assert!(
            matches!(c.probe(9), Admission::Skip),
            "stale generation is a first sighting again"
        );
        assert_eq!(c.len(), 0, "stale entries are not counted as resident");
    }

    #[test]
    fn capacity_evicts_least_recently_touched() {
        // Capacity 16 → one entry per shard: any second key landing in a
        // used shard evicts the older one.
        let c: MemoCache<u64, String> = MemoCache::new("t-cap", 16, weigh);
        for k in 0..64u64 {
            c.probe(k);
            c.publish(k, format!("v{k}"));
        }
        assert!(c.len() <= 16, "bounded by capacity");
        assert!(c.snapshot().evictions > 0, "evictions happened");
    }

    #[test]
    fn keys_sharing_low_nibbles_spread_over_shards() {
        // Capacity 64 → four entries per shard. Every key's words share
        // a zero low nibble; a shard picked from the fold's low bits
        // would put all 64 in one shard and keep only four.
        let pairs: MemoCache<(u64, u64), String> = MemoCache::new("t-spread-pair", 64, weigh);
        let words: MemoCache<u64, String> = MemoCache::new("t-spread-word", 64, weigh);
        for i in 0..64u64 {
            pairs.publish((i << 4, 0), format!("v{i}"));
            words.publish(i << 4, format!("v{i}"));
        }
        assert!(pairs.len() >= 32, "pair keys resident: {}", pairs.len());
        assert!(words.len() >= 32, "word keys resident: {}", words.len());
    }

    #[test]
    fn integer_writes_fold_one_word() {
        let mut h = FnvHasher::new();
        h.write_u32(7);
        assert_eq!(h.finish(), fold_u64(FNV_OFFSET, 7));
        assert_eq!(stable_hash(&7u8), fold_u64(FNV_OFFSET, 7));
        assert_eq!(stable_hash(&-1i32), fold_u64(FNV_OFFSET, u64::MAX));
    }

    #[test]
    fn reclaim_halves_and_never_breaks_probes() {
        let c: MemoCache<u64, String> = MemoCache::new("t-reclaim", 256, weigh);
        for k in 0..32u64 {
            c.probe(k);
            c.publish(k, format!("v{k}"));
        }
        let before = c.len();
        let dropped = c.reclaim();
        assert!(dropped > 0);
        assert!(c.len() < before);
        // A dropped key simply re-enters through admission.
        for k in 0..32u64 {
            match c.probe(k) {
                Admission::Hit(v) => assert_eq!(*v, format!("v{k}")),
                Admission::Build => c.publish(k, format!("v{k}")),
                Admission::Skip => {}
            }
        }
    }

    #[test]
    fn disabled_cache_skips_everything() {
        let c: MemoCache<u64, String> = MemoCache::new("t-off", 64, weigh);
        // The global flag is shared; restore it no matter what.
        let was = enabled();
        set_enabled(false);
        assert!(matches!(c.probe(5), Admission::Skip));
        c.publish(5, "ignored".to_owned());
        assert!(matches!(c.probe(5), Admission::Skip));
        set_enabled(true);
        assert!(matches!(c.probe(5), Admission::Skip), "nothing was stored");
        set_enabled(was);
    }

    #[test]
    fn concurrent_probes_agree() {
        let c: std::sync::Arc<MemoCache<u64, String>> =
            std::sync::Arc::new(MemoCache::new("t-race", 64, weigh));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let c = std::sync::Arc::clone(&c);
                scope.spawn(move || {
                    for _ in 0..100 {
                        match c.probe(42) {
                            Admission::Hit(v) => assert_eq!(*v, "shared"),
                            Admission::Build => c.publish(42, "shared".to_owned()),
                            Admission::Skip => {}
                        }
                    }
                });
            }
        });
        match c.probe(42) {
            Admission::Hit(v) => assert_eq!(*v, "shared"),
            _ => panic!("someone must have published"),
        }
    }

    #[test]
    fn stable_hash_is_deterministic_and_input_sensitive() {
        assert_eq!(stable_hash(&(1u64, 2u64)), stable_hash(&(1u64, 2u64)));
        assert_ne!(stable_hash(&(1u64, 2u64)), stable_hash(&(2u64, 1u64)));
        assert_ne!(stable_hash("a"), stable_hash("b"));
    }

    #[test]
    fn fold_u64_mixes() {
        let a = fold_u64(FNV_OFFSET, 1);
        let b = fold_u64(FNV_OFFSET, 2);
        assert_ne!(a, b);
        assert_eq!(fold_u64(a, 7), fold_u64(a, 7));
        assert_ne!(fold_u64(a, 7), fold_u64(b, 7));
    }
}
