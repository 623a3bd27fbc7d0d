//! Global interning of resource names.
//!
//! A compiled Android layout never copies a name: tags, attribute keys and
//! values index a string pool, view ids are integers, and every view
//! showing a drawable shares one `ConstantState`. The simulator does the
//! same through this module. It interns each distinct resource name once,
//! for the lifetime of the process, and hands out a [`Symbol`] — a `Copy`
//! `u32` that compares and hashes in one instruction and resolves back to
//! its text in O(1). Layout templates carry their view classes,
//! `android:id`s and attribute keys and values as symbols, drawable
//! resources and views carry their asset names as symbols, and essence
//! mapping and hierarchy-state save/restore key views by their id symbol.
//! Building, cloning, inflating and dropping a view tree therefore
//! allocates no name text.
//!
//! # What may be interned
//!
//! Interned text is never freed, so only *resource names that come from
//! program code* enter the table: layout builders, resource tables, and
//! the fixed asset names an app model sets. Such names form a closed set
//! per app, so the table stays bounded by the code, not by how long a
//! process runs. *User content never does*: displayed or entered text,
//! video URIs and bundle values stay owned `String`s, and probes with
//! arbitrary text go through [`Symbol::lookup`], which never grows the
//! table. `tests/prop_view.rs` pins this for save/restore, lazy
//! migration and hot reload. `droidsimd` jobs name fixed studies, so no
//! client input reaches a layout either.
//!
//! # Sharded, read-mostly layout
//!
//! The table used to be a single `RwLock<Table>`; with 8 fleet workers all
//! resolving symbols on every hierarchy-state save, even the uncontended
//! read lock showed up as cross-core cache-line traffic. The current
//! design splits the *name → index* direction into `SHARD_COUNT` (16) shards
//! keyed by an FNV-1a hash of the name, each behind its own `RwLock`, so
//! two workers interning or probing different names almost never touch the
//! same lock. The *index → text* direction ([`Symbol::as_str`],
//! [`Symbol::hierarchy_key`]) takes **no lock at all**: resolved entries
//! live in an append-only chunked arena of `OnceLock` slots, published
//! before the owning index escapes the interner, so a resolve is two
//! atomic loads and an index computation.
//!
//! Two properties matter for the simulator:
//!
//! * **Stability** — a symbol, once issued, resolves to the same string for
//!   the rest of the process. Interned text is leaked (see above for why
//!   the table stays bounded).
//! * **Determinism** — the *numeric value* of a symbol depends on interning
//!   order, which differs between serial and parallel fleet runs. Symbol
//!   values may serve as opaque hash keys: the view tree's name index,
//!   the peer maps and the inflater's per-call resolutions are
//!   [`IdMap`](crate::id::IdMap)s, whose one-multiply hash is safe
//!   because a symbol is issued by the program, never chosen by a
//!   client. An `IdMap` iterates in key-value order, so no output may
//!   depend on its iteration order any more than on a symbol's value:
//!   no output may sort by a symbol or fold one into a fingerprint;
//!   everything user-visible goes through [`Symbol::as_str`], and ordered
//!   containers order by the text. The `jobs=N ≡ jobs=1` digest gates
//!   catch a violation, because interning order differs between those
//!   runs.
//!
//! # Examples
//!
//! ```
//! use droidsim_kernel::Symbol;
//!
//! let a = Symbol::intern("btnSend");
//! let b = Symbol::intern("btnSend");
//! assert_eq!(a, b);
//! assert_eq!(a.as_str(), "btnSend");
//! assert_eq!(a.hierarchy_key(), "view:btnSend");
//! ```

use std::collections::HashMap;
use std::fmt;
use std::num::NonZeroU32;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{OnceLock, RwLock};

/// An interned resource name (a view class, an `android:id`, a layout
/// attribute key or value, a drawable asset): a `Copy` handle into the
/// process-wide symbol table.
///
/// Equality, ordering, and hashing all operate on the `u32` index, so a
/// `Symbol` key is as cheap as an integer. Use [`Symbol::as_str`] to get
/// the text back and [`Symbol::hierarchy_key`] for the precomputed
/// `view:{name}` bundle key used by hierarchy-state save/restore.
///
/// Index 0 is never issued, so `Option<Symbol>` is four bytes, like the
/// symbol itself: a view's or a layout node's optional id name costs no
/// tag word.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(NonZeroU32);

/// Prefix of every hierarchy-state bundle key ([`Symbol::hierarchy_key`]).
const HIERARCHY_KEY_PREFIX: &str = "view:";

/// Number of name→index shards. A power of two so shard selection is a
/// mask; 16 is comfortably above any worker count the fleet driver runs.
const SHARD_COUNT: usize = 16;

/// Number of geometric arena chunks. Chunk `c` holds `FIRST_CHUNK << c`
/// slots, so 22 chunks cover `64 · (2²² − 1)` ≈ 268M symbols — far beyond
/// the bounded resource-name population of any app corpus.
const CHUNK_COUNT: usize = 22;

/// Capacity of the first arena chunk.
const FIRST_CHUNK: usize = 64;

/// One resolved symbol: the leaked name plus its precomputed
/// `view:{name}` hierarchy-state key, stored together so a resolve never
/// formats or copies.
struct Slot {
    name: &'static str,
    hierarchy_key: &'static str,
}

/// The process-wide interner: sharded name→index maps plus the lock-free
/// index→slot arena. Names are leaked to `&'static str` so resolving a
/// symbol never copies; the table only grows.
struct Interner {
    /// Name → symbol, split by FNV-1a hash of the name.
    shards: [RwLock<HashMap<&'static str, Symbol>>; SHARD_COUNT],
    /// Next unissued symbol index, claimed under a shard write lock.
    /// Starts at 1: index 0 is the niche of `Option<Symbol>`.
    next: AtomicU32,
    /// Append-only chunked slot storage; each chunk materialises on first
    /// use and each slot is written exactly once, before its index
    /// escapes [`Symbol::intern`].
    chunks: [OnceLock<Box<[OnceLock<Slot>]>>; CHUNK_COUNT],
}

fn interner() -> &'static Interner {
    static INTERNER: OnceLock<Interner> = OnceLock::new();
    INTERNER.get_or_init(|| Interner {
        shards: std::array::from_fn(|_| RwLock::new(HashMap::new())),
        next: AtomicU32::new(1),
        chunks: std::array::from_fn(|_| OnceLock::new()),
    })
}

/// FNV-1a over the name bytes, reduced to a shard number. Uses the same
/// constants as the fleet digest so the distribution is already proven on
/// this corpus.
fn shard_of(name: &str) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h as usize) & (SHARD_COUNT - 1)
}

/// Maps a symbol index to its `(chunk, offset)` coordinates in the
/// geometric arena. Chunk `c` starts at index `FIRST_CHUNK · (2ᶜ − 1)`.
fn locate(index: u32) -> (usize, usize) {
    let q = index as usize / FIRST_CHUNK;
    let chunk = (usize::BITS - (q + 1).leading_zeros() - 1) as usize;
    assert!(chunk < CHUNK_COUNT, "symbol table overflow");
    let base = FIRST_CHUNK * ((1usize << chunk) - 1);
    (chunk, index as usize - base)
}

impl Interner {
    /// Publishes `slot` at `index`. Called while holding the owning
    /// shard's write lock, before the index is inserted into the map, so
    /// every index observable through `intern`/`lookup` is resolvable.
    fn publish(&self, index: u32, slot: Slot) {
        let (c, off) = locate(index);
        let chunk = self.chunks[c].get_or_init(|| {
            (0..FIRST_CHUNK << c)
                .map(|_| OnceLock::new())
                .collect::<Vec<_>>()
                .into_boxed_slice()
        });
        assert!(
            chunk[off].set(slot).is_ok(),
            "symbol slot {index} published twice"
        );
    }

    /// Lock-free resolve: two atomic loads (chunk pointer, slot) plus the
    /// coordinate computation.
    fn resolve(&self, index: u32) -> &Slot {
        let (c, off) = locate(index);
        self.chunks[c]
            .get()
            .and_then(|chunk| chunk[off].get())
            .expect("symbol index was never issued")
    }
}

impl Symbol {
    /// Interns `name`, returning the existing symbol if the name was seen
    /// before. Only the shard owning `name`'s hash is locked; interning
    /// distinct names on distinct workers proceeds without contention.
    pub fn intern(name: &str) -> Symbol {
        let it = interner();
        let shard = &it.shards[shard_of(name)];
        if let Some(&sym) = shard.read().unwrap().get(name) {
            return sym;
        }
        let mut map = shard.write().unwrap();
        // Double-checked: another thread may have interned between our
        // read probe and taking the write lock.
        if let Some(&sym) = map.get(name) {
            return sym;
        }
        let idx = it.next.fetch_add(1, Ordering::Relaxed);
        let sym = match NonZeroU32::new(idx) {
            Some(nonzero) if idx != u32::MAX => Symbol(nonzero),
            _ => panic!("symbol table overflow"),
        };
        let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
        let key: &'static str = Box::leak(format!("{HIERARCHY_KEY_PREFIX}{name}").into_boxed_str());
        it.publish(
            idx,
            Slot {
                name: leaked,
                hierarchy_key: key,
            },
        );
        map.insert(leaked, sym);
        sym
    }

    /// Returns the symbol for `name` if it has already been interned,
    /// without growing the table. Useful for probe-style lookups
    /// (`find_by_id_name`) where an unknown name simply means "no match".
    pub fn lookup(name: &str) -> Option<Symbol> {
        interner().shards[shard_of(name)]
            .read()
            .unwrap()
            .get(name)
            .copied()
    }

    /// The interned text. Lock-free: resolves through the append-only
    /// slot arena without touching any shard lock.
    pub fn as_str(self) -> &'static str {
        interner().resolve(self.0.get()).name
    }

    /// The precomputed `view:{name}` key used for hierarchy-state
    /// bundles. Lock-free, like [`Symbol::as_str`].
    pub fn hierarchy_key(self) -> &'static str {
        interner().resolve(self.0.get()).hierarchy_key
    }

    /// The inverse of [`Symbol::hierarchy_key`]: the already-interned
    /// symbol whose `view:{name}` key is `key`. `None` for any other key
    /// or an unknown name; like [`Symbol::lookup`], it never grows the
    /// table.
    pub fn from_hierarchy_key(key: &str) -> Option<Symbol> {
        Symbol::lookup(key.strip_prefix(HIERARCHY_KEY_PREFIX)?)
    }

    /// The raw table index. Only for diagnostics — the value depends on
    /// interning order and must never reach deterministic output.
    pub fn index(self) -> u32 {
        self.0.get()
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Symbol({:?})", self.as_str())
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for Symbol {
    fn from(name: &str) -> Symbol {
        Symbol::intern(name)
    }
}

impl From<&String> for Symbol {
    fn from(name: &String) -> Symbol {
        Symbol::intern(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = Symbol::intern("idempotent-check");
        let b = Symbol::intern("idempotent-check");
        assert_eq!(a, b);
        assert_eq!(a.index(), b.index());
    }

    #[test]
    fn an_optional_symbol_costs_no_tag() {
        assert_eq!(std::mem::size_of::<Option<Symbol>>(), 4);
        assert_ne!(Symbol::intern("niche-check").index(), 0);
    }

    #[test]
    fn round_trips_text() {
        let s = Symbol::intern("btnConfirm");
        assert_eq!(s.as_str(), "btnConfirm");
        assert_eq!(s.to_string(), "btnConfirm");
    }

    #[test]
    fn hierarchy_key_is_prefixed() {
        let s = Symbol::intern("listMessages");
        assert_eq!(s.hierarchy_key(), "view:listMessages");
        assert_eq!(Symbol::from_hierarchy_key(s.hierarchy_key()), Some(s));
        assert_eq!(Symbol::from_hierarchy_key("listMessages"), None);
        assert_eq!(Symbol::from_hierarchy_key("view:never-interned-qq"), None);
    }

    #[test]
    fn lookup_does_not_grow_the_table() {
        assert_eq!(Symbol::lookup("never-interned-name-xyzzy"), None);
        assert_eq!(Symbol::lookup("never-interned-name-xyzzy"), None);
        let s = Symbol::intern("never-interned-name-xyzzy");
        assert_eq!(Symbol::lookup("never-interned-name-xyzzy"), Some(s));
    }

    #[test]
    fn distinct_names_distinct_symbols() {
        assert_ne!(Symbol::intern("alpha"), Symbol::intern("beta"));
    }

    #[test]
    fn locate_covers_chunk_boundaries() {
        // Chunk 0 holds [0, 64), chunk 1 holds [64, 192), chunk 2 holds
        // [192, 448), … each twice the size of the last.
        assert_eq!(locate(0), (0, 0));
        assert_eq!(locate(63), (0, 63));
        assert_eq!(locate(64), (1, 0));
        assert_eq!(locate(191), (1, 127));
        assert_eq!(locate(192), (2, 0));
        assert_eq!(locate(447), (2, 255));
        assert_eq!(locate(448), (3, 0));
        // Every index maps inside its chunk's capacity.
        for i in (0..100_000).step_by(7) {
            let (c, off) = locate(i);
            assert!(off < FIRST_CHUNK << c, "index {i} escaped chunk {c}");
        }
    }

    #[test]
    fn concurrent_interning_agrees() {
        let syms: Vec<Symbol> = std::thread::scope(|scope| {
            (0..8)
                .map(|_| scope.spawn(|| Symbol::intern("racy-name")))
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        assert!(syms.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(syms[0].as_str(), "racy-name");
    }

    #[test]
    fn concurrent_interning_across_shards_round_trips() {
        // Eight workers interning disjoint name sets that land in many
        // different shards; every symbol must resolve to its own text and
        // hierarchy key without any cross-talk between shards.
        let all: Vec<(String, Symbol)> = std::thread::scope(|scope| {
            (0..8u32)
                .map(|w| {
                    scope.spawn(move || {
                        (0..64u32)
                            .map(|i| {
                                let name = format!("shard-storm-{w}-{i}");
                                let sym = Symbol::intern(&name);
                                (name, sym)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        for (name, sym) in &all {
            assert_eq!(sym.as_str(), name);
            assert_eq!(sym.hierarchy_key(), format!("view:{name}"));
            assert_eq!(Symbol::lookup(name), Some(*sym));
        }
        // 512 distinct names → 512 distinct symbols.
        let mut indices: Vec<u32> = all.iter().map(|(_, s)| s.index()).collect();
        indices.sort_unstable();
        indices.dedup();
        assert_eq!(indices.len(), 512);
    }
}
