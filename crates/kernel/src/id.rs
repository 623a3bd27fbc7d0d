//! Monotone id allocation, and the hasher for maps keyed by ids.
//!
//! Tokens, view ids, activity-record ids and task ids are all allocated from
//! per-domain [`IdGen`]s so that ids are dense, deterministic and never
//! reused within a simulation run.
//!
//! [`IdMap`] is a `HashMap` for keys the program itself issues: ids from
//! an [`IdGen`], arena indices, interned [`Symbol`](crate::Symbol)s, and
//! tuples of them. Its [`IdHasher`] folds each integer with one multiply
//! instead of running SipHash. SipHash's keyed mixing protects a table
//! against keys an adversary chooses; these keys are never outside input,
//! so that protection buys nothing here. Do not key an `IdMap` by text
//! or by anything a client sends.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A monotone id allocator.
///
/// # Examples
///
/// ```
/// use droidsim_kernel::IdGen;
///
/// let mut gen = IdGen::new();
/// assert_eq!(gen.next(), 0);
/// assert_eq!(gen.next(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IdGen {
    next: u64,
}

impl IdGen {
    /// Creates an allocator starting at 0.
    pub const fn new() -> Self {
        IdGen { next: 0 }
    }

    /// Creates an allocator starting at `first`.
    pub const fn starting_at(first: u64) -> Self {
        IdGen { next: first }
    }

    /// Allocates the next id.
    #[allow(clippy::should_implement_trait)] // deliberate: IdGen is not an iterator
    pub fn next(&mut self) -> u64 {
        let id = self.next;
        self.next += 1;
        id
    }

    /// The id that the next call to [`IdGen::next`] will return.
    pub const fn peek(&self) -> u64 {
        self.next
    }

    /// Number of ids allocated so far (when starting at 0).
    pub const fn allocated(&self) -> u64 {
        self.next
    }
}

/// A hasher for program-issued integer keys: each word written folds
/// into the state with one rotate, one xor and one multiply (the
/// `FxHash` scheme). The odd multiplier keeps distinct dense keys
/// distinct in the low bits that pick a bucket, and spreads them into
/// the high bits the table's control bytes use.
///
/// Not collision-resistant: only for keys the program issues (see the
/// module docs). No output may depend on an [`IdMap`]'s iteration order,
/// which follows the key values; symbol values differ between serial and
/// parallel runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher {
    hash: u64,
}

/// The multiplier: 2⁶⁴ divided by the golden ratio, made odd.
const SEED: u64 = 0x9e37_79b9_7f4a_7c15;

impl IdHasher {
    #[inline]
    fn fold(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    /// Bytes fold in 8-byte words; integer keys take the typed writes
    /// below and never come here.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.fold(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.fold(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.fold(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.fold(i as u64);
    }
}

/// A `HashMap` keyed by program-issued integers, hashed by [`IdHasher`].
///
/// # Examples
///
/// ```
/// use droidsim_kernel::id::IdMap;
/// use droidsim_kernel::Symbol;
///
/// let mut index: IdMap<Symbol, u64> = IdMap::default();
/// index.insert(Symbol::intern("title"), 3);
/// assert_eq!(index.get(&Symbol::intern("title")), Some(&3));
/// ```
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// Declares a newtype id with `Display`, `From<u64>` and an inherent
/// constructor — the standard shape for every id in the simulator.
#[macro_export]
macro_rules! define_id {
    ($(#[$meta:meta])* $vis:vis struct $name:ident) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        $vis struct $name(pub u64);

        impl $name {
            /// Creates the id from a raw value.
            pub const fn new(raw: u64) -> Self {
                $name(raw)
            }

            /// The raw id value.
            pub const fn raw(self) -> u64 {
                self.0
            }
        }

        impl From<u64> for $name {
            fn from(raw: u64) -> Self {
                $name(raw)
            }
        }

        impl core::fmt::Display for $name {
            fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
                write!(f, concat!(stringify!($name), "#{}"), self.0)
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    define_id! {
        /// A test id.
        pub struct TestId
    }

    #[test]
    fn ids_are_dense_and_monotone() {
        let mut gen = IdGen::new();
        let ids: Vec<u64> = (0..10).map(|_| gen.next()).collect();
        assert_eq!(ids, (0..10).collect::<Vec<_>>());
        assert_eq!(gen.allocated(), 10);
    }

    #[test]
    fn starting_at_offsets() {
        let mut gen = IdGen::starting_at(100);
        assert_eq!(gen.next(), 100);
        assert_eq!(gen.peek(), 101);
    }

    #[test]
    fn define_id_macro_produces_usable_type() {
        let id = TestId::new(7);
        assert_eq!(id.raw(), 7);
        assert_eq!(TestId::from(7), id);
        assert_eq!(id.to_string(), "TestId#7");
    }

    #[test]
    fn id_hasher_keeps_dense_keys_apart() {
        let build = BuildHasherDefault::<IdHasher>::default();
        let hash = |key: &dyn Fn(&mut IdHasher)| {
            let mut h = build.build_hasher();
            key(&mut h);
            h.finish()
        };
        let hashes: std::collections::HashSet<u64> = (0..4_096u64)
            .map(|i| hash(&|h: &mut IdHasher| TestId::new(i).hash(h)))
            .collect();
        assert_eq!(hashes.len(), 4_096, "distinct ids hash apart");
        // Low bits pick the bucket: dense keys fill a 1,024-bucket table
        // without a collision.
        let buckets: std::collections::HashSet<u64> = (0..1_024u32)
            .map(|i| hash(&|h: &mut IdHasher| h.write_u32(i)) & 1_023)
            .collect();
        assert_eq!(buckets.len(), 1_024);
        // A pair is not its swap, and bytes fold like the words they hold.
        let pair = |a: u32, b: u32| hash(&|h: &mut IdHasher| (a, b).hash(h));
        assert_ne!(pair(1, 2), pair(2, 1));
        assert_eq!(
            hash(&|h: &mut IdHasher| h.write(&7u64.to_le_bytes())),
            hash(&|h: &mut IdHasher| h.write_u64(7))
        );
    }
}
