//! The [`Bundle`] container and its [`Value`] variants.

use std::collections::BTreeMap;
use std::sync::Arc;

/// A value stored in a [`Bundle`].
///
/// The variants cover what the simulator's views and app models save:
/// primitives, strings, blobs, lists, and nested bundles (used for the view
/// hierarchy state, keyed by view id).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A boolean.
    Bool(bool),
    /// A 32-bit integer.
    I32(i32),
    /// A 64-bit integer.
    I64(i64),
    /// A double.
    F64(f64),
    /// A string.
    Str(String),
    /// An opaque byte blob (e.g. a serialized drawable reference).
    Blob(Vec<u8>),
    /// A list of integers (e.g. checked item positions).
    I32List(Vec<i32>),
    /// A list of strings.
    StrList(Vec<String>),
    /// A nested bundle.
    Nested(Bundle),
}

macro_rules! value_from {
    ($ty:ty => $variant:ident) => {
        impl From<$ty> for Value {
            fn from(v: $ty) -> Value {
                Value::$variant(v.into())
            }
        }
    };
}

impl Value {
    /// The bytes this value takes in a parcel after its type tag: a scalar
    /// its width, a string, blob or list a 4-byte length and then its items
    /// (each string of a list length-prefixed again), a nested bundle its
    /// [`Bundle::parcel_size`].
    fn payload_size(&self) -> usize {
        match self {
            Value::Bool(_) => 1,
            Value::I32(_) => 4,
            Value::I64(_) | Value::F64(_) => 8,
            Value::Str(s) => 4 + s.len(),
            Value::Blob(bytes) => 4 + bytes.len(),
            Value::I32List(items) => 4 + 4 * items.len(),
            Value::StrList(items) => items.iter().fold(4, |size, s| size + 4 + s.len()),
            Value::Nested(bundle) => bundle.parcel_size(),
        }
    }
}

value_from!(bool => Bool);
value_from!(i32 => I32);
value_from!(i64 => I64);
value_from!(f64 => F64);
value_from!(String => Str);
value_from!(&str => Str);
value_from!(Vec<u8> => Blob);
value_from!(Vec<i32> => I32List);
value_from!(Vec<String> => StrList);
value_from!(Bundle => Nested);

/// A typed key-value store with deterministic (sorted) iteration order.
///
/// The entry map is behind an [`Arc`] with copy-on-write semantics:
/// `Bundle::clone()` is O(1) regardless of payload size, and the storage
/// is only copied when a *shared* bundle is mutated. Hierarchy-state
/// save/restore clones nested per-view bundles on every configuration
/// change, so unchanged subtrees ride along for the price of a refcount.
///
/// # Examples
///
/// ```
/// use droidsim_bundle::{Bundle, Value};
///
/// let mut b = Bundle::new();
/// b.put("progress", 42i32);
/// assert_eq!(b.i32("progress"), Some(42));
/// assert_eq!(b.get("missing"), None);
///
/// let snapshot = b.clone(); // O(1): shares storage
/// assert!(snapshot.shares_storage_with(&b));
/// b.put("progress", 43i32); // copy-on-write detaches `b`
/// assert_eq!(snapshot.i32("progress"), Some(42));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Bundle {
    entries: Arc<BTreeMap<String, Value>>,
}

impl PartialEq for Bundle {
    fn eq(&self, other: &Self) -> bool {
        // Shared storage is equal by construction; only detached copies
        // need the deep compare.
        Arc::ptr_eq(&self.entries, &other.entries) || self.entries == other.entries
    }
}

impl Bundle {
    /// Creates an empty bundle.
    pub fn new() -> Self {
        Bundle::default()
    }

    /// Whether `self` and `other` share the same (copy-on-write) storage.
    /// Diagnostic for the O(1)-clone guarantee; equal bundles may or may
    /// not share.
    pub fn shares_storage_with(&self, other: &Bundle) -> bool {
        Arc::ptr_eq(&self.entries, &other.entries)
    }

    /// Inserts any [`Value`]-convertible item, returning the previous value
    /// stored under the key, if any.
    pub fn put(&mut self, key: &str, value: impl Into<Value>) -> Option<Value> {
        Arc::make_mut(&mut self.entries).insert(key.to_owned(), value.into())
    }

    /// Inserts a boolean.
    pub fn put_bool(&mut self, key: &str, v: bool) {
        self.put(key, v);
    }

    /// Inserts a 32-bit integer.
    pub fn put_i32(&mut self, key: &str, v: i32) {
        self.put(key, v);
    }

    /// Inserts a 64-bit integer.
    pub fn put_i64(&mut self, key: &str, v: i64) {
        self.put(key, v);
    }

    /// Inserts a double.
    pub fn put_f64(&mut self, key: &str, v: f64) {
        self.put(key, v);
    }

    /// Inserts a string.
    pub fn put_string(&mut self, key: &str, v: &str) {
        self.put(key, v);
    }

    /// Inserts a nested bundle.
    pub fn put_bundle(&mut self, key: &str, v: Bundle) {
        self.put(key, v);
    }

    /// Looks up a raw value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.get(key)
    }

    /// Looks up a boolean; `None` if absent or a different type.
    pub fn bool(&self, key: &str) -> Option<bool> {
        match self.get(key) {
            Some(Value::Bool(v)) => Some(*v),
            _ => None,
        }
    }

    /// Looks up a 32-bit integer; `None` if absent or a different type.
    pub fn i32(&self, key: &str) -> Option<i32> {
        match self.get(key) {
            Some(Value::I32(v)) => Some(*v),
            _ => None,
        }
    }

    /// Looks up a 64-bit integer; `None` if absent or a different type.
    pub fn i64(&self, key: &str) -> Option<i64> {
        match self.get(key) {
            Some(Value::I64(v)) => Some(*v),
            _ => None,
        }
    }

    /// Looks up a double; `None` if absent or a different type.
    pub fn f64(&self, key: &str) -> Option<f64> {
        match self.get(key) {
            Some(Value::F64(v)) => Some(*v),
            _ => None,
        }
    }

    /// Looks up a string; `None` if absent or a different type.
    pub fn string(&self, key: &str) -> Option<&str> {
        match self.get(key) {
            Some(Value::Str(v)) => Some(v.as_str()),
            _ => None,
        }
    }

    /// Looks up a nested bundle; `None` if absent or a different type.
    pub fn bundle(&self, key: &str) -> Option<&Bundle> {
        match self.get(key) {
            Some(Value::Nested(v)) => Some(v),
            _ => None,
        }
    }

    /// Removes and returns the value under `key`.
    pub fn remove(&mut self, key: &str) -> Option<Value> {
        if !self.entries.contains_key(key) {
            // Don't detach shared storage for a no-op removal.
            return None;
        }
        Arc::make_mut(&mut self.entries).remove(key)
    }

    /// Whether a key is present.
    pub fn contains_key(&self, key: &str) -> bool {
        self.entries.contains_key(key)
    }

    /// Number of top-level entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the bundle has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates entries in sorted key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Merges `other` into `self`; keys in `other` win.
    pub fn merge(&mut self, other: Bundle) {
        if other.entries.is_empty() {
            return;
        }
        if self.entries.is_empty() {
            // Adopt the other storage wholesale: O(1).
            self.entries = other.entries;
            return;
        }
        let dst = Arc::make_mut(&mut self.entries);
        match Arc::try_unwrap(other.entries) {
            Ok(map) => dst.extend(map),
            Err(shared) => dst.extend(shared.iter().map(|(k, v)| (k.clone(), v.clone()))),
        }
    }

    /// The size in bytes of this bundle flattened into a binder parcel —
    /// used by the memory model to account for the shadow activity's saved
    /// state. A bundle is a 4-byte entry count, then per entry a 4-byte key
    /// length, the UTF-8 key, a 1-byte type tag and the value's payload.
    pub fn parcel_size(&self) -> usize {
        self.iter().fold(4, |size, (key, value)| {
            size + 4 + key.len() + 1 + value.payload_size()
        })
    }
}

impl FromIterator<(String, Value)> for Bundle {
    fn from_iter<T: IntoIterator<Item = (String, Value)>>(iter: T) -> Self {
        Bundle {
            entries: Arc::new(iter.into_iter().collect()),
        }
    }
}

impl<'a> IntoIterator for &'a Bundle {
    type Item = (&'a str, &'a Value);
    type IntoIter = Box<dyn Iterator<Item = (&'a str, &'a Value)> + 'a>;

    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.entries.iter().map(|(k, v)| (k.as_str(), v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_round_trips() {
        let mut b = Bundle::new();
        b.put_bool("b", true);
        b.put_i32("i", -5);
        b.put_i64("l", 1 << 40);
        b.put_f64("f", 2.5);
        b.put_string("s", "hello");
        assert_eq!(b.bool("b"), Some(true));
        assert_eq!(b.i32("i"), Some(-5));
        assert_eq!(b.i64("l"), Some(1 << 40));
        assert_eq!(b.f64("f"), Some(2.5));
        assert_eq!(b.string("s"), Some("hello"));
    }

    #[test]
    fn wrong_type_reads_none() {
        let mut b = Bundle::new();
        b.put_i32("x", 1);
        assert_eq!(b.string("x"), None);
        assert_eq!(b.bool("x"), None);
    }

    #[test]
    fn nesting_round_trips() {
        let mut inner = Bundle::new();
        inner.put_i32("scroll_y", 480);
        let mut outer = Bundle::new();
        outer.put_bundle("view:12", inner.clone());
        assert_eq!(outer.bundle("view:12"), Some(&inner));
    }

    #[test]
    fn put_returns_previous() {
        let mut b = Bundle::new();
        assert_eq!(b.put("k", 1i32), None);
        assert_eq!(b.put("k", 2i32), Some(Value::I32(1)));
    }

    #[test]
    fn merge_prefers_other() {
        let mut a = Bundle::new();
        a.put_i32("k", 1);
        a.put_i32("only_a", 10);
        let mut b = Bundle::new();
        b.put_i32("k", 2);
        a.merge(b);
        assert_eq!(a.i32("k"), Some(2));
        assert_eq!(a.i32("only_a"), Some(10));
    }

    #[test]
    fn iteration_is_sorted() {
        let mut b = Bundle::new();
        b.put_i32("zebra", 1);
        b.put_i32("apple", 2);
        let keys: Vec<&str> = b.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["apple", "zebra"]);
    }

    #[test]
    fn parcel_size_grows_with_content() {
        let mut small = Bundle::new();
        small.put_i32("a", 1);
        let mut big = small.clone();
        big.put_string("text", &"x".repeat(1000));
        assert!(big.parcel_size() > small.parcel_size() + 900);
    }

    #[test]
    fn every_variant_counts_the_pinned_parcel_bytes() {
        assert_eq!(Bundle::new().parcel_size(), 4, "the entry count alone");
        let mut inner = Bundle::new();
        inner.put_i32("n", 7);
        let mut b = Bundle::new();
        b.put_bool("a", true);
        b.put_i32("b", -2);
        b.put_i64("c", 1 << 40);
        b.put_f64("d", 0.5);
        b.put_string("e", "hi");
        b.put("f", vec![0u8, 255]);
        b.put("g", vec![1i32, -1]);
        b.put("h", vec!["x".to_owned(), String::new()]);
        b.put_bundle("i", inner);
        // Entry count, then per entry: a 4-byte key length, a 1-byte key
        // and a 1-byte tag, then the payload — scalars at their width;
        // strings, blobs and lists behind a 4-byte length.
        assert_eq!(
            b.parcel_size(),
            130,
            "4 + 7 + 10 + 14 + 14 + 12 + 12 + 18 + 19 + 20"
        );
    }

    #[test]
    fn clone_is_copy_on_write() {
        let mut original = Bundle::new();
        original.put_string("text", &"y".repeat(4096));
        let snapshot = original.clone();
        assert!(snapshot.shares_storage_with(&original), "clone shares");

        original.put_i32("scroll_y", 9);
        assert!(!snapshot.shares_storage_with(&original), "write detaches");
        assert_eq!(snapshot.len(), 1, "snapshot unaffected by later writes");
        assert_eq!(original.len(), 2);

        // Reads and no-op removals never detach shared storage.
        let reader = original.clone();
        assert_eq!(reader.i32("scroll_y"), Some(9));
        let mut still_shared = original.clone();
        assert_eq!(still_shared.remove("missing"), None);
        assert!(still_shared.shares_storage_with(&original));
    }

    #[test]
    fn merge_into_empty_adopts_storage() {
        let mut src = Bundle::new();
        src.put_i32("k", 7);
        let snapshot = src.clone();
        let mut dst = Bundle::new();
        dst.merge(src);
        assert!(dst.shares_storage_with(&snapshot));
        assert_eq!(dst.i32("k"), Some(7));
    }

    #[test]
    fn empty_bundle_basics() {
        let b = Bundle::new();
        assert!(b.is_empty());
        assert_eq!(b.len(), 0);
        assert!(!b.contains_key("k"));
    }
}
