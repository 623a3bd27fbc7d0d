//! A binder-style flat byte buffer.
//!
//! `Parcel` gives the simulator a byte-accurate flattening of bundles so the
//! memory model can account for saved-state footprints, and so IPC payload
//! sizes can feed the latency model. The format is a simple length-prefixed
//! tag stream; it can be read back, which the tests use to prove the
//! flattening is lossless.

use crate::bundle::{Bundle, Value};

/// A flat byte buffer with Android-Parcel-like typed read/write.
///
/// # Examples
///
/// ```
/// use droidsim_bundle::{Bundle, Parcel};
///
/// let mut b = Bundle::new();
/// b.put_i32("answer", 42);
/// let mut p = Parcel::new();
/// p.write_bundle(&b);
/// let restored = p.into_reader().read_bundle().expect("lossless");
/// assert_eq!(restored.i32("answer"), Some(42));
/// ```
#[derive(Debug, Default)]
pub struct Parcel {
    buf: Vec<u8>,
}

/// A reader over a finished parcel.
#[derive(Debug)]
pub struct ParcelReader {
    buf: Vec<u8>,
    pos: usize,
}

/// Error produced when reading a malformed parcel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParcelError {
    what: &'static str,
}

impl core::fmt::Display for ParcelError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "malformed parcel: {}", self.what)
    }
}

impl std::error::Error for ParcelError {}

const TAG_BOOL: u8 = 1;
const TAG_I32: u8 = 2;
const TAG_I64: u8 = 3;
const TAG_F64: u8 = 4;
const TAG_STR: u8 = 5;
const TAG_BLOB: u8 = 6;
const TAG_I32LIST: u8 = 7;
const TAG_STRLIST: u8 = 8;
const TAG_BUNDLE: u8 = 9;

impl Parcel {
    /// Creates an empty parcel.
    pub fn new() -> Self {
        Parcel::default()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes a `u32` little-endian length prefix.
    fn write_len(&mut self, len: usize) {
        let len = u32::try_from(len).expect("a parcel length fits its u32 prefix");
        self.buf.extend_from_slice(&len.to_le_bytes());
    }

    /// Writes a string (length-prefixed UTF-8).
    pub fn write_str(&mut self, s: &str) {
        self.write_len(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Writes a single value with its type tag.
    pub fn write_value(&mut self, value: &Value) {
        match value {
            Value::Bool(v) => self.buf.extend_from_slice(&[TAG_BOOL, u8::from(*v)]),
            Value::I32(v) => {
                self.buf.push(TAG_I32);
                self.buf.extend_from_slice(&v.to_le_bytes());
            }
            Value::I64(v) => {
                self.buf.push(TAG_I64);
                self.buf.extend_from_slice(&v.to_le_bytes());
            }
            Value::F64(v) => {
                self.buf.push(TAG_F64);
                self.buf.extend_from_slice(&v.to_le_bytes());
            }
            Value::Str(v) => {
                self.buf.push(TAG_STR);
                self.write_str(v);
            }
            Value::Blob(v) => {
                self.buf.push(TAG_BLOB);
                self.write_len(v.len());
                self.buf.extend_from_slice(v);
            }
            Value::I32List(v) => {
                self.buf.push(TAG_I32LIST);
                self.write_len(v.len());
                for item in v {
                    self.buf.extend_from_slice(&item.to_le_bytes());
                }
            }
            Value::StrList(v) => {
                self.buf.push(TAG_STRLIST);
                self.write_len(v.len());
                for item in v {
                    self.write_str(item);
                }
            }
            Value::Nested(v) => {
                self.buf.push(TAG_BUNDLE);
                self.write_bundle(v);
            }
        }
    }

    /// Writes a whole bundle (entry count, then sorted key/value pairs).
    pub fn write_bundle(&mut self, bundle: &Bundle) {
        self.write_len(bundle.len());
        for (key, value) in bundle.iter() {
            self.write_str(key);
            self.write_value(value);
        }
    }

    /// Finishes writing and returns a reader over the bytes.
    pub fn into_reader(self) -> ParcelReader {
        ParcelReader::from_bytes(self.buf)
    }

    /// Finishes writing and returns the raw bytes (binder wire format).
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

impl ParcelReader {
    /// Creates a reader over raw bytes previously produced by
    /// [`Parcel::into_bytes`] (or received "over the wire").
    pub fn from_bytes(bytes: Vec<u8>) -> ParcelReader {
        ParcelReader { buf: bytes, pos: 0 }
    }

    /// Consumes the next `n` bytes, or fails naming `what` was cut short.
    fn take(&mut self, n: usize, what: &'static str) -> Result<&[u8], ParcelError> {
        let rest = &self.buf[self.pos..];
        if rest.len() < n {
            return Err(ParcelError { what });
        }
        self.pos += n;
        Ok(&rest[..n])
    }

    fn take_array<const N: usize>(&mut self, what: &'static str) -> Result<[u8; N], ParcelError> {
        let bytes = self.take(N, what)?;
        Ok(bytes.try_into().expect("take returns N bytes"))
    }

    fn read_len(&mut self, what: &'static str) -> Result<usize, ParcelError> {
        Ok(u32::from_le_bytes(self.take_array(what)?) as usize)
    }

    /// Reads a length-prefixed string.
    pub fn read_str(&mut self) -> Result<String, ParcelError> {
        let len = self.read_len("string length")?;
        let bytes = self.take(len, "string bytes")?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ParcelError { what: "utf-8" })
    }

    /// Reads one tagged value.
    pub fn read_value(&mut self) -> Result<Value, ParcelError> {
        let [tag] = self.take_array("value tag")?;
        Ok(match tag {
            TAG_BOOL => {
                let [v] = self.take_array("bool")?;
                Value::Bool(v != 0)
            }
            TAG_I32 => Value::I32(i32::from_le_bytes(self.take_array("i32")?)),
            TAG_I64 => Value::I64(i64::from_le_bytes(self.take_array("i64")?)),
            TAG_F64 => Value::F64(f64::from_le_bytes(self.take_array("f64")?)),
            TAG_STR => Value::Str(self.read_str()?),
            TAG_BLOB => {
                let len = self.read_len("blob length")?;
                Value::Blob(self.take(len, "blob bytes")?.to_vec())
            }
            TAG_I32LIST => {
                let len = self.read_len("list length")?;
                let items = self.take(len.saturating_mul(4), "list items")?;
                Value::I32List(
                    items
                        .chunks_exact(4)
                        .map(|item| i32::from_le_bytes(item.try_into().expect("4-byte chunk")))
                        .collect(),
                )
            }
            TAG_STRLIST => {
                let len = self.read_len("list length")?;
                let mut items = Vec::with_capacity(len.min(1024));
                for _ in 0..len {
                    items.push(self.read_str()?);
                }
                Value::StrList(items)
            }
            TAG_BUNDLE => Value::Nested(self.read_bundle()?),
            _ => {
                return Err(ParcelError {
                    what: "unknown tag",
                })
            }
        })
    }

    /// Reads a whole bundle.
    pub fn read_bundle(&mut self) -> Result<Bundle, ParcelError> {
        let len = self.read_len("bundle length")?;
        let mut entries = Vec::with_capacity(len.min(1024));
        for _ in 0..len {
            let key = self.read_str()?;
            let value = self.read_value()?;
            entries.push((key, value));
        }
        Ok(entries.into_iter().collect())
    }

    /// Unread bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_bundle() -> Bundle {
        let mut inner = Bundle::new();
        inner.put_i32("selector_pos", 3);
        inner.put("checked", vec![1, 4, 7]);
        let mut b = Bundle::new();
        b.put_bool("alarm_on", true);
        b.put_i64("epoch", 1_234_567_890);
        b.put_f64("brightness", 0.75);
        b.put_string("text", "draft message");
        b.put("blob", vec![0u8, 255, 128]);
        b.put("labels", vec!["a".to_owned(), "b".to_owned()]);
        b.put_bundle("listview", inner);
        b
    }

    #[test]
    fn round_trip_is_lossless() {
        let original = sample_bundle();
        let mut parcel = Parcel::new();
        parcel.write_bundle(&original);
        let mut reader = parcel.into_reader();
        let restored = reader.read_bundle().expect("parcel should parse");
        assert_eq!(restored, original);
        assert_eq!(reader.remaining(), 0);
    }

    #[test]
    fn empty_bundle_round_trips() {
        let mut parcel = Parcel::new();
        parcel.write_bundle(&Bundle::new());
        assert_eq!(parcel.len(), 4);
        let restored = parcel.into_reader().read_bundle().unwrap();
        assert!(restored.is_empty());
    }

    #[test]
    fn every_variant_flattens_to_the_pinned_bytes() {
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
        let mut parcel = Parcel::new();
        parcel.write_bundle(&b);
        let hex: String = parcel
            .into_bytes()
            .iter()
            .map(|byte| format!("{byte:02x}"))
            .collect();
        // Entry count, then per entry: key (u32 length + UTF-8), tag,
        // payload. Scalars are little-endian; strings, blobs and lists
        // carry a u32 length prefix.
        let pinned = [
            "09000000",
            "01000000 61 01 01",
            "01000000 62 02 feffffff",
            "01000000 63 03 0000000000010000",
            "01000000 64 04 000000000000e03f",
            "01000000 65 05 02000000 6869",
            "01000000 66 06 02000000 00ff",
            "01000000 67 07 02000000 01000000 ffffffff",
            "01000000 68 08 02000000 01000000 78 00000000",
            "01000000 69 09 01000000 01000000 6e 02 07000000",
        ]
        .concat()
        .replace(' ', "");
        assert_eq!(hex, pinned);
    }

    #[test]
    fn truncated_parcel_errors() {
        let mut parcel = Parcel::new();
        parcel.write_bundle(&sample_bundle());
        let mut bytes = parcel.into_bytes();
        bytes.truncate(bytes.len() / 2);
        assert!(ParcelReader::from_bytes(bytes).read_bundle().is_err());
    }

    #[test]
    fn unknown_tag_errors() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&1u32.to_le_bytes()); // one entry
        bytes.extend_from_slice(&1u32.to_le_bytes()); // key length
        bytes.push(b'k');
        bytes.push(99); // bogus tag
        let err = ParcelReader::from_bytes(bytes).read_bundle().unwrap_err();
        assert_eq!(err.to_string(), "malformed parcel: unknown tag");
    }
}
