//! Crash-safe append-only journals: the `key=value` line codec and the
//! one log every journal in the workspace is written through.
//!
//! The fleet checkpoints finished tasks and the daemon journals accepted
//! jobs, so an interrupted study or a killed daemon resumes instead of
//! recomputing. A journal is a header line naming what the file belongs
//! to, then one record per line: space-separated `key=value` fields,
//! values percent-escaped so keys, separators and newlines can never be
//! forged by a value (a panic payload, an app name with spaces, …).
//! Each caller supplies only a [`Schema`] — what its header says and
//! what its records mean. [`Log`] owns the file.
//!
//! # Crash rules
//!
//! A crash can cut the file at any byte, and a full disk can refuse or
//! tear any append. These rules decide what that may cost; no other
//! module restates them.
//!
//! * A record counts only if it ends in `\n`, decodes, and the schema's
//!   [`Schema::apply`] accepts it. The first record that fails ends the
//!   replay: it and everything after it are the torn tail.
//! * [`Log::open`] truncates the file to the valid prefix before any
//!   append, so a new record never lands after — or merges into — a
//!   torn one. A crash therefore costs at most the records it tore.
//! * A file that is empty, or whose first line has no newline anywhere,
//!   never completed its header and so holds no record: it restarts
//!   with a fresh header. A complete header that the schema rejects (a
//!   foreign journal, another run's, another version) is an error, and
//!   nothing is written.
//! * Every append is one write followed by one `sync_data`. A failed
//!   write or sync marks the tail dirty: the bytes past the last synced
//!   length are untrusted, and the next append first rolls the file
//!   back to that length. A failed append costs only its own record.
//!
//! A [`FaultHook`] lets tests and chaos runs forge those failures
//! deterministically; `()` is the no-op hook.
//!
//! # Examples
//!
//! ```
//! use droidsim_kernel::journal;
//!
//! let line = journal::encode_line(&[("index", "3"), ("payload", "boom at x=1")]);
//! let fields = journal::decode_line(&line).unwrap();
//! assert_eq!(journal::field(&fields, "index"), Some("3"));
//! assert_eq!(journal::field(&fields, "payload"), Some("boom at x=1"));
//! ```

use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, Write};
use std::path::Path;

/// Escapes a value so it contains no spaces, `=`, `%` or line breaks.
pub fn escape(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '%' => out.push_str("%25"),
            ' ' => out.push_str("%20"),
            '=' => out.push_str("%3d"),
            '\n' => out.push_str("%0a"),
            '\r' => out.push_str("%0d"),
            _ => out.push(c),
        }
    }
    out
}

/// Reverses [`escape`]. Unknown or truncated `%` sequences are kept
/// verbatim rather than rejected — a journal line is either parseable
/// or discarded wholesale, never a hard error.
pub fn unescape(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    let bytes = value.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' && i + 3 <= bytes.len() && value.is_char_boundary(i + 3) {
            match &value[i + 1..i + 3] {
                "25" => out.push('%'),
                "20" => out.push(' '),
                "3d" => out.push('='),
                "0a" => out.push('\n'),
                "0d" => out.push('\r'),
                _ => {
                    out.push('%');
                    i += 1;
                    continue;
                }
            }
            i += 3;
        } else {
            // Multi-byte UTF-8 sequences pass through untouched.
            let c = value[i..].chars().next().unwrap();
            out.push(c);
            i += c.len_utf8();
        }
    }
    out
}

/// Encodes one record as a `key=value key=value` line (no trailing
/// newline). Keys must be plain identifiers; values are escaped.
pub fn encode_line<V: AsRef<str>>(fields: &[(&str, V)]) -> String {
    fields
        .iter()
        .map(|(k, v)| format!("{k}={}", escape(v.as_ref())))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Decodes one line back into `(key, value)` pairs. Returns `None` for
/// a malformed line (no fields, or a field without `=`) — the caller
/// treats it as a truncated tail and stops reading.
pub fn decode_line(line: &str) -> Option<Vec<(String, String)>> {
    let line = line.trim_end_matches(['\n', '\r']);
    if line.is_empty() {
        return None;
    }
    let mut fields = Vec::new();
    for part in line.split(' ') {
        let (k, v) = part.split_once('=')?;
        if k.is_empty() {
            return None;
        }
        fields.push((k.to_owned(), unescape(v)));
    }
    Some(fields)
}

/// Looks up the first occurrence of `key` in decoded fields.
pub fn field<'a>(fields: &'a [(String, String)], key: &str) -> Option<&'a str> {
    fields
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
}

/// What one journal's lines mean: its header and its records.
pub trait Schema {
    /// What a replay rebuilds from the records.
    type State;
    /// The caller's error; I/O failures convert into it.
    type Error: From<io::Error>;

    /// The header line a fresh journal starts with (no newline).
    fn header(&self) -> String;

    /// Checks a complete header's fields (none when the line does not
    /// decode) and returns the state before any record — or why `path`
    /// is not this schema's journal.
    fn check_header(
        &self,
        path: &Path,
        header: &[(String, String)],
    ) -> Result<Self::State, Self::Error>;

    /// Applies one decoded record to `state`, or rejects it (`false`),
    /// which ends the replay.
    fn apply(&self, state: &mut Self::State, record: &[(String, String)]) -> bool;
}

/// How a forged journal write fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFault {
    /// The write fails outright before any byte reaches the file —
    /// the classic `ENOSPC` answer.
    Enospc,
    /// Roughly half the record's bytes land, then the write fails:
    /// the torn line a crash-during-append leaves, forced on demand.
    Short,
}

/// Injected I/O faults for [`Log::append`]. `()` injects nothing.
pub trait FaultHook {
    /// Consulted once per append, before any byte is written.
    fn write_fault(&self) -> Option<WriteFault> {
        None
    }

    /// Consulted only after a clean write; `Some` fails the sync with
    /// that error instead of syncing.
    fn sync_fault(&self) -> Option<io::Error> {
        None
    }
}

impl FaultHook for () {}

/// An open journal, appending after the valid prefix [`Log::open`]
/// kept (see the module's crash rules).
#[derive(Debug)]
pub struct Log<H = ()> {
    file: File,
    /// Bytes known written and synced.
    clean_len: u64,
    /// A write or sync failed past `clean_len`: roll back before the
    /// next append.
    dirty: bool,
    faults: H,
}

impl<H: FaultHook> Log<H> {
    /// Opens the journal at `path`, creating it if needed, and repairs
    /// it by the module's crash rules. Returns the append handle and the
    /// state the valid records rebuild. The open itself is never
    /// fault-injected: a journal that cannot even be opened should fail
    /// loudly, not degrade.
    pub fn open<S: Schema>(
        path: &Path,
        schema: &S,
        faults: H,
    ) -> Result<(Self, S::State), S::Error> {
        let file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(path)?;
        let (state, clean_len) = match scan(&file, path, schema)? {
            Some(found) => found,
            None => {
                let header = schema.header() + "\n";
                file.set_len(0)?;
                (&file).write_all(header.as_bytes())?;
                file.sync_data()?;
                let fields = decode_line(&header).unwrap_or_default();
                (schema.check_header(path, &fields)?, header.len() as u64)
            }
        };
        file.set_len(clean_len)?;
        let log = Log {
            file,
            clean_len,
            dirty: false,
            faults,
        };
        Ok((log, state))
    }

    /// Appends one record and syncs it. On an error the record is not
    /// journaled, and the next append first rolls back whatever this
    /// one left.
    pub fn append<V: AsRef<str>>(&mut self, fields: &[(&str, V)]) -> io::Result<()> {
        if self.dirty {
            self.file.set_len(self.clean_len)?;
        }
        let line = encode_line(fields) + "\n";
        // `StorageFull` is std's `ENOSPC`: forged and real full disks
        // take the same degraded path.
        let enospc = || io::Error::new(io::ErrorKind::StorageFull, "injected ENOSPC");
        let written = match self.faults.write_fault() {
            Some(WriteFault::Enospc) => Err(enospc()),
            Some(WriteFault::Short) => {
                let half = &line.as_bytes()[..line.len() / 2];
                self.file.write_all(half).and_then(|()| Err(enospc()))
            }
            None => self.file.write_all(line.as_bytes()).and_then(|()| {
                let injected = self.faults.sync_fault();
                injected.map_or_else(|| self.file.sync_data(), Err)
            }),
        };
        self.dirty = written.is_err();
        if !self.dirty {
            self.clean_len += line.len() as u64;
        }
        written
    }

    /// Whether the last append failed, leaving bytes past the synced
    /// prefix untrusted (rolled back before the next append).
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }
}

/// Replays the journal at `path` without repairing it: the state its
/// valid records rebuild, or `None` when the file never completed its
/// header (it is empty, or a crash tore its first line).
pub fn replay<S: Schema>(path: &Path, schema: &S) -> Result<Option<S::State>, S::Error> {
    Ok(scan(&File::open(path)?, path, schema)?.map(|(state, _)| state))
}

/// Reads `file` from the start: the state its valid records rebuild and
/// the byte length of that valid prefix, or `None` without a header.
fn scan<S: Schema>(
    file: &File,
    path: &Path,
    schema: &S,
) -> Result<Option<(S::State, u64)>, S::Error> {
    let mut reader = BufReader::new(file);
    let mut line = Vec::new();
    reader.read_until(b'\n', &mut line)?;
    if !line.ends_with(b"\n") {
        return Ok(None);
    }
    let mut state = schema.check_header(path, &decode_bytes(&line).unwrap_or_default())?;
    let mut valid = line.len() as u64;
    loop {
        line.clear();
        reader.read_until(b'\n', &mut line)?;
        let record = line.ends_with(b"\n").then(|| decode_bytes(&line)).flatten();
        match record {
            Some(record) if schema.apply(&mut state, &record) => valid += line.len() as u64,
            _ => return Ok(Some((state, valid))),
        }
    }
}

fn decode_bytes(line: &[u8]) -> Option<Vec<(String, String)>> {
    std::str::from_utf8(line).ok().and_then(decode_line)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_hostile_values() {
        for v in [
            "plain",
            "two words",
            "a=b=c",
            "100%",
            "line\nbreak",
            "cr\rlf\n",
            "%20 literal",
            "",
            "naïve 视图",
        ] {
            assert_eq!(unescape(&escape(v)), v, "value {v:?}");
            let line = encode_line(&[("k", v)]);
            assert!(!line.contains('\n'), "escaped line must be single-line");
            let fields = decode_line(&line).unwrap();
            assert_eq!(field(&fields, "k"), Some(v));
        }
    }

    #[test]
    fn multi_field_lines_keep_order_and_values() {
        let line = encode_line(&[
            ("kind", "task"),
            ("index", "7"),
            ("why", "it broke = badly"),
        ]);
        let fields = decode_line(&line).unwrap();
        assert_eq!(fields.len(), 3);
        assert_eq!(field(&fields, "kind"), Some("task"));
        assert_eq!(field(&fields, "index"), Some("7"));
        assert_eq!(field(&fields, "why"), Some("it broke = badly"));
        assert_eq!(field(&fields, "missing"), None);
    }

    #[test]
    fn malformed_lines_decode_to_none() {
        assert_eq!(decode_line(""), None);
        assert_eq!(decode_line("\n"), None);
        assert_eq!(decode_line("no-equals-sign"), None);
        assert_eq!(decode_line("ok=1 truncated"), None);
        assert_eq!(decode_line("=value"), None);
    }

    #[test]
    fn unknown_escapes_pass_through() {
        assert_eq!(unescape("%zz"), "%zz");
        assert_eq!(unescape("tail%"), "tail%");
        assert_eq!(unescape("%2"), "%2");
    }

    /// A toy schema: a `kind=toy` header, then `n=<u64>` records.
    struct Numbers;

    impl Schema for Numbers {
        type State = Vec<u64>;
        type Error = io::Error;

        fn header(&self) -> String {
            encode_line(&[("kind", "toy")])
        }

        fn check_header(&self, _: &Path, header: &[(String, String)]) -> io::Result<Vec<u64>> {
            match field(header, "kind") {
                Some("toy") => Ok(Vec::new()),
                _ => Err(io::Error::other("not a toy journal")),
            }
        }

        fn apply(&self, state: &mut Vec<u64>, record: &[(String, String)]) -> bool {
            match field(record, "n").map(str::parse) {
                Some(Ok(n)) => {
                    state.push(n);
                    true
                }
                _ => false,
            }
        }
    }

    /// Forges a fixed script: appends 2 and 3 fail their write (short,
    /// then ENOSPC), append 4 its sync. Counts the sync verdicts asked.
    #[derive(Default)]
    struct Script {
        writes: std::cell::Cell<u32>,
        syncs: std::cell::Cell<u32>,
    }

    impl FaultHook for Script {
        fn write_fault(&self) -> Option<WriteFault> {
            self.writes.set(self.writes.get() + 1);
            match self.writes.get() {
                2 => Some(WriteFault::Short),
                3 => Some(WriteFault::Enospc),
                _ => None,
            }
        }

        fn sync_fault(&self) -> Option<io::Error> {
            self.syncs.set(self.syncs.get() + 1);
            (self.writes.get() == 4).then(|| io::Error::other("injected fsync failure"))
        }
    }

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("kernel-log-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn open_cuts_the_first_failing_record_and_everything_after_it() {
        let path = scratch("prefix");
        // A torn record, a complete one the schema rejects, and a line
        // that is not UTF-8 each end the replay. Open cuts them and all
        // that follows, so the next append lands right after `n=2`.
        for tail in [&b"n=3"[..], b"bogus=1\nn=4\n", b"n=\xff\nn=4\n"] {
            std::fs::write(&path, [&b"kind=toy\nn=1\nn=2\n"[..], tail].concat()).unwrap();
            let (mut log, state) = Log::open(&path, &Numbers, ()).unwrap();
            assert_eq!(state, [1, 2]);
            log.append(&[("n", "9")]).unwrap();
            assert_eq!(std::fs::read(&path).unwrap(), b"kind=toy\nn=1\nn=2\nn=9\n");
        }
    }

    #[test]
    fn an_unfinished_header_restarts_and_a_foreign_one_is_left_alone() {
        let path = scratch("header");
        for torn in [&b""[..], b"kind=to"] {
            std::fs::write(&path, torn).unwrap();
            assert!(replay(&path, &Numbers).unwrap().is_none());
            let (_, state) = Log::open(&path, &Numbers, ()).unwrap();
            assert!(state.is_empty());
            assert_eq!(std::fs::read(&path).unwrap(), b"kind=toy\n");
        }
        let foreign = b"kind=other\nn=1\nn=";
        std::fs::write(&path, foreign).unwrap();
        assert!(Log::open(&path, &Numbers, ()).is_err());
        assert!(replay(&path, &Numbers).is_err());
        assert_eq!(std::fs::read(&path).unwrap(), foreign, "nothing is written");
    }

    #[test]
    fn a_failed_append_costs_only_its_own_record() {
        let path = scratch("faults");
        let (mut log, _) = Log::open(&path, &Numbers, Script::default()).unwrap();
        let mut landed = Vec::new();
        for n in 1..=5u64 {
            if log.append(&[("n", n.to_string())]).is_ok() {
                landed.push(n);
            }
            // A failed append leaves the tail dirty until the next one
            // rolls it back: the short write's torn bytes, the failed
            // sync's unsynced ones.
            assert_eq!(log.is_dirty(), (2..=4).contains(&n), "after append {n}");
            if n == 2 {
                assert!(std::fs::read_to_string(&path).unwrap().ends_with("\nn="));
            }
        }
        assert_eq!(landed, [1, 5]);
        assert_eq!(log.faults.syncs.get(), 3, "one sync per clean write");
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "kind=toy\nn=1\nn=5\n"
        );
        assert_eq!(replay(&path, &Numbers).unwrap(), Some(vec![1, 5]));
    }
}
