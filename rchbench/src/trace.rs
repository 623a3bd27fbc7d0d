//! Wall-clock spans recorded around the benchmark's calls into each
//! layer's public functions.
//!
//! A span holds its name, id, parent, request id, thread, start and end
//! (ns since the process's trace epoch) and one workload-defined count
//! `n` (e.g. the view count of a rotated tree). Finished spans collect in
//! a thread-local vector; [`flush`] moves them to the process-wide list
//! at the end of each task, and [`take_all`] drains that list once the
//! traced phase is over. While tracing is off every call is one relaxed
//! atomic load.
//!
//! A span's *self time* is its duration minus the part of it that the
//! union of its children covers ([`self_times`]); children may run on
//! other threads (fleet tasks under the caller's `fleet.call` span).

use std::cell::RefCell;
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary, e.g. `device.rotate.rch_flip`.
    pub name: &'static str,
    /// Unique id (≥ 1).
    pub id: u64,
    /// The enclosing span's id, 0 for a root.
    pub parent: u64,
    /// Request id shared by every span of one op.
    pub req: u64,
    /// Benchmark-assigned thread number.
    pub thread: u64,
    /// Start, ns since the trace epoch.
    pub start_ns: u64,
    /// End, ns since the trace epoch.
    pub end_ns: u64,
    /// Workload-defined size of the call (0 when unused).
    pub n: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The span as one JSON line (no trailing newline).
    pub fn json_line(&self) -> String {
        format!(
            "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"req\":{},\"thread\":{},\"start_ns\":{},\"end_ns\":{},\"n\":{}}}",
            self.name, self.id, self.parent, self.req, self.thread, self.start_ns, self.end_ns, self.n
        )
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);
/// Flushed batches, kept as moved vectors so a flush never copies spans
/// (or stalls another worker behind a reallocation) while holding the
/// lock.
static COLLECTED: Mutex<Vec<Vec<Span>>> = Mutex::new(Vec::new());

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// `at` as ns since the trace epoch (0 if it precedes it).
fn ns_since_epoch(at: Instant) -> u64 {
    at.saturating_duration_since(epoch()).as_nanos() as u64
}

struct Local {
    thread: u64,
    /// Open spans on this thread, innermost last: `(id, req)`.
    stack: Vec<(u64, u64)>,
    done: Vec<Span>,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local {
        thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
        stack: Vec::new(),
        done: Vec::new(),
    });
}

/// Turns recording on or off for the whole process.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Runs `f` with recording off (output checks between timed calls must
/// not show up as layer time), restoring the previous setting after.
pub fn paused<R>(f: impl FnOnce() -> R) -> R {
    let was = ENABLED.swap(false, Ordering::Relaxed);
    let out = f();
    ENABLED.store(was, Ordering::Relaxed);
    out
}

/// A span that has started and not yet ended. Dropping it without
/// [`Open::close`] records nothing.
#[must_use = "close the span to record it"]
pub struct Open(Option<OpenInner>);

struct OpenInner {
    id: u64,
    parent: u64,
    req: u64,
    start: Instant,
}

/// Opens a span under this thread's innermost open span (a root with
/// request id 0 if there is none).
pub fn open() -> Open {
    if !enabled() {
        return Open(None);
    }
    let (parent, req) = LOCAL.with(|l| l.borrow().stack.last().copied().unwrap_or((0, 0)));
    open_under(parent, req)
}

/// Opens a span under an explicit parent, typically one on another
/// thread (a fleet task under the caller's `fleet.call`).
pub fn open_under(parent: u64, req: u64) -> Open {
    if !enabled() {
        return Open(None);
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    LOCAL.with(|l| l.borrow_mut().stack.push((id, req)));
    Open(Some(OpenInner {
        id,
        parent,
        req,
        start: Instant::now(),
    }))
}

impl Open {
    /// This span's id (0 while tracing is off).
    pub fn id(&self) -> u64 {
        self.0.as_ref().map_or(0, |o| o.id)
    }

    /// Ends the span now, naming it (the name may depend on the call's
    /// result, e.g. the handling path a rotation took).
    pub fn close(self, name: &'static str, n: u64) {
        let end = Instant::now();
        let Some(o) = self.0 else {
            return;
        };
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            if let Some(pos) = l.stack.iter().rposition(|(id, _)| *id == o.id) {
                l.stack.remove(pos);
            }
            let thread = l.thread;
            l.done.push(Span {
                name,
                id: o.id,
                parent: o.parent,
                req: o.req,
                thread,
                start_ns: ns_since_epoch(o.start),
                end_ns: ns_since_epoch(end),
                n,
            });
        });
    }
}

/// Times `f` as a span named `name` under the current span.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let open = open();
    let out = f();
    open.close(name, 0);
    out
}

/// Moves this thread's finished spans to the process-wide list. Call at
/// the end of every task: pool threads may exit before their
/// thread-local storage would be drained.
pub fn flush() {
    let done = LOCAL.with(|l| std::mem::take(&mut l.borrow_mut().done));
    if !done.is_empty() {
        COLLECTED
            .lock()
            .expect("no thread panics while holding the span list")
            .push(done);
    }
}

/// Drains every flushed span (after flushing the caller's own).
pub fn take_all() -> Vec<Span> {
    flush();
    let batches = std::mem::take(
        &mut *COLLECTED
            .lock()
            .expect("no thread panics while holding the span list"),
    );
    batches.into_iter().flatten().collect()
}

/// Self time of every span, by id: its duration minus the union of its
/// children's intervals clipped to it.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |kids| union_within(kids, s.start_ns, s.end_ns));
            (s.id, s.dur_ns().saturating_sub(covered))
        })
        .collect()
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn union_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Writes `spans` as JSON lines to `path`.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(out, "{}", s.json_line())?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "t",
            id,
            parent,
            req: 0,
            thread: 0,
            start_ns,
            end_ns,
            n: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, 0, 0, 100),
            // Overlapping children (two threads) count once; the part of
            // a child outside its parent is ignored.
            span(2, 1, 10, 30),
            span(3, 1, 20, 50),
            span(4, 1, 80, 120),
            span(5, 2, 12, 18),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 100 - (40 + 20));
        assert_eq!(st[&2], 20 - 6);
        assert_eq!(st[&3], 30);
        assert_eq!(st[&4], 40);
        assert_eq!(st[&5], 6);
    }

    #[test]
    fn nested_children_do_not_double_count() {
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 0, 60),
            span(3, 1, 10, 20),
            span(4, 1, 50, 100),
        ];
        assert_eq!(self_times(&spans)[&1], 0);
    }

    #[test]
    fn json_lines_carry_every_field() {
        let line = span(7, 3, 5, 9).json_line();
        let v = crate::json::parse(&line).expect("valid JSON");
        for key in [
            "name", "id", "parent", "req", "thread", "start_ns", "end_ns", "n",
        ] {
            assert!(v.get(key).is_some(), "{key}");
        }
        assert_eq!(
            v.get("parent").and_then(crate::json::Value::as_f64),
            Some(3.0)
        );
    }
}
