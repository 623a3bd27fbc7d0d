//! Per-layer metrics of a traced phase, derived from its spans and from
//! the counters read through public APIs (memo snapshots, the
//! allocation counter, device metrics and events).
//!
//! Every workload prints every per-layer metric; a layer the workload
//! does not cross reads 0.

use crate::meter::{Meter, Metric};
use crate::trace::{self_times, Span};
use droidsim_kernel::memo::MemoSnapshot;
use std::collections::{BTreeMap, HashMap};

/// Everything [`derive()`] needs.
pub struct Inputs<'a> {
    /// Spans of the traced phase.
    pub spans: &'a [Span],
    /// The traced phase's meter.
    pub traced: &'a Meter,
    /// The untraced phase's meter (for the tracing overhead).
    pub plain: &'a Meter,
    /// Memo hits, misses and evictions during the traced steps, with
    /// each cache's resident bytes after the last one.
    pub memo: &'a [MemoSnapshot],
    /// Allocation events during the traced steps.
    pub allocs: u64,
    /// Threads doing the timed work.
    pub jobs: usize,
}

#[derive(Default, Clone, Copy)]
struct Agg {
    count: u64,
    dur_ns: u64,
    self_ns: u64,
    n: u64,
}

/// Every per-layer metric name with its unit, in report order.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("fleet.call_ms", "ms"),
    ("fleet.busy_share", "ratio"),
    ("fleet.idle_ms_per_call", "ms"),
    ("fleet.tail_ms_per_call", "ms"),
    ("scenario.app_run_us", "us"),
    ("scenario.self_us", "us"),
    ("app.build_us", "us"),
    ("device.launch_us", "us"),
    ("device.rotate.relaunch_us", "us"),
    ("device.rotate.rch_init_us", "us"),
    ("device.rotate.rch_flip_us", "us"),
    ("device.rotate.rch_flip_us_per_kview", "us/kview"),
    ("device.rotate.handled_by_app_us", "us"),
    ("device.rotate.rch_fallback_us", "us"),
    ("device.advance.short_us", "us"),
    ("device.advance.idle_us", "us"),
    ("device.state_us", "us"),
    ("device.drop_us", "us"),
    ("device.path_share.relaunch", "ratio"),
    ("device.path_share.rch_init", "ratio"),
    ("device.path_share.rch_flip", "ratio"),
    ("device.path_share.handled_by_app", "ratio"),
    ("device.path_share.rch_fallback", "ratio"),
    ("device.gc_passes", "count"),
    ("device.async_delivered", "count"),
    ("core.migration.flushes_per_op", "count/op"),
    ("core.migration.coalesce_ratio", "ratio"),
    ("memo.resolve.hit_ratio", "ratio"),
    ("memo.resolve.evictions", "count"),
    ("memo.resolve.bytes", "B"),
    ("memo.inflate.hit_ratio", "ratio"),
    ("memo.inflate.evictions", "count"),
    ("memo.inflate.bytes", "B"),
    ("memo.mapping.hit_ratio", "ratio"),
    ("memo.mapping.evictions", "count"),
    ("memo.mapping.bytes", "B"),
    ("memo.shape.hit_ratio", "ratio"),
    ("analysis.shape_us", "us"),
    ("analysis.passes_us", "us"),
    ("analysis.predict_us", "us"),
    ("alloc.events_per_op", "count/op"),
    ("trace.unattributed_share", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// The rotation spans the path shares are taken over.
const ROTATE_PATHS: [(&str, &str); 5] = [
    ("device.path_share.relaunch", "device.rotate.relaunch"),
    ("device.path_share.rch_init", "device.rotate.rch_init"),
    ("device.path_share.rch_flip", "device.rotate.rch_flip"),
    (
        "device.path_share.handled_by_app",
        "device.rotate.handled_by_app",
    ),
    (
        "device.path_share.rch_fallback",
        "device.rotate.rch_fallback",
    ),
];

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Fleet call structure: `(calls, Σ call ns, Σ task ns, Σ tail ns)`,
/// where a worker's tail is the time from its last task's end to the
/// call's end.
fn fleet_shape(spans: &[Span]) -> (u64, u64, u64, u64) {
    let mut tasks: HashMap<u64, Vec<&Span>> = HashMap::new();
    for s in spans.iter().filter(|s| s.name == "fleet.task") {
        tasks.entry(s.parent).or_default().push(s);
    }
    let (mut calls, mut call_ns, mut busy_ns, mut tail_ns) = (0, 0, 0, 0);
    for call in spans.iter().filter(|s| s.name == "fleet.call") {
        calls += 1;
        call_ns += call.dur_ns();
        let mut last_end: BTreeMap<u64, u64> = BTreeMap::new();
        for t in tasks.get(&call.id).into_iter().flatten() {
            busy_ns += t.dur_ns();
            let end = last_end.entry(t.thread).or_default();
            *end = (*end).max(t.end_ns);
        }
        tail_ns += last_end
            .values()
            .map(|&end| call.end_ns.saturating_sub(end))
            .sum::<u64>();
    }
    (calls, call_ns, busy_ns, tail_ns)
}

/// `(hit ratio, evictions, bytes)` of one memo cache.
fn memo_stats(memo: &[MemoSnapshot], name: &str) -> (f64, f64, f64) {
    memo.iter()
        .find(|s| s.name == name)
        .map_or((0.0, 0.0, 0.0), |s| {
            (
                ratio(s.hits as f64, (s.hits + s.misses) as f64),
                s.evictions as f64,
                s.bytes as f64,
            )
        })
}

/// The per-layer metrics of a traced phase, in [`PER_LAYER`] order.
pub fn derive(input: &Inputs<'_>) -> Vec<Metric> {
    let self_ns = self_times(input.spans);
    let mut aggs: HashMap<&str, Agg> = HashMap::new();
    for s in input.spans {
        let a = aggs.entry(s.name).or_default();
        a.count += 1;
        a.dur_ns += s.dur_ns();
        a.self_ns += self_ns.get(&s.id).copied().unwrap_or(0);
        a.n += s.n;
    }
    let agg = |name: &str| aggs.get(name).copied().unwrap_or_default();
    let mean_us = |name: &str| {
        let a = agg(name);
        ratio(a.dur_ns as f64 / 1e3, a.count as f64)
    };

    let jobs = input.jobs as f64;
    let (calls, call_ns, busy_ns, tail_ns) = fleet_shape(input.spans);
    let idle_ns = (jobs * call_ns as f64 - busy_ns as f64 - tail_ns as f64).max(0.0);
    let rotations: u64 = input
        .spans
        .iter()
        .filter(|s| s.name.starts_with("device.rotate."))
        .count() as u64;
    let predict = agg("analysis.predict");
    let flip = agg("device.rotate.rch_flip");
    let traced_wall_ns = input.traced.timed.as_nanos() as f64;
    let all_self: u64 = self_ns.values().sum();
    let ops = input.traced.attempted as f64;
    let c = |name: &str| input.traced.counter(name);

    let mut values: HashMap<String, f64> = [
        ("fleet.call_ms", ratio(call_ns as f64 / 1e6, calls as f64)),
        (
            "fleet.busy_share",
            ratio(busy_ns as f64, jobs * call_ns as f64),
        ),
        ("fleet.idle_ms_per_call", ratio(idle_ns / 1e6, calls as f64)),
        (
            "fleet.tail_ms_per_call",
            ratio(tail_ns as f64 / 1e6, calls as f64),
        ),
        ("scenario.app_run_us", mean_us("scenario.app_run")),
        (
            "scenario.self_us",
            ratio(
                agg("scenario.app_run").self_ns as f64 / 1e3,
                agg("scenario.app_run").count as f64,
            ),
        ),
        ("app.build_us", mean_us("app.build")),
        ("device.launch_us", mean_us("device.launch")),
        (
            "device.rotate.relaunch_us",
            mean_us("device.rotate.relaunch"),
        ),
        (
            "device.rotate.rch_init_us",
            mean_us("device.rotate.rch_init"),
        ),
        (
            "device.rotate.rch_flip_us",
            mean_us("device.rotate.rch_flip"),
        ),
        (
            "device.rotate.rch_flip_us_per_kview",
            // ns per view is µs per thousand views.
            ratio(flip.dur_ns as f64, flip.n as f64),
        ),
        (
            "device.rotate.handled_by_app_us",
            mean_us("device.rotate.handled_by_app"),
        ),
        (
            "device.rotate.rch_fallback_us",
            mean_us("device.rotate.rch_fallback"),
        ),
        ("device.advance.short_us", mean_us("device.advance.short")),
        ("device.advance.idle_us", mean_us("device.advance.idle")),
        ("device.state_us", mean_us("device.state")),
        ("device.drop_us", mean_us("device.drop")),
        ("device.gc_passes", c("device.gc_passes")),
        ("device.async_delivered", c("device.async_delivered")),
        (
            "core.migration.flushes_per_op",
            ratio(c("migration.flushes"), ops),
        ),
        (
            "core.migration.coalesce_ratio",
            ratio(
                c("migration.coalesced_entries"),
                c("migration.raw_invalidations"),
            ),
        ),
        ("analysis.shape_us", mean_us("analysis.shape")),
        ("analysis.passes_us", mean_us("analysis.passes")),
        (
            "analysis.predict_us",
            ratio(predict.dur_ns as f64 / 1e3 * 3.0, predict.count as f64),
        ),
        ("alloc.events_per_op", ratio(input.allocs as f64, ops)),
        (
            "trace.unattributed_share",
            1.0 - ratio(all_self as f64, jobs * traced_wall_ns),
        ),
        (
            "trace.overhead_ratio",
            1.0 - ratio(input.traced.ops_per_s(), input.plain.ops_per_s()),
        ),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_owned(), v))
    .collect();
    for (metric, span) in ROTATE_PATHS {
        values.insert(
            metric.to_owned(),
            ratio(agg(span).count as f64, rotations as f64),
        );
    }
    for cache in ["resolve", "inflate", "mapping", "shape"] {
        let (hit, evictions, bytes) = memo_stats(input.memo, cache);
        values.insert(format!("memo.{cache}.hit_ratio"), hit);
        values.insert(format!("memo.{cache}.evictions"), evictions);
        values.insert(format!("memo.{cache}.bytes"), bytes);
    }

    PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric::new(name, values.get(name).copied().unwrap_or(0.0), unit))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn span(name: &'static str, id: u64, parent: u64, thread: u64, start: u64, end: u64) -> Span {
        Span {
            name,
            id,
            parent,
            req: 1,
            thread,
            start_ns: start,
            end_ns: end,
            n: 1000,
        }
    }

    #[test]
    fn fleet_and_attribution_metrics_follow_the_spans() {
        // One 100 ns call: thread 1 busy 0–90, thread 2 busy 10–60.
        let spans = [
            span("fleet.call", 1, 0, 9, 0, 100),
            span("fleet.task", 2, 1, 1, 0, 90),
            span("fleet.task", 3, 1, 2, 10, 60),
            span("device.rotate.rch_flip", 4, 2, 1, 0, 40),
            span("device.rotate.relaunch", 5, 3, 2, 10, 30),
        ];
        let mut traced = Meter::new();
        traced.timed = Duration::from_nanos(100);
        traced.ops(2, 0);
        let mut plain = Meter::new();
        plain.timed = Duration::from_nanos(100);
        plain.ops(4, 0);
        let metrics = derive(&Inputs {
            spans: &spans,
            traced: &traced,
            plain: &plain,
            memo: &[],
            allocs: 10,
            jobs: 2,
        });
        assert_eq!(metrics.len(), PER_LAYER.len());
        let get = |n: &str| metrics.iter().find(|m| m.name == n).expect(n).value;
        assert!((get("fleet.busy_share") - 140.0 / 200.0).abs() < 1e-12);
        // Tails: thread 1 10 ns, thread 2 40 ns; idle is the rest.
        assert!((get("fleet.tail_ms_per_call") - 50e-6).abs() < 1e-15);
        assert!((get("fleet.idle_ms_per_call") - 10e-6).abs() < 1e-15);
        assert_eq!(get("device.path_share.rch_flip"), 0.5);
        assert_eq!(get("device.rotate.rch_flip_us_per_kview"), 0.04);
        assert_eq!(get("alloc.events_per_op"), 5.0);
        assert_eq!(get("trace.overhead_ratio"), 0.5);
        // Self times: call 10 (nothing runs 90–100... thread 1 covers to
        // 90), tasks 50 + 30, rotations 40 + 20 = 150 of 200.
        assert!((get("trace.unattributed_share") - 0.25).abs() < 1e-12);
    }
}
