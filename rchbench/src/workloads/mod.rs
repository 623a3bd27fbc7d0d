//! The three workloads and the protocol every run follows.
//!
//! A run sets its workload up [`SETUP_REPEATS`] times (reporting the
//! median as `setup_s`), then makes timed steps until the requested wall
//! time is up. A [`speed`] reading follows every set-up and step, and
//! each one's timings are scaled by the readings on either side of it.
//! An untraced run reports the end-to-end metrics. A traced
//! run alternates untraced and traced steps, so both see the same mix of
//! inputs and cache states, and reports the per-layer metrics of the
//! traced steps plus the tracing overhead against the untraced ones.

pub mod lint;
pub mod storm;
pub mod study;

use crate::meter::{Meter, Metric};
use crate::{layers, speed, stats, sys, trace};
use droidsim_kernel::alloc_track;
use droidsim_kernel::memo::{self, MemoSnapshot};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Fleet jobs doing the timed work. One: the fleet then runs its tasks inline on the calling
/// thread, and the host's other CPU absorbs everything else, so the
/// latency tail measures the program instead of the scheduler.
pub const JOBS: usize = 1;
/// Fleet jobs of the untimed re-run that checks the timed call: the
/// digests must not depend on the worker count.
pub const CHECK_JOBS: usize = 2;
/// One timed call in this many is re-run at [`CHECK_JOBS`], outside the
/// timed region, and must reproduce the timed call's digests.
const CHECK_EVERY: u64 = 8;

/// Whether step `index` gets the [`CHECK_JOBS`] re-run. The checked
/// steps are odd, which a traced run traces, so there the re-run
/// (through the library call) also checks the traced replica against it.
pub fn is_check_step(index: u64) -> bool {
    index % CHECK_EVERY == CHECK_EVERY - 1
}

/// Longest untimed wait for a step's threads to exit.
const SETTLE_MAX: Duration = Duration::from_millis(100);

/// Waits (untimed) until the threads a step spawned have exited and the
/// process is back to `threads` threads. A joined fleet worker still
/// has to run its exit path, which hands its malloc arena back; if the
/// next call spawns workers first, glibc creates one more arena and
/// peak RSS jumps by a third at a random point of the run.
fn settle(threads: usize) {
    let give_up = Instant::now() + SETTLE_MAX;
    while sys::threads() > threads && Instant::now() < give_up {
        std::thread::sleep(Duration::from_micros(100));
    }
}

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 9;

/// One workload: its inputs, its timed loop and its output checks.
pub trait Workload: Sized {
    /// Builds inputs and warm state, including one untimed warm-up on
    /// inputs of its own (distinct for each repetition `rep`) whose
    /// outputs are checked.
    fn setup(seed: u64, rep: u64) -> Result<Self, String>;

    /// Makes one timed call on fresh inputs and checks its outputs,
    /// recording ops, latencies, failures and layer counters in `meter`.
    fn step(&mut self, meter: &mut Meter);
}

/// Every workload name, in `BENCHMARK.json` order.
pub const NAMES: [&str; 3] = ["study_fleet", "rotation_storm", "lint_corpus"];

/// What one run was asked to do.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Workload name (one of [`NAMES`]).
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured wall time in seconds.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Where to write the spans (default: the scratch directory).
    pub spans: Option<PathBuf>,
}

/// Machine metadata stamped on every result.
#[derive(Debug, Clone)]
pub struct Machine {
    /// Logical CPUs available.
    pub nproc: usize,
    /// Kernel release.
    pub kernel: String,
}

/// What one run measured.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed an output check.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Latency samples behind the percentiles.
    pub samples: u64,
    /// Median set-up time in seconds.
    pub setup_s: f64,
    /// Median [`speed::measure`] reading of the run, in ms.
    pub speed_ms: f64,
    /// Host facts.
    pub machine: Machine,
    /// Where the spans were written (traced runs).
    pub spans_file: Option<PathBuf>,
}

/// The directory traced runs write their spans into by default:
/// `$CARGO_TARGET_DIR/rchbench`, else `target/rchbench`, relative to the
/// working directory.
pub fn scratch_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("rchbench")
}

/// Runs one workload.
pub fn run(opts: &RunOpts) -> Result<RunReport, String> {
    match opts.workload.as_str() {
        "study_fleet" => run_with::<study::Study>(opts),
        "rotation_storm" => run_with::<storm::Storm>(opts),
        "lint_corpus" => run_with::<lint::Lint>(opts),
        other => Err(format!(
            "unknown workload {other:?} (expected one of {})",
            NAMES.join(", ")
        )),
    }
}

fn run_with<W: Workload>(opts: &RunOpts) -> Result<RunReport, String> {
    let machine = Machine {
        nproc: sys::nproc(),
        kernel: sys::kernel(),
    };

    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut state: Option<W> = None;
    let threads = sys::threads();
    let mut readings = vec![speed::measure()];
    // Ends a set-up or step: settles, takes the next speed reading and
    // returns the factor for what ran since the last one.
    let mut next_factor = || {
        settle(threads);
        let before = readings[readings.len() - 1];
        let after = speed::measure();
        readings.push(after);
        speed::factor(before, after)
    };
    for rep in 0..SETUP_REPEATS as u64 {
        drop(state.take());
        settle(threads);
        let started = Instant::now();
        state = Some(W::setup(opts.seed, rep)?);
        let wall = started.elapsed().as_secs_f64();
        setups.push(wall * next_factor());
    }
    let mut workload = state.expect("at least one set-up ran");
    let setup_s = stats::median(&setups);
    // Each step's peak memory is its own: the set-ups' is not counted.
    sys::reset_peak_rss();
    let until = Instant::now() + Duration::from_secs_f64(opts.seconds.max(0.0));

    if !opts.trace {
        let mut meter = Meter::new();
        loop {
            workload.step(&mut meter);
            meter.end_step(next_factor(), sys::peak_rss_mib());
            sys::reset_peak_rss();
            if Instant::now() >= until {
                break;
            }
        }
        drop(workload);
        return Ok(RunReport {
            attempted: meter.attempted,
            failed: meter.failed,
            metrics: meter.end_to_end(setup_s),
            samples: meter.samples,
            setup_s,
            speed_ms: stats::median(&readings),
            machine,
            spans_file: None,
        });
    }

    let mut plain = Meter::new();
    let mut traced = Meter::new();
    let mut memo_delta: Vec<MemoSnapshot> = Vec::new();
    let mut allocs = 0;
    // At least one step of each kind, however short the run.
    for i in 0u64.. {
        if i >= 2 && Instant::now() >= until {
            break;
        }
        if i % 2 == 0 {
            workload.step(&mut plain);
            plain.end_step(next_factor(), sys::peak_rss_mib());
        } else {
            let memo_before = memo::snapshot_all();
            let allocs_before = alloc_track::current();
            trace::set_enabled(true);
            workload.step(&mut traced);
            trace::set_enabled(false);
            allocs += alloc_track::current().saturating_sub(allocs_before);
            accumulate_memo(&mut memo_delta, &memo_before, &memo::snapshot_all());
            traced.end_step(next_factor(), sys::peak_rss_mib());
        }
        sys::reset_peak_rss();
    }
    let spans = trace::take_all();
    drop(workload);
    let speed_ms = stats::median(&readings);

    let spans_file = opts
        .spans
        .clone()
        .unwrap_or_else(|| scratch_dir().join(format!("spans-{}.jsonl", opts.workload)));
    if let Some(dir) = spans_file.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    trace::write_jsonl(&spans, &spans_file)
        .map_err(|e| format!("writing {}: {e}", spans_file.display()))?;
    let metrics = layers::derive(&layers::Inputs {
        spans: &spans,
        traced: &traced,
        plain: &plain,
        memo: &memo_delta,
        allocs,
        jobs: JOBS,
    });
    Ok(RunReport {
        attempted: plain.attempted + traced.attempted,
        failed: plain.failed + traced.failed,
        metrics,
        samples: traced.samples,
        setup_s,
        speed_ms,
        machine,
        spans_file: Some(spans_file),
    })
}

/// Adds the hits, misses and evictions between two memo snapshots to
/// `acc`, keeping each cache's latest resident bytes.
fn accumulate_memo(acc: &mut Vec<MemoSnapshot>, before: &[MemoSnapshot], after: &[MemoSnapshot]) {
    for a in after {
        let b = before.iter().find(|b| b.name == a.name);
        let delta = |f: fn(&MemoSnapshot) -> u64| f(a).saturating_sub(b.map_or(0, f));
        let (hits, misses, evictions) = (
            delta(|s| s.hits),
            delta(|s| s.misses),
            delta(|s| s.evictions),
        );
        match acc.iter_mut().find(|s| s.name == a.name) {
            Some(s) => {
                s.hits += hits;
                s.misses += misses;
                s.evictions += evictions;
                s.entries = a.entries;
                s.bytes = a.bytes;
            }
            None => acc.push(MemoSnapshot {
                hits,
                misses,
                evictions,
                ..a.clone()
            }),
        }
    }
}
