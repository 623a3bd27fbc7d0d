//! Deterministic parallel fleet driver.
//!
//! Every experiment harness in this workspace — the top-100 study, the
//! Fig. 10 sweeps, the fault matrix, the ablations — simulates *devices*:
//! fully self-contained state machines with their own virtual clock,
//! event queue, logcat buffer, and metrics sinks. Two devices never share
//! state, so a study over N devices is embarrassingly parallel. This
//! crate partitions that work across a [`std::thread::scope`]-based pool
//! while keeping the result of a parallel run **bit-identical** to the
//! serial one:
//!
//! * **Indexed work, indexed results.** Tasks are claimed from a shared
//!   atomic counter, but every task knows its index and writes its result
//!   into its own slot. Reduction folds the slots in index order, so the
//!   outcome is independent of which worker ran what and when.
//! * **Per-task RNG streams.** Each task derives its generator with
//!   [`Xoshiro256::stream`]`(seed, index)` — no draw made by one device
//!   can perturb another, regardless of scheduling.
//! * **No cross-task sinks.** Logcat, metrics, and the virtual clock all
//!   live inside the task's own `Device`; the reducer merges per-device
//!   [digests](crate::digest) after the fact instead of interleaving
//!   writes during the run.
//!
//! The worker count comes from `--jobs` / the `DROIDSIM_JOBS` environment
//! variable, defaulting to the machine's available parallelism; `1`
//! runs every task on the caller thread (no threads are spawned at all —
//! [`run_claiming_pool`] is the one place that decides). A zero or
//! non-numeric worker count is rejected with an error naming the
//! offending source — never silently replaced.
//!
//! For long campaigns, [`run_fleet_supervised`] layers crash safety on
//! the same driver: per-task panic isolation, deterministic bounded
//! retries, a wall-clock stall watchdog, and an append-only
//! checkpoint journal with resume — see the [`supervise`] module.
//!
//! # Examples
//!
//! ```
//! use droidsim_fleet::{run_fleet, FleetConfig};
//!
//! let cfg = FleetConfig::new(4, 42);
//! let squares = run_fleet(&cfg, (0u64..8).collect(), |mut ctx, n| {
//!     let _jitter = ctx.rng.next_f64(); // this task's private stream
//!     n * n
//! });
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//!
//! let serial = run_fleet(&FleetConfig::new(1, 42), (0u64..8).collect(), |mut ctx, n| {
//!     let _jitter = ctx.rng.next_f64();
//!     n * n
//! });
//! assert_eq!(squares, serial, "parallel ≡ serial");
//! ```

pub mod digest;
pub mod supervise;

pub use digest::{combine_indexed, combine_ordered, mix_indexed, Digest};
pub use supervise::{
    run_fleet_supervised, FleetError, FleetJournal, FleetOptions, FleetReport, FleetRun,
    QuarantinedTask, TaskOutcome,
};

use droidsim_kernel::Xoshiro256;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Environment variable overriding the default worker count.
pub const JOBS_ENV: &str = "DROIDSIM_JOBS";

/// How a fleet run is partitioned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetConfig {
    /// Worker threads; `1` runs inline on the caller thread.
    pub jobs: usize,
    /// Root seed; each task's RNG stream is split from it by index.
    pub seed: u64,
}

impl FleetConfig {
    /// A config with an explicit worker count (clamped to ≥ 1).
    pub fn new(jobs: usize, seed: u64) -> FleetConfig {
        FleetConfig {
            jobs: jobs.max(1),
            seed,
        }
    }

    /// A config resolving the worker count from the environment: an
    /// explicit `jobs` argument (e.g. from a `--jobs` flag) wins, then
    /// `DROIDSIM_JOBS`, then the machine's available parallelism.
    ///
    /// # Panics
    ///
    /// Panics with the [`JobsError`] message when the explicit argument
    /// is `0` or `DROIDSIM_JOBS` is set to something that is not a
    /// positive integer. Binaries wanting a graceful exit use
    /// [`FleetConfig::try_from_env`].
    pub fn from_env(jobs: Option<usize>, seed: u64) -> FleetConfig {
        match FleetConfig::try_from_env(jobs, seed) {
            Ok(cfg) => cfg,
            Err(e) => panic!("{e}"),
        }
    }

    /// Like [`FleetConfig::from_env`], but invalid worker counts come
    /// back as a typed error instead of a panic.
    pub fn try_from_env(jobs: Option<usize>, seed: u64) -> Result<FleetConfig, JobsError> {
        Ok(FleetConfig::new(try_resolve_jobs(jobs)?, seed))
    }
}

/// Why a worker count could not be resolved. The offending source
/// (`--jobs` or `DROIDSIM_JOBS`) and value are named so the error is
/// actionable, not a silent fallback to 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobsError {
    /// Which knob held the bad value.
    pub source: &'static str,
    /// The rejected value, verbatim.
    pub value: String,
}

impl core::fmt::Display for JobsError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "invalid worker count {:?} from {}: expected a positive integer \
             (omit it to use all available cores)",
            self.value, self.source
        )
    }
}

impl std::error::Error for JobsError {}

/// Resolves the worker count: explicit argument > `DROIDSIM_JOBS` >
/// available cores. A zero or non-numeric value is an error naming the
/// source — never a silent fallback; the Ok value is always ≥ 1.
pub fn try_resolve_jobs(explicit: Option<usize>) -> Result<usize, JobsError> {
    if let Some(n) = explicit {
        return if n > 0 {
            Ok(n)
        } else {
            Err(JobsError {
                source: "--jobs",
                value: "0".to_owned(),
            })
        };
    }
    if let Ok(v) = std::env::var(JOBS_ENV) {
        return parse_jobs_value(JOBS_ENV, &v);
    }
    Ok(std::thread::available_parallelism().map_or(1, std::num::NonZero::get))
}

/// Parses one worker-count value from `source` (strict: positive
/// integers only).
pub fn parse_jobs_value(source: &'static str, value: &str) -> Result<usize, JobsError> {
    match value.trim().parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(JobsError {
            source,
            value: value.to_owned(),
        }),
    }
}

/// Per-task context handed to the fleet closure.
///
/// The RNG is this task's private stream — identical whether the task
/// runs on the caller thread or any worker.
#[derive(Debug)]
pub struct TaskCtx {
    /// The task's index in the submitted item list (and in the result
    /// vector).
    pub index: usize,
    /// The fleet's root seed.
    pub seed: u64,
    /// The task's own RNG stream (`Xoshiro256::stream(seed, index)`).
    pub rng: Xoshiro256,
}

impl TaskCtx {
    /// The context task `index` gets under root `seed` — identical on
    /// every attempt, worker, and worker count. Retries re-derive it so
    /// a retried task reproduces the exact digest of an undisturbed run.
    pub(crate) fn stream(seed: u64, index: usize) -> TaskCtx {
        TaskCtx {
            index,
            seed,
            rng: Xoshiro256::stream(seed, index as u64),
        }
    }
}

/// The one-line recipe that reruns task `index` of a fleet with root
/// `seed` alone, inline, on the exact RNG stream it had in the fleet.
/// Every crash dump and quarantine report names a failed task with it.
pub(crate) fn repro(seed: u64, index: usize) -> String {
    format!(
        "repro: DROIDSIM_JOBS=1 seed={seed} index={index} rng=Xoshiro256::stream({seed}, {index})"
    )
}

/// Takes a lock without honouring poisoning: no fleet worker panics
/// while holding one (task code runs behind `catch_unwind`), and even
/// if the invariant broke, one slot's poison must not cost the run.
fn lock_slot<X>(m: &Mutex<X>) -> std::sync::MutexGuard<'_, X> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Claims the next batch of task indices from the shared cursor.
///
/// Claiming one index per round-trip puts the cursor's cache line on the
/// critical path of every task; claiming a fixed large batch starves the
/// tail. This takes the middle road: batch size adapts as
/// `max(1, remaining / (4·jobs))`, so early claims are coarse (few
/// contended RMWs) and the final claims degrade to single tasks (no
/// worker sits on a hoard while others idle). The `remaining` estimate
/// reads a possibly stale cursor; the claimed range is clamped to `n`,
/// so over-claiming past the end is harmless.
pub(crate) fn claim_chunk(
    cursor: &AtomicUsize,
    n: usize,
    jobs: usize,
) -> Option<std::ops::Range<usize>> {
    let seen = cursor.load(Ordering::Relaxed).min(n);
    let k = ((n - seen) / (4 * jobs.max(1))).max(1);
    let start = cursor.fetch_add(k, Ordering::Relaxed);
    (start < n).then(|| start..(start + k).min(n))
}

/// A cooperative cancellation flag shared between a fleet run and its
/// supervisor (e.g. the `droidsimd` deadline watchdog).
///
/// Cancellation is *cooperative*: the supervised driver checks the
/// token between task attempts, never mid-attempt — an in-flight
/// simulation always runs to its own completion (or its watchdog
/// budget), so a cancelled run still journals every task it finished.
/// Cloning shares the flag; the default token is never cancelled.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// The shared worker-pool skeleton: spawns `min(workers, n)` scoped
/// threads that claim adaptive index chunks (the crate-private
/// `claim_chunk` sets the batching policy) from one shared cursor until
/// all `n` indices are claimed, invoking `chunk` once per claimed range.
///
/// This is the single claiming loop behind [`run_fleet`],
/// [`run_fleet_reduce`] and the supervised driver — and the primitive
/// external pools (the `droidsimd` resume pass, the `droidsim-load`
/// client fan-out) build on instead of re-implementing. It is also the
/// one inline/threaded switch: with `workers <= 1` or `n <= 1` the whole
/// range runs as one chunk on the caller thread and no thread is
/// spawned.
pub fn run_claiming_pool<C>(workers: usize, n: usize, chunk: C)
where
    C: Fn(std::ops::Range<usize>) + Sync,
{
    if n == 0 {
        return;
    }
    let workers = workers.max(1).min(n);
    if workers <= 1 {
        chunk(0..n);
        return;
    }
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                while let Some(range) = claim_chunk(&cursor, n, workers) {
                    chunk(range);
                }
            });
        }
    });
}

/// Runs `run` over every item, partitioned across `cfg.jobs` workers,
/// and returns the results **in item order** — bit-identical to the
/// `jobs = 1` inline run as long as `run` depends only on its arguments.
///
/// Work is claimed dynamically (an atomic cursor), so a slow simulation
/// does not stall the tail of the list behind a static partition.
///
/// # Panics
///
/// A panicking task no longer poisons the pool: every task runs behind
/// `catch_unwind`, all remaining tasks complete, and only then does
/// this function re-raise the failure — with a crash dump naming every
/// failed task's seed/index repro. Callers who want the partial results
/// instead use [`run_fleet_supervised`].
pub fn run_fleet<T, R, F>(cfg: &FleetConfig, items: Vec<T>, run: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(TaskCtx, T) -> R + Sync,
{
    let n = items.len();
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<Result<R, String>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    run_claiming_pool(cfg.jobs, n, |range| {
        for i in range {
            let Some(item) = lock_slot(&slots[i]).take() else {
                continue;
            };
            let out = catch_unwind(AssertUnwindSafe(|| run(TaskCtx::stream(cfg.seed, i), item)))
                .map_err(supervise::payload_text);
            *lock_slot(&results[i]) = Some(out);
        }
    });

    let mut out = Vec::with_capacity(n);
    let mut dumps = Vec::new();
    for (i, slot) in results.into_iter().enumerate() {
        let outcome = lock_slot(&slot)
            .take()
            .unwrap_or_else(|| Err("fleet task produced no result".to_owned()));
        match outcome {
            Ok(r) => out.push(r),
            Err(payload) => dumps.push(format!(
                "  task {i}: panicked ({payload}); {}",
                repro(cfg.seed, i)
            )),
        }
    }
    if !dumps.is_empty() {
        panic!(
            "{} of {n} fleet task(s) panicked ({} completed); \
             use run_fleet_supervised for partial results\n{}",
            dumps.len(),
            out.len(),
            dumps.join("\n")
        );
    }
    out
}

/// Digest-only fleet run: maps every item to a 64-bit digest and merges
/// them **unordered** with [`combine_indexed`] as workers finish.
///
/// This is the fast path for study harnesses that only need the reduced
/// fleet digest: there are no per-item `Mutex` slots and no ordered
/// result draining — each worker folds its chunk's index-tagged digests
/// locally and publishes one wrapping-add per chunk into a shared
/// accumulator. Because the tagged fold is commutative, the value is
/// identical for any worker count and any completion order, including
/// the `jobs = 1` inline run.
///
/// # Panics
///
/// Like [`run_fleet`], a panicking task does not poison the pool: all
/// remaining tasks complete, then the failure is re-raised with a
/// per-task repro line.
pub fn run_fleet_reduce<T, F>(cfg: &FleetConfig, items: &[T], run: F) -> u64
where
    T: Sync,
    F: Fn(TaskCtx, &T) -> u64 + Sync,
{
    use std::sync::atomic::AtomicU64;

    let n = items.len();
    let acc = AtomicU64::new(0);
    let failures: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let attempt = |i: usize| -> u64 {
        match catch_unwind(AssertUnwindSafe(|| {
            run(TaskCtx::stream(cfg.seed, i), &items[i])
        })) {
            Ok(d) => digest::mix_indexed(i as u64, d),
            Err(payload) => {
                lock_slot(&failures).push(format!(
                    "  task {i}: panicked ({}); {}",
                    supervise::payload_text(payload),
                    repro(cfg.seed, i)
                ));
                0
            }
        }
    };
    run_claiming_pool(cfg.jobs, n, |range| {
        let chunk = range.map(&attempt).fold(0u64, u64::wrapping_add);
        // fetch_add on u64 wraps, so the sum is the same for any split.
        acc.fetch_add(chunk, Ordering::Relaxed);
    });
    let dumps = lock_slot(&failures);
    if !dumps.is_empty() {
        panic!(
            "{} of {n} fleet task(s) panicked; \
             use run_fleet_supervised for partial results\n{}",
            dumps.len(),
            dumps.join("\n")
        );
    }
    acc.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draw_chain(cfg: &FleetConfig, len: usize) -> Vec<u64> {
        run_fleet(cfg, (0..len).collect(), |mut ctx, _i| {
            (0..8)
                .map(|_| ctx.rng.next_u64())
                .fold(0u64, u64::wrapping_add)
        })
    }

    #[test]
    fn parallel_results_match_serial_order() {
        let serial = draw_chain(&FleetConfig::new(1, 7), 32);
        for jobs in [2, 3, 4, 8] {
            assert_eq!(
                draw_chain(&FleetConfig::new(jobs, 7), 32),
                serial,
                "jobs={jobs}"
            );
        }
    }

    #[test]
    fn tasks_see_their_own_stream() {
        let cfg = FleetConfig::new(4, 9);
        let firsts = run_fleet(&cfg, (0..16).collect::<Vec<usize>>(), |mut ctx, i| {
            assert_eq!(ctx.index, i);
            ctx.rng.next_u64()
        });
        let mut unique = firsts.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), firsts.len(), "streams must not collide");
        assert_eq!(firsts[3], Xoshiro256::stream(9, 3).next_u64());
    }

    #[test]
    fn explicit_jobs_beats_env_and_zero_is_rejected() {
        assert_eq!(try_resolve_jobs(Some(3)), Ok(3));
        let err = try_resolve_jobs(Some(0)).unwrap_err();
        assert_eq!(err.source, "--jobs");
        assert!(err.to_string().contains("positive integer"), "{err}");
        assert!(try_resolve_jobs(None).unwrap() >= 1);
    }

    #[test]
    fn jobs_values_parse_strictly() {
        assert_eq!(parse_jobs_value(JOBS_ENV, " 4 "), Ok(4));
        for bad in ["0", "", "three", "-2", "4.5", "0x4"] {
            let err = parse_jobs_value(JOBS_ENV, bad).unwrap_err();
            assert_eq!(err.source, JOBS_ENV);
            assert_eq!(err.value, bad);
            assert!(
                err.to_string().contains(JOBS_ENV),
                "error must name the source: {err}"
            );
        }
    }

    #[test]
    fn claiming_pool_visits_every_index_exactly_once() {
        for workers in [1usize, 2, 4, 8, 64] {
            let hits: Vec<AtomicUsize> = (0..37).map(|_| AtomicUsize::new(0)).collect();
            run_claiming_pool(workers, hits.len(), |range| {
                for i in range {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                }
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "workers={workers}"
            );
        }
        run_claiming_pool(4, 0, |_| panic!("no chunks for an empty pool"));
    }

    #[test]
    fn cancel_token_is_shared_and_idempotent() {
        let token = CancelToken::new();
        let peer = token.clone();
        assert!(!token.is_cancelled());
        peer.cancel();
        peer.cancel();
        assert!(token.is_cancelled(), "clones share the flag");
    }

    #[test]
    fn empty_and_single_item_fleets_work() {
        let cfg = FleetConfig::new(8, 1);
        let none: Vec<u32> = run_fleet(&cfg, Vec::<u32>::new(), |_, x| x);
        assert!(none.is_empty());
        assert_eq!(run_fleet(&cfg, vec![5u32], |_, x| x * 2), vec![10]);
    }

    #[test]
    fn a_panicking_task_reports_instead_of_poisoning() {
        // The old driver died on a poisoned result slot; now every other
        // task completes and the re-raised panic carries a repro line.
        for jobs in [1usize, 4] {
            let err = std::panic::catch_unwind(|| {
                run_fleet(
                    &FleetConfig::new(jobs, 3),
                    (0..8u64).collect(),
                    |_ctx, n| {
                        if n == 3 {
                            panic!("organic bug at n=3");
                        }
                        n * n
                    },
                )
            })
            .expect_err("the failure must still surface");
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.contains("1 of 8 fleet task(s) panicked"), "{msg}");
            assert!(msg.contains("7 completed"), "{msg}");
            assert!(msg.contains("organic bug at n=3"), "{msg}");
            assert!(msg.contains("index=3"), "{msg}");
        }
    }
}

#[cfg(test)]
mod supervise_tests {
    use super::*;
    use droidsim_faults::{FaultPlan, FaultSite};
    use std::time::Duration;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("droidsim-fleet-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{name}-{}.journal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    /// The workload under supervision: a deterministic function of the
    /// task's private RNG stream, so digests double as correctness
    /// checks.
    fn chain(ctx: TaskCtx, _n: usize) -> u64 {
        let mut rng = ctx.rng;
        (0..8).map(|_| rng.next_u64()).fold(0u64, u64::wrapping_add)
    }

    fn supervised(cfg: &FleetConfig, opts: &FleetOptions) -> FleetRun<u64> {
        run_fleet_supervised(cfg, opts, (0..8).collect(), chain, |r| *r).unwrap()
    }

    #[test]
    fn clean_supervised_run_equals_plain_run() {
        let plain = run_fleet(&FleetConfig::new(1, 5), (0..8).collect(), chain);
        for jobs in [1usize, 2, 8] {
            let run = supervised(&FleetConfig::new(jobs, 5), &FleetOptions::new());
            let got: Vec<u64> = run.outcomes.iter().map(|o| *o.ok().unwrap()).collect();
            assert_eq!(got, plain, "jobs={jobs}");
            assert_eq!(
                run.combined_digest(),
                Some(combine_ordered(plain.iter().copied()))
            );
            assert!(run.report.is_clean());
            assert_eq!(run.report.ledger.ok, 8);
            assert_eq!(run.report.ledger.retries, 0);
        }
    }

    #[test]
    fn hard_failures_quarantine_and_spare_the_rest() {
        let opts = FleetOptions::new().with_retries(2).with_hard_fail(vec![3]);
        let clean = supervised(&FleetConfig::new(4, 5), &FleetOptions::new());
        let run = supervised(&FleetConfig::new(4, 5), &opts);
        for (i, o) in run.outcomes.iter().enumerate() {
            if i == 3 {
                assert!(o.is_quarantined(), "index 3 must be quarantined");
                assert_eq!(o.tag(), "panicked");
            } else {
                assert_eq!(o.ok(), clean.outcomes[i].ok(), "index {i}");
            }
        }
        assert_eq!(run.combined_digest(), None, "partial runs have no digest");
        assert_eq!(run.report.ledger.retries, 2);
        assert_eq!(run.report.quarantined.len(), 1);
        let q = &run.report.quarantined[0];
        assert_eq!((q.index, q.attempts, q.kind), (3, 3, "panicked"));
        assert!(q.repro_line().contains("index=3"), "{}", q.repro_line());
        assert!(run.report.render().contains("QUARANTINED: 1 task(s)"));
    }

    #[test]
    fn transient_forced_fault_retries_to_the_clean_digest() {
        let clean = supervised(&FleetConfig::new(1, 9), &FleetOptions::new());
        let faulted = FleetOptions::new()
            .with_retries(1)
            .with_faults(FaultPlan::seeded(77).on_nth_probe(FaultSite::FleetTask, 6));
        for jobs in [1usize, 2, 4, 8] {
            let run = supervised(&FleetConfig::new(jobs, 9), &faulted);
            assert_eq!(
                run.combined_digest(),
                clean.combined_digest(),
                "jobs={jobs}: retry must reproduce the clean digest"
            );
            assert_eq!(run.report.ledger.retries, 1, "jobs={jobs}");
            assert_eq!(run.report.ledger.injected_faults, 1, "jobs={jobs}");
            assert!(run.report.is_clean(), "jobs={jobs}");
        }
    }

    #[test]
    fn watchdog_times_out_injected_stalls() {
        // Rate 1.0 at FleetTask: every first attempt faults; with the
        // watchdog armed roughly half inject stalls. No retries, so
        // every task is quarantined either way — but the run returns.
        let opts = FleetOptions {
            task_budget: Some(Duration::from_millis(40)),
            stall_for: Duration::from_millis(400),
            faults: FaultPlan::seeded(5).with_rate(FaultSite::FleetTask, 1.0),
            ..FleetOptions::new()
        };
        let run = supervised(&FleetConfig::new(4, 5), &opts);
        assert_eq!(run.report.ledger.quarantined(), 8);
        assert!(
            run.report.ledger.timed_out >= 1,
            "some stalls must time out: {}",
            run.report.ledger.deterministic_fingerprint()
        );
        assert!(
            run.report.ledger.panicked >= 1,
            "some faults must panic: {}",
            run.report.ledger.deterministic_fingerprint()
        );
        for o in &run.outcomes {
            assert!(o.is_quarantined());
        }
        // With one retry, every task recovers: the injection draw at
        // attempt 1 comes from the same per-index lane, past the
        // attempt-0 draws, and the rate-1.0 verdict repeats... so use a
        // transient plan instead to prove timeout recovery.
        let transient = FleetOptions {
            task_budget: Some(Duration::from_millis(40)),
            stall_for: Duration::from_millis(400),
            max_retries: 1,
            faults: FaultPlan::seeded(5).on_nth_probe(FaultSite::FleetTask, 2),
            ..FleetOptions::new()
        };
        let clean = supervised(&FleetConfig::new(1, 5), &FleetOptions::new());
        let run = supervised(&FleetConfig::new(4, 5), &transient);
        assert!(run.report.is_clean());
        assert_eq!(run.combined_digest(), clean.combined_digest());
    }

    #[test]
    fn pre_cancelled_run_marks_every_task_cancelled() {
        let token = CancelToken::new();
        token.cancel();
        for jobs in [1usize, 4] {
            let run = supervised(
                &FleetConfig::new(jobs, 5),
                &FleetOptions::new().with_cancel(token.clone()),
            );
            assert_eq!(run.report.ledger.cancelled, 8, "jobs={jobs}");
            assert_eq!(run.report.ledger.ok, 0, "jobs={jobs}");
            assert_eq!(run.combined_digest(), None, "no digest for a cancelled run");
            for o in &run.outcomes {
                assert_eq!(o.tag(), "cancelled");
                assert!(!o.is_quarantined(), "cancelled is not a failure");
            }
        }
    }

    #[test]
    fn mid_run_cancellation_journals_finished_tasks_for_resume() {
        let token = CancelToken::new();
        let path = tmp("cancel");
        let opts = FleetOptions::new()
            .with_journal(&path)
            .with_cancel(token.clone());
        let run = run_fleet_supervised(
            &FleetConfig::new(1, 13),
            &opts,
            (0..8).collect(),
            {
                let token = token.clone();
                move |ctx, n: usize| {
                    let r = chain(ctx, n);
                    if n == 3 {
                        token.cancel(); // a deadline firing mid-study
                    }
                    r
                }
            },
            |r: &u64| *r,
        )
        .unwrap();
        assert_eq!(run.report.ledger.ok, 4);
        assert_eq!(run.report.ledger.cancelled, 4);
        assert_eq!(run.combined_digest(), None);

        // The four finished tasks were journaled; a resume runs only the
        // cancelled tail and lands on the uninterrupted digest.
        let clean = supervised(&FleetConfig::new(1, 13), &FleetOptions::new());
        let resumed = supervised(
            &FleetConfig::new(1, 13),
            &FleetOptions::new().resuming(&path),
        );
        assert_eq!(resumed.report.ledger.skipped, 4);
        assert_eq!(resumed.report.ledger.ok, 4);
        assert_eq!(resumed.combined_digest(), clean.combined_digest());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn journal_then_resume_reproduces_the_uninterrupted_digest() {
        let cfg = FleetConfig::new(2, 13);
        let clean = supervised(&cfg, &FleetOptions::new());

        // First run journals everything…
        let path = tmp("resume");
        let run = supervised(&cfg, &FleetOptions::new().with_journal(&path));
        assert_eq!(run.combined_digest(), clean.combined_digest());

        // …then the file is truncated to the header + half the tasks,
        // with a torn final line — exactly what a crash leaves behind.
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 9, "header + 8 tasks");
        let mut kept = lines[..5].join("\n");
        kept.push('\n');
        kept.push_str("kind=task index=6 outco"); // torn mid-write
        std::fs::write(&path, kept).unwrap();

        let schema = FleetJournal { seed: 13, items: 8 };
        let completed = droidsim_kernel::journal::replay(&path, &schema).unwrap();
        assert_eq!(completed.unwrap().len(), 4, "torn line discarded");

        let resumed = supervised(&cfg, &FleetOptions::new().resuming(&path));
        assert_eq!(resumed.report.ledger.skipped, 4);
        assert_eq!(resumed.report.ledger.ok, 4);
        assert_eq!(
            resumed.combined_digest(),
            clean.combined_digest(),
            "a resumed run must digest identically to an uninterrupted one"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_rejects_a_foreign_journal() {
        let path = tmp("foreign");
        let _ = supervised(
            &FleetConfig::new(1, 1),
            &FleetOptions::new().with_journal(&path),
        );
        let err = run_fleet_supervised(
            &FleetConfig::new(1, 2), // different seed
            &FleetOptions::new().resuming(&path),
            (0..8).collect(),
            chain,
            |r: &u64| *r,
        )
        .unwrap_err();
        assert!(err.to_string().contains("different run"), "got: {err}");
        let _ = std::fs::remove_file(&path);
    }

    /// The on-disk format, pinned: a jobs=1 journal with task 2
    /// quarantined, byte for byte, so journals already on disk resume.
    const PINNED_JOURNAL: &str = "kind=header seed=13 items=8\n\
        kind=task index=0 outcome=ok digest=a812b35aa693e654 attempts=1\n\
        kind=task index=1 outcome=ok digest=6d749c4603e69da1 attempts=1\n\
        kind=task index=2 outcome=quarantined digest= attempts=1\n\
        kind=task index=3 outcome=ok digest=7a9225aff3e2d431 attempts=1\n\
        kind=task index=4 outcome=ok digest=77f391e7e6a1ce24 attempts=1\n\
        kind=task index=5 outcome=ok digest=1d16c0dd44724dbf attempts=1\n\
        kind=task index=6 outcome=ok digest=b586c5aa32443f23 attempts=1\n\
        kind=task index=7 outcome=ok digest=721825a220d53dcf attempts=1\n";

    #[test]
    fn journal_keeps_its_pinned_bytes_and_old_journals_resume() {
        let cfg = FleetConfig::new(1, 13);
        let path = tmp("pinned");
        let _ = supervised(
            &cfg,
            &FleetOptions::new()
                .with_hard_fail(vec![2])
                .with_journal(&path),
        );
        assert_eq!(std::fs::read_to_string(&path).unwrap(), PINNED_JOURNAL);

        // A journal already on disk in this format replays and resumes:
        // only the quarantined task re-runs, and its record lands last.
        std::fs::write(&path, PINNED_JOURNAL).unwrap();
        let schema = FleetJournal { seed: 13, items: 8 };
        let completed = droidsim_kernel::journal::replay(&path, &schema).unwrap();
        let indices: Vec<usize> = completed.unwrap().into_keys().collect();
        assert_eq!(indices, [0, 1, 3, 4, 5, 6, 7]);
        let clean = supervised(&cfg, &FleetOptions::new());
        let resumed = supervised(&cfg, &FleetOptions::new().resuming(&path));
        assert_eq!(resumed.report.ledger.skipped, 7);
        assert_eq!(resumed.report.ledger.ok, 1);
        assert_eq!(resumed.combined_digest(), clean.combined_digest());
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            format!(
                "{PINNED_JOURNAL}kind=task index=2 outcome=ok digest={:016x} attempts=1\n",
                clean.digests[2].unwrap()
            )
        );
        let _ = std::fs::remove_file(&path);
    }
}
