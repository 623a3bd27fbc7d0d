//! Crash-safe supervision for fleet runs: panic isolation, bounded
//! deterministic retries, a per-task stall watchdog, and an append-only
//! checkpoint journal for resume.
//!
//! The plain [`run_fleet`](crate::run_fleet) contract is all-or-nothing:
//! every task must return. A night-long randomized campaign cannot
//! afford that — one organic panic at seed 4711 of 10 000 must not cost
//! the other 9 999 results. [`run_fleet_supervised`] therefore wraps
//! every task attempt in `catch_unwind` (the same boundary the
//! migration supervisor uses around app callbacks) and reports a typed
//! [`TaskOutcome`] per slot instead of unwinding through the pool:
//!
//! * a panicked or timed-out attempt is **requeued** up to
//!   [`FleetOptions::max_retries`] times, each retry re-deriving the
//!   *identical* `Xoshiro256::stream(seed, index)` context — so a
//!   transient fault's retry reproduces the same digest a fault-free
//!   run would have produced;
//! * a task that exhausts its retries is **quarantined**: its slot
//!   reports the failure (with a seed/index repro line) and every other
//!   slot still returns in item order;
//! * with a wall-clock [`FleetOptions::task_budget`], attempts run on a
//!   detached thread and a straggler is marked
//!   [`TaskOutcome::TimedOut`] instead of hanging the scope (the
//!   runaway thread is abandoned — it can no longer write into the
//!   run's slots);
//! * with a [`FleetOptions::journal`], every completed task appends one
//!   fsync'd `index/outcome/digest` line; a later run passing the same
//!   path as [`FleetOptions::resume`] skips the recorded indices and
//!   reuses their digests, so an interrupted study resumes instead of
//!   recomputing.
//!
//! Deterministic fault injection comes from
//! [`FaultSite::FleetTask`]: the driver probes the plan once per task
//! *attempt* through an order-independent per-index stream, so verdicts
//! do not depend on which worker claims which task, and a forced probe
//! (`on_nth_probe(FleetTask, index + 1)`) models a *transient* fault —
//! it strikes the first attempt only, and the retry succeeds.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use droidsim_faults::{FaultPlan, FaultSite};
use droidsim_kernel::journal::{self, Log};
use droidsim_metrics::FleetLedger;

use crate::{combine_ordered, CancelToken, FleetConfig, TaskCtx};

/// How one fleet task ended.
#[derive(Debug, Clone, PartialEq)]
pub enum TaskOutcome<R> {
    /// The task produced its result (possibly after retries).
    Ok(R),
    /// Every attempt panicked; the task is quarantined.
    Panicked {
        /// The final attempt's panic payload, rendered to text.
        payload: String,
        /// The fleet's root seed (for the repro line).
        seed: u64,
        /// The task's index in the submitted item list.
        index: usize,
        /// Attempts made (1 + retries).
        attempts: u32,
    },
    /// Every attempt overran the watchdog budget; the task is
    /// quarantined.
    TimedOut {
        /// The per-task wall-clock budget in force.
        budget: Duration,
        /// The fleet's root seed (for the repro line).
        seed: u64,
        /// The task's index in the submitted item list.
        index: usize,
        /// Attempts made (1 + retries).
        attempts: u32,
    },
    /// A resume journal already had this task's result; it was not
    /// re-run. The recorded digest stands in for the value.
    Skipped {
        /// The task's index in the submitted item list.
        index: usize,
        /// The digest the interrupted run recorded for this task.
        digest: u64,
    },
    /// The run's [`CancelToken`] was set before this task could start
    /// (or between its attempts); the task was never completed and is
    /// *not* journaled — a later resume re-runs it.
    Cancelled {
        /// The task's index in the submitted item list.
        index: usize,
    },
}

impl<R> TaskOutcome<R> {
    /// The result, when the task produced one this run.
    pub fn ok(&self) -> Option<&R> {
        match self {
            TaskOutcome::Ok(r) => Some(r),
            _ => None,
        }
    }

    /// Whether the slot holds a fresh result.
    pub fn is_ok(&self) -> bool {
        matches!(self, TaskOutcome::Ok(_))
    }

    /// Whether the task was quarantined (panicked or timed out).
    pub fn is_quarantined(&self) -> bool {
        matches!(
            self,
            TaskOutcome::Panicked { .. } | TaskOutcome::TimedOut { .. }
        )
    }

    /// A stable tag for journals and reports.
    pub fn tag(&self) -> &'static str {
        match self {
            TaskOutcome::Ok(_) => "ok",
            TaskOutcome::Panicked { .. } => "panicked",
            TaskOutcome::TimedOut { .. } => "timed-out",
            TaskOutcome::Skipped { .. } => "skipped",
            TaskOutcome::Cancelled { .. } => "cancelled",
        }
    }
}

/// Supervision knobs for [`run_fleet_supervised`]. The default is the
/// plain contract: no retries, no watchdog, no journal, no injection.
#[derive(Debug, Clone, Default)]
pub struct FleetOptions {
    /// Requeues per task after a panicked or timed-out attempt.
    pub max_retries: u32,
    /// Wall-clock budget per task attempt; `None` (the default)
    /// disables the watchdog. With a budget, each attempt runs on a
    /// detached thread so a straggler cannot hang the pool.
    pub task_budget: Option<Duration>,
    /// How long an injected stall sleeps; make it comfortably larger
    /// than `task_budget` so injected stalls time out deterministically.
    pub stall_for: Duration,
    /// Fault plan probed at [`FaultSite::FleetTask`] once per attempt.
    /// Rate faults draw from an order-independent per-index stream;
    /// forced probes (1-based task index) strike the first attempt only.
    pub faults: FaultPlan,
    /// Task indices that panic on *every* attempt — simulated
    /// hard-broken seeds that must end up in quarantine.
    pub hard_fail: Vec<usize>,
    /// Append one fsync'd line per completed task to this journal.
    pub journal: Option<PathBuf>,
    /// Skip tasks recorded `ok` in this journal (typically the same
    /// path as `journal`), reusing their recorded digests.
    pub resume: Option<PathBuf>,
    /// Cooperative cancellation: when the token fires, tasks not yet
    /// started (and failed tasks between retries) finish as
    /// [`TaskOutcome::Cancelled`] instead of running. `None` (the
    /// default) never cancels.
    pub cancel: Option<CancelToken>,
}

impl FleetOptions {
    /// The default plain contract (see type-level docs).
    pub fn new() -> FleetOptions {
        FleetOptions {
            stall_for: Duration::from_millis(400),
            ..FleetOptions::default()
        }
    }

    /// Sets the retry bound.
    pub fn with_retries(mut self, max_retries: u32) -> Self {
        self.max_retries = max_retries;
        self
    }

    /// Arms the stall watchdog with a per-attempt wall-clock budget.
    pub fn with_budget(mut self, budget: Duration) -> Self {
        self.task_budget = Some(budget);
        self
    }

    /// Installs a fault plan (probed at [`FaultSite::FleetTask`]).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Marks task indices as hard-broken (panic on every attempt).
    pub fn with_hard_fail(mut self, indices: Vec<usize>) -> Self {
        self.hard_fail = indices;
        self
    }

    /// Journals completed tasks to `path`.
    pub fn with_journal(mut self, path: impl Into<PathBuf>) -> Self {
        self.journal = Some(path.into());
        self
    }

    /// Resumes from `path`, also appending new completions to it.
    pub fn resuming(mut self, path: impl Into<PathBuf>) -> Self {
        let path = path.into();
        self.resume = Some(path.clone());
        self.journal = Some(path);
        self
    }

    /// Installs a cooperative cancellation token (see
    /// [`FleetOptions::cancel`]).
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }
}

/// A supervision failure that prevents the run from starting (the run
/// itself never fails — tasks do, individually).
#[derive(Debug)]
pub enum FleetError {
    /// Opening, reading or writing the journal failed.
    Io(std::io::Error),
    /// The resume journal does not match this run (wrong seed or item
    /// count, or an unreadable header).
    Journal(String),
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::Io(e) => write!(f, "fleet journal I/O: {e}"),
            FleetError::Journal(m) => write!(f, "fleet journal: {m}"),
        }
    }
}

impl std::error::Error for FleetError {}

impl From<std::io::Error> for FleetError {
    fn from(e: std::io::Error) -> Self {
        FleetError::Io(e)
    }
}

/// The checkpoint journal's schema: a `kind=header seed=… items=…` line
/// naming the run, then one `kind=task index=… outcome=… digest=…
/// attempts=…` record per finished task. The state a replay rebuilds is
/// the digest per task index recorded `ok`; quarantined tasks are not
/// completed, so a resumed run retries them. What a crash may cost is
/// [`droidsim_kernel::journal`]'s rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetJournal {
    /// The run's root seed.
    pub seed: u64,
    /// The run's item count.
    pub items: usize,
}

impl FleetJournal {
    /// One finished task's record; `digest` is recorded for `ok` only.
    fn task(index: usize, tag: &str, digest: Option<u64>, attempts: u32) -> [(&str, String); 5] {
        let digest = digest.map(|d| format!("{d:016x}")).unwrap_or_default();
        [
            ("kind", "task".to_owned()),
            ("index", index.to_string()),
            ("outcome", tag.to_owned()),
            ("digest", digest),
            ("attempts", attempts.to_string()),
        ]
    }
}

impl journal::Schema for FleetJournal {
    type State = BTreeMap<usize, u64>;
    type Error = FleetError;

    fn header(&self) -> String {
        journal::encode_line(&[
            ("kind", "header".to_owned()),
            ("seed", self.seed.to_string()),
            ("items", self.items.to_string()),
        ])
    }

    fn check_header(
        &self,
        path: &Path,
        header: &[(String, String)],
    ) -> Result<Self::State, FleetError> {
        if journal::field(header, "kind") != Some("header") {
            return Err(FleetError::Journal(format!(
                "{}: first line is not a header",
                path.display()
            )));
        }
        let recorded = |key| journal::field(header, key).unwrap_or("-");
        if recorded("seed").parse() != Ok(self.seed) || recorded("items").parse() != Ok(self.items)
        {
            return Err(FleetError::Journal(format!(
                "{} belongs to a different run (seed {} items {}, this run: seed {} items {})",
                path.display(),
                recorded("seed"),
                recorded("items"),
                self.seed,
                self.items
            )));
        }
        Ok(BTreeMap::new())
    }

    fn apply(&self, completed: &mut Self::State, record: &[(String, String)]) -> bool {
        let field = |key| journal::field(record, key);
        let index = field("index").and_then(|v| v.parse::<usize>().ok());
        match (field("kind"), index, field("outcome")) {
            (Some("task"), Some(i), Some("ok")) if i < self.items => {
                let Some(digest) = field("digest").and_then(|d| u64::from_str_radix(d, 16).ok())
                else {
                    return false;
                };
                completed.insert(i, digest);
                true
            }
            (Some("task"), Some(i), Some("quarantined")) => i < self.items,
            _ => false,
        }
    }
}

/// One quarantined task: everything needed to reproduce it alone.
#[derive(Debug, Clone, PartialEq)]
pub struct QuarantinedTask {
    /// The task's index in the submitted item list.
    pub index: usize,
    /// The fleet's root seed.
    pub seed: u64,
    /// Attempts made before giving up.
    pub attempts: u32,
    /// `"panicked"` or `"timed-out"`.
    pub kind: &'static str,
    /// The final panic payload (empty for timeouts).
    pub payload: String,
}

impl QuarantinedTask {
    /// A one-line repro recipe: rerun just this task, inline, with the
    /// exact RNG stream it had in the fleet.
    pub fn repro_line(&self) -> String {
        format!(
            "{} last-attempt={}{}",
            crate::repro(self.seed, self.index),
            self.kind,
            if self.payload.is_empty() {
                String::new()
            } else {
                format!(" payload={}", self.payload)
            }
        )
    }
}

/// Everything a supervised run observed besides the results themselves.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Outcome and retry accounting, folded in task-index order.
    pub ledger: FleetLedger,
    /// Tasks that exhausted their retries, in index order.
    pub quarantined: Vec<QuarantinedTask>,
    /// The run's root seed.
    pub seed: u64,
    /// The run's worker count.
    pub jobs: usize,
}

impl FleetReport {
    /// Whether every task produced (or resumed) a result.
    pub fn is_clean(&self) -> bool {
        self.quarantined.is_empty()
    }

    /// A human-readable quarantine report with one repro line per
    /// quarantined task (empty string when clean).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "fleet report: jobs={} seed={} {}\n",
            self.jobs,
            self.seed,
            self.ledger.deterministic_fingerprint()
        ));
        if self.quarantined.is_empty() {
            out.push_str("quarantine: empty\n");
        } else {
            out.push_str(&format!(
                "QUARANTINED: {} task(s) lost after retries\n",
                self.quarantined.len()
            ));
            for q in &self.quarantined {
                out.push_str(&format!(
                    "  index {:>4}: {} after {} attempt(s); {}\n",
                    q.index,
                    q.kind,
                    q.attempts,
                    q.repro_line()
                ));
            }
        }
        out
    }
}

/// A supervised run: per-task outcomes in item order, per-task digests
/// (fresh or resumed), and the report.
#[derive(Debug)]
pub struct FleetRun<R> {
    /// One outcome per submitted item, in item order.
    pub outcomes: Vec<TaskOutcome<R>>,
    /// One digest per item — `Some` for `Ok` (computed by `digest_of`)
    /// and `Skipped` (recorded by the interrupted run), `None` for
    /// quarantined slots.
    pub digests: Vec<Option<u64>>,
    /// Outcome accounting and the quarantine list.
    pub report: FleetReport,
}

impl<R> FleetRun<R> {
    /// The study digest: the per-task digests folded in item order.
    /// `None` when any task is quarantined — a partial run has no
    /// comparable digest.
    pub fn combined_digest(&self) -> Option<u64> {
        self.digests
            .iter()
            .copied()
            .collect::<Option<Vec<u64>>>()
            .map(combine_ordered)
    }

    /// The study digest under the **unordered** index-tagged merge
    /// ([`combine_indexed`](crate::combine_indexed)): the value a
    /// streaming reducer that merges digests as tasks complete would
    /// produce. Deterministic for any worker count; `None` when any
    /// task is quarantined.
    pub fn combined_digest_unordered(&self) -> Option<u64> {
        let tagged: Option<Vec<(u64, u64)>> = self
            .digests
            .iter()
            .enumerate()
            .map(|(i, d)| d.map(|d| (i as u64, d)))
            .collect();
        tagged.map(crate::combine_indexed)
    }
}

/// What one injected fleet-task fault does to the attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum InjectedKind {
    Panic,
    Stall,
}

/// The deterministic injection verdict for `(index, attempt)`.
///
/// Order-independent by construction: the draw comes from the plan's
/// per-site stream at lane `index`, advanced two draws per attempt —
/// no shared counter, so worker scheduling cannot perturb it. Forced
/// probes model transient faults (first attempt only); `hard_fail`
/// models hard-broken tasks (every attempt).
fn injected_fault(opts: &FleetOptions, index: usize, attempt: u32) -> Option<InjectedKind> {
    if opts.hard_fail.contains(&index) {
        return Some(InjectedKind::Panic);
    }
    let site = FaultSite::FleetTask;
    let forced = attempt == 0
        && opts
            .faults
            .forced_probes(site)
            .contains(&(index as u64 + 1));
    let rate = opts.faults.rate(site);
    if !forced && rate <= 0.0 {
        return None;
    }
    let mut lane = opts.faults.site_stream(site, index as u64);
    for _ in 0..attempt {
        lane.next_f64();
        lane.next_f64();
    }
    let strikes = lane.next_f64() < rate;
    let wants_stall = lane.next_f64() < 0.5;
    if !(forced || strikes) {
        return None;
    }
    // Stalls need the watchdog to be observable; without a budget the
    // injection degrades to a panic so it cannot hang the run.
    Some(if wants_stall && opts.task_budget.is_some() {
        InjectedKind::Stall
    } else {
        InjectedKind::Panic
    })
}

/// The message a caught panic carried: its `&str` or `String` payload,
/// or a placeholder for any other payload type.
pub fn payload_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_owned()
    }
}

enum Attempt<R> {
    Done(R),
    Panicked(String),
    TimedOut,
}

/// Runs one attempt, isolated. Without a budget the attempt runs inline
/// behind `catch_unwind`; with one it runs on a detached thread and the
/// caller waits at most `budget` — a straggler is abandoned, its result
/// channel dropped.
fn run_attempt<T, R, F>(
    run: &Arc<F>,
    seed: u64,
    index: usize,
    item: T,
    fault: Option<InjectedKind>,
    budget: Option<Duration>,
    stall_for: Duration,
) -> Attempt<R>
where
    T: Send + 'static,
    R: Send + 'static,
    F: Fn(TaskCtx, T) -> R + Send + Sync + 'static,
{
    let body = {
        let run = Arc::clone(run);
        move || {
            if let Some(InjectedKind::Stall) = fault {
                std::thread::sleep(stall_for);
            }
            if let Some(InjectedKind::Panic) = fault {
                // Unwind without the panic hook: the fleet isolates and
                // retries an injected fault, so printing a panic block
                // for it would read like a failure. Organic panics in
                // the task still go through the hook.
                std::panic::resume_unwind(Box::new("injected fleet-task fault"));
            }
            run(TaskCtx::stream(seed, index), item)
        }
    };
    match budget {
        None => match catch_unwind(AssertUnwindSafe(body)) {
            Ok(r) => Attempt::Done(r),
            Err(p) => Attempt::Panicked(payload_text(p)),
        },
        Some(budget) => {
            let (tx, rx) = mpsc::channel();
            std::thread::spawn(move || {
                let out = catch_unwind(AssertUnwindSafe(body)).map_err(payload_text);
                let _ = tx.send(out);
            });
            match rx.recv_timeout(budget) {
                Ok(Ok(r)) => Attempt::Done(r),
                Ok(Err(p)) => Attempt::Panicked(p),
                Err(_) => Attempt::TimedOut,
            }
        }
    }
}

/// Per-slot bookkeeping a worker fills and the reducer folds.
struct TaskRecord<R> {
    outcome: TaskOutcome<R>,
    digest: Option<u64>,
    retries: u32,
    injected: u32,
    panicked_attempts: u32,
    timed_out_attempts: u32,
}

impl<R> TaskRecord<R> {
    fn new(outcome: TaskOutcome<R>, digest: Option<u64>) -> TaskRecord<R> {
        TaskRecord {
            outcome,
            digest,
            retries: 0,
            injected: 0,
            panicked_attempts: 0,
            timed_out_attempts: 0,
        }
    }
}

fn lock<X>(m: &Mutex<X>) -> std::sync::MutexGuard<'_, X> {
    // Workers never panic while holding a lock (every attempt is behind
    // catch_unwind), but a poisoned mutex must still not poison the
    // whole fleet: take the data regardless.
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Runs `run` over every item like [`run_fleet`](crate::run_fleet), but
/// crash-safe: the returned [`FleetRun`] has one [`TaskOutcome`] per
/// item in item order, and a failing task quarantines instead of
/// aborting the pool. `digest_of` maps a result to the 64-bit digest
/// recorded in journals and folded into [`FleetRun::combined_digest`].
///
/// Determinism: for a given `(cfg.seed, items, opts.faults)` the
/// outcomes and digests are identical for any worker count, and a task
/// whose transient fault was retried produces the same digest as in a
/// fault-free run (the retry re-derives the identical RNG stream).
pub fn run_fleet_supervised<T, R, F, D>(
    cfg: &FleetConfig,
    opts: &FleetOptions,
    items: Vec<T>,
    run: F,
    digest_of: D,
) -> Result<FleetRun<R>, FleetError>
where
    T: Clone + Send + Sync + 'static,
    R: Send + 'static,
    F: Fn(TaskCtx, T) -> R + Send + Sync + 'static,
    D: Fn(&R) -> u64 + Sync,
{
    let n = items.len();
    let schema = FleetJournal {
        seed: cfg.seed,
        items: n,
    };
    let (journal, recorded) = match &opts.journal {
        Some(path) => {
            let (log, recorded) = Log::open(path, &schema, ())?;
            (Some(Mutex::new(log)), recorded)
        }
        None => (None, BTreeMap::new()),
    };
    // A resume usually appends to the journal it resumes from, which the
    // open above has already read.
    let resumed = match &opts.resume {
        Some(path) if opts.journal.as_ref() == Some(path) => recorded,
        Some(path) if path.exists() => journal::replay(path, &schema)?.unwrap_or_default(),
        _ => BTreeMap::new(),
    };

    let run = Arc::new(run);
    let records: Vec<Mutex<Option<TaskRecord<R>>>> = (0..n).map(|_| Mutex::new(None)).collect();

    let cancelled = || opts.cancel.as_ref().is_some_and(CancelToken::is_cancelled);
    let worker_body = |i: usize| {
        if let Some(&digest) = resumed.get(&i) {
            let skipped = TaskOutcome::Skipped { index: i, digest };
            *lock(&records[i]) = Some(TaskRecord::new(skipped, Some(digest)));
            return;
        }
        // The outcome is a placeholder until the attempt loop ends.
        let mut rec = TaskRecord::new(TaskOutcome::Cancelled { index: i }, None);
        let mut attempt: u32 = 0;
        let mut last_panic = String::new();
        let mut last_was_timeout;
        loop {
            if cancelled() {
                // Not journaled: a resumed run must re-run this task.
                rec.outcome = TaskOutcome::Cancelled { index: i };
                break;
            }
            let fault = injected_fault(opts, i, attempt);
            if fault.is_some() {
                rec.injected += 1;
            }
            let result = run_attempt(
                &run,
                cfg.seed,
                i,
                items[i].clone(),
                fault,
                opts.task_budget,
                opts.stall_for,
            );
            match result {
                Attempt::Done(r) => {
                    let digest = digest_of(&r);
                    if let Some(j) = &journal {
                        let _ =
                            lock(j).append(&FleetJournal::task(i, "ok", Some(digest), attempt + 1));
                    }
                    rec.digest = Some(digest);
                    rec.outcome = TaskOutcome::Ok(r);
                    break;
                }
                Attempt::Panicked(payload) => {
                    rec.panicked_attempts += 1;
                    last_panic = payload;
                    last_was_timeout = false;
                }
                Attempt::TimedOut => {
                    rec.timed_out_attempts += 1;
                    last_was_timeout = true;
                }
            }
            if attempt < opts.max_retries {
                attempt += 1;
                rec.retries += 1;
                continue;
            }
            if let Some(j) = &journal {
                let _ = lock(j).append(&FleetJournal::task(i, "quarantined", None, attempt + 1));
            }
            rec.outcome = if last_was_timeout {
                TaskOutcome::TimedOut {
                    budget: opts.task_budget.unwrap_or_default(),
                    seed: cfg.seed,
                    index: i,
                    attempts: attempt + 1,
                }
            } else {
                TaskOutcome::Panicked {
                    payload: last_panic.clone(),
                    seed: cfg.seed,
                    index: i,
                    attempts: attempt + 1,
                }
            };
            break;
        }
        *lock(&records[i]) = Some(rec);
    };

    // Chunked claiming: early claims take a batch of indices per cursor
    // RMW, shrinking to single tasks near the tail — the shared
    // `run_claiming_pool` skeleton (see `claim_chunk`), which also runs
    // a one-worker fleet inline.
    crate::run_claiming_pool(cfg.jobs, n, |range| {
        for i in range {
            worker_body(i);
        }
    });

    // Fold the slots in task-index order — the same contract as plain
    // run_fleet's reducer, so the report is reproducible for any worker
    // count.
    let mut ledger = FleetLedger::new();
    let mut quarantined = Vec::new();
    let mut outcomes = Vec::with_capacity(n);
    let mut digests = Vec::with_capacity(n);
    for (i, slot) in records.into_iter().enumerate() {
        let rec = lock(&slot)
            .take()
            .unwrap_or_else(|| panic!("fleet slot {i} was never filled"));
        match &rec.outcome {
            TaskOutcome::Ok(_) => ledger.ok += 1,
            TaskOutcome::Skipped { .. } => ledger.skipped += 1,
            TaskOutcome::Cancelled { .. } => ledger.cancelled += 1,
            TaskOutcome::Panicked {
                payload, attempts, ..
            } => {
                ledger.panicked += 1;
                quarantined.push(QuarantinedTask {
                    index: i,
                    seed: cfg.seed,
                    attempts: *attempts,
                    kind: "panicked",
                    payload: payload.clone(),
                });
            }
            TaskOutcome::TimedOut { attempts, .. } => {
                ledger.timed_out += 1;
                quarantined.push(QuarantinedTask {
                    index: i,
                    seed: cfg.seed,
                    attempts: *attempts,
                    kind: "timed-out",
                    payload: String::new(),
                });
            }
        }
        ledger.retries += u64::from(rec.retries);
        ledger.panicked_attempts += u64::from(rec.panicked_attempts);
        ledger.timed_out_attempts += u64::from(rec.timed_out_attempts);
        ledger.injected_faults += u64::from(rec.injected);
        digests.push(rec.digest);
        outcomes.push(rec.outcome);
    }
    Ok(FleetRun {
        outcomes,
        digests,
        report: FleetReport {
            ledger,
            quarantined,
            seed: cfg.seed,
            jobs: cfg.jobs,
        },
    })
}
