//! The daemon core: admission, scheduling, durability, shedding.
//!
//! A [`Daemon`] glues four pieces together around a pluggable
//! [`JobExecutor`]:
//!
//! * the [`AdmissionQueue`] — bounded, priority-aware, explicit about
//!   every refusal and displacement;
//! * a persistent worker pool — plain threads looping on
//!   [`AdmissionQueue::pop`], each job body isolated behind
//!   `catch_unwind` exactly like a fleet task attempt;
//! * the [`DaemonJournal`] — *accept-before-ack*: a submission is
//!   fsync'd before the client hears `accepted`, every terminal state
//!   is fsync'd when entered, and [`Daemon::start`] replays the
//!   journal so acknowledged-but-incomplete jobs from a crashed
//!   previous life are re-queued (counted in `resumed`);
//! * a watchdog thread — enforces per-job wall-clock deadlines
//!   (re-using the cooperative [`CancelToken`] machinery the fleet
//!   driver honors between attempts) and runs the memory-pressure
//!   reclaim pass, shedding the lowest-priority queued class with an
//!   explicit terminal `shed` state.
//!
//! **Zero silent drops.** Every submission ends in exactly one of:
//! an `accepted` ack followed by a terminal `done`/`failed`/
//! `cancelled`/`shed` state (observable via `status`/`wait`, durable in
//! the journal), or an explicit `rejected` response. Shutdown in
//! [`ShutdownMode::Now`] *parks* instead of dropping: queued and
//! cancelled-by-shutdown jobs keep their journal entries incomplete,
//! which is precisely what makes the next start resume them.

use std::collections::BTreeMap;
use std::os::unix::fs::MetadataExt;
use std::os::unix::net::UnixStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use droidsim_faults::{FaultPlan, FaultSite};
use droidsim_fleet::{payload_text, CancelToken};
use droidsim_kernel::journal;
use droidsim_metrics::{DaemonLedger, FleetLedger};

use crate::faultio::IoFaults;
use crate::headroom::HeadroomProbe;
use crate::journal::{DaemonJournal, JournalView};
use crate::queue::{AdmissionQueue, Admit, QueuedJob};
use crate::spec::{JobSpec, JobState, Priority};
use crate::DaemonError;

/// Executes one accepted job. Implementations must be cooperative:
/// poll [`JobControl::cancel`] (or hand it to a supervised fleet run)
/// so deadlines, client cancels and fast shutdown all work.
pub trait JobExecutor: Send + Sync + 'static {
    /// Runs `spec` to a verdict. Panics are caught by the pool and
    /// reported as [`JobVerdict::Failed`] — they never take a worker
    /// down.
    fn execute(&self, spec: &JobSpec, ctl: &JobControl) -> JobVerdict;
}

/// Everything an executor needs besides the spec.
#[derive(Debug, Clone)]
pub struct JobControl {
    /// The daemon-assigned job id.
    pub id: u64,
    /// Fires on client cancel, blown deadline, or fast shutdown.
    pub cancel: CancelToken,
    /// Where this job's *fleet* journal lives (when the daemon is
    /// journaling): pass it to `FleetOptions::resuming` so a job
    /// interrupted mid-study resumes task-by-task after a restart.
    pub fleet_journal: Option<PathBuf>,
}

/// How an execution ended.
#[derive(Debug, Clone)]
pub enum JobVerdict {
    /// Clean finish with the study digest.
    Done {
        /// The study's combined digest.
        digest: u64,
        /// The job's fleet ledger, folded into the daemon's totals.
        fleet: FleetLedger,
    },
    /// The study could not produce a comparable result.
    Failed {
        /// What went wrong.
        reason: String,
    },
    /// The executor observed the cancel token and stopped early.
    Cancelled {
        /// The executor's view of why (usually overridden by the
        /// daemon's recorded cancel reason).
        reason: String,
    },
}

/// Construction-time knobs for [`Daemon::start`].
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Admission-queue bound (≥ 1). A full queue rejects or displaces —
    /// it never grows.
    pub queue_capacity: usize,
    /// Pool worker threads (≥ 1): jobs executing concurrently.
    pub workers: usize,
    /// Where the daemon journal (`daemon.journal`) and per-job fleet
    /// journals (`job-<id>.fleet`) live. `None` disables durability —
    /// a restart then resumes nothing.
    pub journal_dir: Option<PathBuf>,
    /// The memory-pressure probe driving the reclaim pass.
    pub headroom: HeadroomProbe,
    /// Fault plan probed once per submission at
    /// [`FaultSite::Admission`].
    pub admission_faults: FaultPlan,
    /// I/O fault shim threaded into the journal (and shareable with
    /// the socket server). Disarmed by default.
    pub io_faults: IoFaults,
    /// Watchdog cadence for deadline checks and reclaim passes.
    pub tick: Duration,
}

impl Default for DaemonConfig {
    fn default() -> DaemonConfig {
        DaemonConfig {
            queue_capacity: 16,
            workers: 2,
            journal_dir: None,
            headroom: HeadroomProbe::disabled(),
            admission_faults: FaultPlan::disarmed(),
            io_faults: IoFaults::disarmed(),
            tick: Duration::from_millis(25),
        }
    }
}

impl DaemonConfig {
    /// The defaults: capacity 16, two workers, no journal, no probe.
    pub fn new() -> DaemonConfig {
        DaemonConfig::default()
    }

    /// Sets the admission-queue bound.
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Sets the pool size.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Enables durability under `dir`.
    pub fn with_journal_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.journal_dir = Some(dir.into());
        self
    }

    /// Installs a headroom probe.
    pub fn with_headroom(mut self, probe: HeadroomProbe) -> Self {
        self.headroom = probe;
        self
    }

    /// Installs an admission fault plan.
    pub fn with_admission_faults(mut self, plan: FaultPlan) -> Self {
        self.admission_faults = plan;
        self
    }

    /// Installs an I/O fault shim (shared with the server for socket
    /// faults when both get the same handle).
    pub fn with_io_faults(mut self, io: IoFaults) -> Self {
        self.io_faults = io;
        self
    }

    /// Sets the watchdog cadence.
    pub fn with_tick(mut self, tick: Duration) -> Self {
        self.tick = tick;
        self
    }
}

/// The daemon's answer to one submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Admission {
    /// Journaled and queued; the id is live immediately.
    Accepted {
        /// The assigned job id.
        id: u64,
        /// Queue depth right after admission.
        queue_depth: usize,
    },
    /// Refused, with the reason the client is told. Nothing was
    /// journaled; the submission left no trace but this response.
    Rejected {
        /// Why (`queue-full`, `memory-pressure`, `shutting-down`,
        /// `bad-spec: …`, `injected-admission-fault`,
        /// `journal-degraded`, …).
        reason: String,
    },
    /// The spec's `dedupe_key` matched an already-accepted job: nothing
    /// new was scheduled, nothing was journaled. The original job's id
    /// is returned so a client retrying after a lost ack converges on
    /// the one real execution.
    Duplicate {
        /// The originally assigned job id.
        id: u64,
    },
}

/// A point-in-time view of one job, for `status`/`wait` responses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobStatus {
    /// The job id.
    pub id: u64,
    /// Lifecycle state (terminal states carry digest/reason).
    pub state: JobState,
    /// The job's priority.
    pub priority: Priority,
    /// The client's label (possibly empty).
    pub tag: String,
}

impl JobStatus {
    /// The status as response-line fields.
    pub fn kv_fields(&self) -> Vec<(&'static str, String)> {
        let mut out = vec![("job_id", self.id.to_string())];
        out.extend(self.state.kv_fields());
        out.push(("priority", self.priority.name().to_owned()));
        if !self.tag.is_empty() {
            out.push(("tag", self.tag.clone()));
        }
        out
    }

    /// Rebuilds a status from decoded response fields.
    pub fn from_fields(fields: &[(String, String)]) -> Result<JobStatus, String> {
        let id = journal::field(fields, "job_id")
            .and_then(|v| v.parse().ok())
            .ok_or("missing job_id= field")?;
        let state = JobState::from_fields(fields)?;
        let priority = journal::field(fields, "priority")
            .and_then(Priority::parse)
            .unwrap_or(Priority::Normal);
        let tag = journal::field(fields, "tag").unwrap_or("").to_owned();
        Ok(JobStatus {
            id,
            state,
            priority,
            tag,
        })
    }
}

/// How [`Daemon::shutdown`] stops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShutdownMode {
    /// Stop accepting, run the queue dry, then stop. Every accepted
    /// job settles before this returns.
    Drain,
    /// Stop accepting and stop fast: running jobs are cancelled via
    /// their tokens and **parked** (journal entry left incomplete),
    /// queued jobs stay parked too — the next start resumes all of
    /// them. Nothing is lost, just postponed.
    Now,
}

impl ShutdownMode {
    /// The wire tag.
    pub fn name(self) -> &'static str {
        match self {
            ShutdownMode::Drain => "drain",
            ShutdownMode::Now => "now",
        }
    }

    /// Parses a wire tag.
    pub fn parse(tag: &str) -> Option<ShutdownMode> {
        match tag {
            "drain" => Some(ShutdownMode::Drain),
            "now" => Some(ShutdownMode::Now),
            _ => None,
        }
    }
}

/// A point-in-time telemetry snapshot (the `stats` endpoint's payload).
#[derive(Debug, Clone)]
pub struct DaemonStats {
    /// Admission/outcome counters, with the queue gauge and the
    /// allocation counter refreshed at snapshot time.
    pub ledger: DaemonLedger,
    /// Fleet ledgers of every job completed this daemon life, merged.
    pub fleet: FleetLedger,
    /// Pool size.
    pub workers: usize,
    /// Admission-queue bound.
    pub queue_capacity: usize,
    /// Whether shutdown has begun.
    pub draining: bool,
}

struct JobEntry {
    spec: JobSpec,
    state: JobState,
    cancel: CancelToken,
    deadline: Option<Instant>,
    cancel_reason: Option<String>,
    parked: bool,
}

struct AdmissionGate {
    faults: FaultPlan,
    next_id: u64,
    /// `dedupe_key` → original job id, for every accepted job that
    /// supplied a key. Rebuilt from the journal on start, so
    /// idempotency holds across restarts.
    dedupe: BTreeMap<String, u64>,
}

struct Shared {
    executor: Box<dyn JobExecutor>,
    queue: AdmissionQueue,
    jobs: Mutex<BTreeMap<u64, JobEntry>>,
    settled: Condvar,
    ledger: Mutex<DaemonLedger>,
    fleet_totals: Mutex<FleetLedger>,
    journal: Mutex<Option<DaemonJournal>>,
    /// Terminal states owed to the journal: settles whose
    /// `record_state` failed while the journal was refusing writes.
    /// The watchdog's recovery probe drains this before re-arming.
    journal_backlog: Mutex<Vec<(u64, JobState)>>,
    gate: Mutex<AdmissionGate>,
    draining: AtomicBool,
    /// Journal writes are failing: reject new submissions
    /// (`journal-degraded`), finish in-flight work, probe for
    /// recovery. Cleared by the watchdog once writes succeed again.
    degraded: AtomicBool,
    stop_now: AtomicBool,
    stopped: AtomicBool,
    /// The watchdog waits out each tick on this, and a stop notifies
    /// it, so a stop never waits for the watchdog's next tick.
    stop_wake: Condvar,
    /// The lock `stop_wake` waits under. A stop takes it between
    /// setting `stopped` and notifying, so its wake cannot fall between
    /// the watchdog's check of `stopped` and its wait.
    pace: Mutex<()>,
    /// The sockets whose accept loops a stop must wake
    /// ([`Daemon::wake_on_stop`]), each with the inode it was bound as.
    listeners: Mutex<Vec<(PathBuf, u64)>>,
    allocs_at_start: u64,
    journal_dir: Option<PathBuf>,
    headroom: HeadroomProbe,
    tick: Duration,
    workers: usize,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Connects once to `socket` if the path still names the file bound as
/// `inode` (another file would lead to another listener): the
/// connection returns the accept blocked on it.
fn wake_accept(socket: &Path, inode: u64) -> std::io::Result<()> {
    if std::fs::metadata(socket)?.ino() != inode {
        return Err(std::io::Error::other("the socket file was replaced"));
    }
    UnixStream::connect(socket).map(drop)
}

/// The resident scheduler (see module docs). Construct with
/// [`Daemon::start`]; stop with [`Daemon::shutdown`].
pub struct Daemon {
    shared: Arc<Shared>,
    pool: Mutex<Vec<JoinHandle<()>>>,
    watchdog: Mutex<Option<JoinHandle<()>>>,
}

impl Daemon {
    /// Builds the daemon: replays the journal (re-queuing acknowledged
    /// incomplete jobs), then spawns the worker pool and the watchdog.
    pub fn start(cfg: DaemonConfig, executor: impl JobExecutor) -> Result<Daemon, DaemonError> {
        let (journal, view) = match &cfg.journal_dir {
            Some(dir) => {
                std::fs::create_dir_all(dir)?;
                let path = dir.join("daemon.journal");
                let (journal, view) = DaemonJournal::open(&path, cfg.io_faults.clone())?;
                (Some(journal), view)
            }
            None => (
                None,
                JournalView {
                    next_id: 1,
                    ..JournalView::default()
                },
            ),
        };

        // Reconstruct the ledger so `in_flight` reconciles across the
        // restart: settled previous-life jobs count as accepted+settled,
        // incomplete ones count *only* as resumed (they re-settle in
        // this life).
        let mut ledger = DaemonLedger::new();
        let mut jobs = BTreeMap::new();
        let mut resume = Vec::new();
        // Rebuild the idempotency map (view iterates in id order, so
        // the *first* acceptance of a key wins, matching live order).
        let mut dedupe = BTreeMap::new();
        for j in view.jobs.values() {
            if !j.spec.dedupe_key.is_empty() {
                dedupe.entry(j.spec.dedupe_key.clone()).or_insert(j.id);
            }
        }
        for j in view.jobs.values() {
            let state = match &j.terminal {
                Some(state) => {
                    ledger.accepted += 1;
                    match state {
                        JobState::Done { .. } => ledger.completed += 1,
                        JobState::Failed { .. } => ledger.failed += 1,
                        JobState::Cancelled { .. } => ledger.cancelled += 1,
                        JobState::Shed { .. } => ledger.shed += 1,
                        JobState::Queued | JobState::Running => {
                            unreachable!("non-terminal journaled")
                        }
                    }
                    state.clone()
                }
                None => {
                    ledger.resumed += 1;
                    resume.push(QueuedJob {
                        id: j.id,
                        spec: j.spec.clone(),
                    });
                    JobState::Queued
                }
            };
            jobs.insert(
                j.id,
                JobEntry {
                    spec: j.spec.clone(),
                    state,
                    cancel: CancelToken::new(),
                    // The original acceptance instant is gone; a
                    // deadline re-arms from resume.
                    deadline: j
                        .spec
                        .deadline_ms
                        .map(|ms| Instant::now() + Duration::from_millis(ms)),
                    cancel_reason: None,
                    parked: false,
                },
            );
        }

        let shared = Arc::new(Shared {
            executor: Box::new(executor),
            queue: AdmissionQueue::new(cfg.queue_capacity),
            jobs: Mutex::new(jobs),
            settled: Condvar::new(),
            ledger: Mutex::new(ledger),
            fleet_totals: Mutex::new(FleetLedger::new()),
            journal: Mutex::new(journal),
            journal_backlog: Mutex::new(Vec::new()),
            gate: Mutex::new(AdmissionGate {
                faults: cfg.admission_faults.clone(),
                next_id: view.next_id,
                dedupe,
            }),
            draining: AtomicBool::new(false),
            degraded: AtomicBool::new(false),
            stop_now: AtomicBool::new(false),
            stopped: AtomicBool::new(false),
            stop_wake: Condvar::new(),
            pace: Mutex::new(()),
            listeners: Mutex::new(Vec::new()),
            allocs_at_start: droidsim_kernel::alloc_track::current(),
            journal_dir: cfg.journal_dir.clone(),
            headroom: cfg.headroom.clone(),
            tick: cfg.tick,
            workers: cfg.workers.max(1),
        });

        // Acknowledged promises first: resumed jobs enter the queue (in
        // id order, bypassing capacity) before any new submission can.
        for job in resume {
            shared.queue.push_resumed(job);
        }

        let pool = (0..shared.workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        let watchdog = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || watchdog_loop(&shared))
        };
        Ok(Daemon {
            shared,
            pool: Mutex::new(pool),
            watchdog: Mutex::new(Some(watchdog)),
        })
    }

    /// Submits one job: validate → admission-fault probe → dedupe
    /// lookup → degraded check → pressure check → queue decision →
    /// **journal (fsync)** → enqueue → ack. The whole sequence is
    /// serialized on the admission gate so the queue decision cannot be
    /// invalidated before the enqueue (pops only shrink the queue).
    pub fn submit(&self, spec: JobSpec) -> Admission {
        let shared = &self.shared;
        if shared.draining.load(Ordering::Acquire) || shared.stop_now.load(Ordering::Acquire) {
            return self.reject("shutting-down", false);
        }
        if let Err(e) = spec.validate() {
            return self.reject(&format!("bad-spec: {e}"), false);
        }
        let mut gate = lock(&shared.gate);
        if gate.faults.should_inject(FaultSite::Admission) {
            return self.reject("injected-admission-fault", true);
        }
        // Idempotency first: a retry of an already-accepted submission
        // converges on the original id even while degraded or under
        // pressure — the original's journal record is the promise.
        if !spec.dedupe_key.is_empty() {
            if let Some(&original) = gate.dedupe.get(&spec.dedupe_key) {
                lock(&shared.ledger).dedupe_hits += 1;
                return Admission::Duplicate { id: original };
            }
        }
        if shared.degraded.load(Ordering::Acquire) {
            // The journal is refusing writes: accepting would mean
            // acking unjournaled work. Reject explicitly; the watchdog
            // probes for recovery. (Not touching the journal here keeps
            // the probe sequence deterministic for seeded fault plans.)
            return self.reject("journal-degraded", false);
        }
        if shared.headroom.under_pressure() && spec.priority < Priority::High {
            // Load shedding at the door: cheaper than queuing work the
            // reclaim pass would immediately shed again.
            return self.reject("memory-pressure", false);
        }
        if !shared.queue.would_admit(spec.priority) {
            return self.reject("queue-full", false);
        }
        let id = gate.next_id;
        gate.next_id += 1;
        lock(&shared.jobs).insert(
            id,
            JobEntry {
                spec: spec.clone(),
                state: JobState::Queued,
                cancel: CancelToken::new(),
                deadline: spec
                    .deadline_ms
                    .map(|ms| Instant::now() + Duration::from_millis(ms)),
                cancel_reason: None,
                parked: false,
            },
        );
        // Accept-before-ack: the fsync'd journal record is the promise.
        let journal_failed = {
            let mut journal = lock(&shared.journal);
            match journal.as_mut() {
                Some(j) => j.record_accepted(id, &spec).is_err(),
                None => false,
            }
        };
        if journal_failed {
            // Never ack unjournaled work: withdraw the entry, enter
            // degraded, and tell the client exactly why. The id is
            // burned, not reused — ids only ever move forward.
            lock(&shared.jobs).remove(&id);
            note_journal_fault(shared);
            return self.reject("journal-degraded", false);
        }
        if !spec.dedupe_key.is_empty() {
            gate.dedupe.insert(spec.dedupe_key.clone(), id);
        }
        let depth = match shared.queue.try_admit(QueuedJob { id, spec }) {
            Admit::Queued { depth } => depth,
            Admit::Displaced { shed, depth } => {
                settle(
                    shared,
                    shed.id,
                    JobState::Shed {
                        reason: "displaced-by-higher-priority".to_owned(),
                    },
                );
                depth
            }
            Admit::Full => {
                // Defensively unreachable (`would_admit` held under the
                // gate): keep the no-silent-drop contract anyway by
                // shedding *explicitly* — the ack stands, the status
                // says shed.
                settle(
                    shared,
                    id,
                    JobState::Shed {
                        reason: "admission-race".to_owned(),
                    },
                );
                shared.queue.depth()
            }
        };
        let mut ledger = lock(&shared.ledger);
        ledger.accepted += 1;
        ledger.observe_queue_depth(depth as u64);
        Admission::Accepted {
            id,
            queue_depth: depth,
        }
    }

    fn reject(&self, reason: &str, injected: bool) -> Admission {
        let mut ledger = lock(&self.shared.ledger);
        ledger.rejected += 1;
        if injected {
            ledger.rejected_injected += 1;
        }
        Admission::Rejected {
            reason: reason.to_owned(),
        }
    }

    /// The job's current status, `None` for an unknown id.
    pub fn status(&self, id: u64) -> Option<JobStatus> {
        let jobs = lock(&self.shared.jobs);
        jobs.get(&id).map(|e| status_of(id, e))
    }

    /// Blocks until the job settles or `timeout` elapses; returns the
    /// status either way (`None` only for an unknown id).
    pub fn wait(&self, id: u64, timeout: Duration) -> Option<JobStatus> {
        let deadline = Instant::now() + timeout;
        let mut jobs = lock(&self.shared.jobs);
        loop {
            let entry = jobs.get(&id)?;
            if entry.state.is_terminal() {
                return Some(status_of(id, entry));
            }
            let now = Instant::now();
            if now >= deadline {
                return Some(status_of(id, entry));
            }
            let wait_for = (deadline - now).min(Duration::from_millis(50));
            let (guard, _) = self
                .shared
                .settled
                .wait_timeout(jobs, wait_for)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            jobs = guard;
        }
    }

    /// Cooperatively cancels a job: a still-queued job settles
    /// `cancelled` immediately, a running one when its executor
    /// observes the token. Returns the post-request status.
    pub fn cancel(&self, id: u64) -> Option<JobStatus> {
        let shared = &self.shared;
        {
            let mut jobs = lock(&shared.jobs);
            let entry = jobs.get_mut(&id)?;
            if entry.state.is_terminal() {
                return Some(status_of(id, entry));
            }
            entry
                .cancel_reason
                .get_or_insert_with(|| "client-cancel".to_owned());
            entry.cancel.cancel();
        }
        if shared.queue.remove(id).is_some() {
            settle(
                shared,
                id,
                JobState::Cancelled {
                    reason: "client-cancel".to_owned(),
                },
            );
        }
        self.status(id)
    }

    /// A telemetry snapshot with the queue gauge and allocation counter
    /// refreshed now.
    pub fn stats(&self) -> DaemonStats {
        let shared = &self.shared;
        let snapshot = {
            let mut ledger = lock(&shared.ledger);
            ledger.observe_queue_depth(shared.queue.depth() as u64);
            ledger.alloc_events =
                droidsim_kernel::alloc_track::current().saturating_sub(shared.allocs_at_start);
            ledger.clone()
        };
        DaemonStats {
            ledger: snapshot,
            fleet: *lock(&shared.fleet_totals),
            workers: shared.workers,
            queue_capacity: shared.queue.capacity(),
            draining: shared.draining.load(Ordering::Acquire),
        }
    }

    /// Stops the daemon (see [`ShutdownMode`]). Blocks until the pool
    /// and watchdog have exited, then connects once to every socket
    /// [`serve_with`](crate::server::serve_with) is accepting on, which
    /// wakes its blocking accept; a socket file that was removed or
    /// replaced cannot be reached, and the stop logs that to stderr.
    /// Idempotent.
    pub fn shutdown(&self, mode: ShutdownMode) {
        let shared = &self.shared;
        shared.draining.store(true, Ordering::Release);
        match mode {
            ShutdownMode::Drain => {
                let mut jobs = lock(&shared.jobs);
                loop {
                    let busy = jobs.values().any(|e| !e.state.is_terminal() && !e.parked);
                    if !busy && shared.queue.depth() == 0 {
                        break;
                    }
                    let (guard, _) = shared
                        .settled
                        .wait_timeout(jobs, Duration::from_millis(50))
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    jobs = guard;
                }
            }
            ShutdownMode::Now => {
                shared.stop_now.store(true, Ordering::Release);
                let jobs = lock(&shared.jobs);
                for entry in jobs.values() {
                    // A cancel without a recorded reason is the parking
                    // signal run_job() looks for.
                    if matches!(entry.state, JobState::Running) && entry.cancel_reason.is_none() {
                        entry.cancel.cancel();
                    }
                }
            }
        }
        shared.queue.wake_all();
        for handle in lock(&self.pool).drain(..) {
            let _ = handle.join();
        }
        shared.stopped.store(true, Ordering::Release);
        drop(lock(&shared.pace));
        shared.stop_wake.notify_all();
        if let Some(handle) = lock(&self.watchdog).take() {
            let _ = handle.join();
        }
        let listeners = lock(&shared.listeners).clone();
        for (socket, inode) in listeners {
            if let Err(e) = wake_accept(&socket, inode) {
                eprintln!(
                    "droidsimd: cannot wake the accept on {}: {e}",
                    socket.display()
                );
            }
        }
    }

    /// Registers `socket`, bound as file `inode`, as one a stop must
    /// wake: once the daemon has stopped, [`Daemon::shutdown`] connects
    /// to it once, which returns its blocking accept. Returns `false`,
    /// registering nothing, when the daemon has already stopped. The
    /// register-then-check under one lock means a stop either sees the
    /// socket or is seen here.
    pub(crate) fn wake_on_stop(&self, socket: &Path, inode: u64) -> bool {
        let mut listeners = lock(&self.shared.listeners);
        if self.is_stopped() {
            return false;
        }
        listeners.push((socket.to_path_buf(), inode));
        true
    }

    /// Undoes [`Daemon::wake_on_stop`] of `socket` as `inode`.
    pub(crate) fn forget_listener(&self, socket: &Path, inode: u64) {
        lock(&self.shared.listeners).retain(|(s, i)| !(s == socket && *i == inode));
    }

    /// Whether [`Daemon::shutdown`] has completed.
    pub fn is_stopped(&self) -> bool {
        self.shared.stopped.load(Ordering::Acquire)
    }

    /// Whether shutdown has begun (new submissions are rejected).
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::Acquire)
    }

    /// Whether the journal is refusing writes and new submissions are
    /// being rejected with `journal-degraded`.
    pub fn is_degraded(&self) -> bool {
        self.shared.degraded.load(Ordering::Acquire)
    }

    /// Terminal states still owed to the journal (settles that could
    /// not be recorded while degraded).
    pub fn journal_backlog_len(&self) -> usize {
        lock(&self.shared.journal_backlog).len()
    }

    /// Counts a connection refused by the server's concurrency cap.
    pub fn note_conn_rejected(&self) {
        lock(&self.shared.ledger).conns_rejected += 1;
    }

    /// Counts a connection closed by the server's read timeout.
    pub fn note_slowloris(&self) {
        lock(&self.shared.ledger).slowloris_closed += 1;
    }

    /// The `health` endpoint's fields: the lifecycle state machine
    /// (`running|draining|degraded|stopped`) plus journal status.
    pub fn health_fields(&self) -> Vec<(&'static str, String)> {
        let state = if self.is_stopped() {
            "stopped"
        } else if self.is_draining() {
            "draining"
        } else if self.is_degraded() {
            "degraded"
        } else {
            "running"
        };
        vec![
            ("state", state.to_owned()),
            (
                "journal",
                if self.shared.journal_dir.is_some() {
                    "enabled".to_owned()
                } else {
                    "disabled".to_owned()
                },
            ),
            ("journal_degraded", self.is_degraded().to_string()),
            ("journal_backlog", self.journal_backlog_len().to_string()),
            (
                "in_flight",
                lock(&self.shared.ledger).in_flight().to_string(),
            ),
        ]
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Best-effort fast stop; threads exit on their own (they only
        // hold an Arc<Shared>) so dropping without shutdown() leaks
        // nothing but a little latency.
        self.shared.draining.store(true, Ordering::Release);
        self.shared.stop_now.store(true, Ordering::Release);
        self.shared.queue.wake_all();
    }
}

fn status_of(id: u64, entry: &JobEntry) -> JobStatus {
    JobStatus {
        id,
        state: entry.state.clone(),
        priority: entry.spec.priority,
        tag: entry.spec.tag.clone(),
    }
}

/// Moves a job to a terminal state exactly once: table, journal,
/// ledger, waiters — in that order (the lock order everywhere is
/// jobs → journal → ledger).
fn settle(shared: &Shared, id: u64, state: JobState) {
    debug_assert!(state.is_terminal());
    {
        let mut jobs = lock(&shared.jobs);
        let Some(entry) = jobs.get_mut(&id) else {
            return;
        };
        if entry.state.is_terminal() {
            return;
        }
        entry.state = state.clone();
    }
    let journal_failed = {
        let mut journal = lock(&shared.journal);
        match journal.as_mut() {
            Some(j) => j.record_state(id, &state).is_err(),
            None => false,
        }
    };
    if journal_failed {
        // The settle stands in memory (waiters see it, the executor's
        // work is not redone) but the journal is owed the record: queue
        // it on the backlog the recovery probe drains, and degrade so
        // no *new* work is acked on a journal that can't keep promises.
        lock(&shared.journal_backlog).push((id, state.clone()));
        note_journal_fault(shared);
    }
    {
        let mut ledger = lock(&shared.ledger);
        match &state {
            JobState::Done { .. } => ledger.completed += 1,
            JobState::Failed { .. } => ledger.failed += 1,
            JobState::Cancelled { .. } => ledger.cancelled += 1,
            JobState::Shed { .. } => ledger.shed += 1,
            JobState::Queued | JobState::Running => {}
        }
    }
    shared.settled.notify_all();
}

/// Parks a job at fast shutdown: back to `Queued` in the table, journal
/// entry left incomplete, so the next start re-queues it.
fn park(shared: &Shared, id: u64) {
    {
        let mut jobs = lock(&shared.jobs);
        let Some(entry) = jobs.get_mut(&id) else {
            return;
        };
        if entry.state.is_terminal() {
            return;
        }
        entry.state = JobState::Queued;
        entry.parked = true;
    }
    shared.settled.notify_all();
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let Some(job) = shared.queue.pop(&shared.stop_now, &shared.draining) else {
            return;
        };
        run_job(shared, &job);
    }
}

fn run_job(shared: &Arc<Shared>, job: &QueuedJob) {
    let id = job.id;
    let ctl = {
        let mut jobs = lock(&shared.jobs);
        let Some(entry) = jobs.get_mut(&id) else {
            return;
        };
        if entry.state.is_terminal() {
            return; // shed or deadline-cancelled while queued
        }
        if entry.cancel.is_cancelled() && !shared.stop_now.load(Ordering::Acquire) {
            let reason = entry
                .cancel_reason
                .clone()
                .unwrap_or_else(|| "client-cancel".to_owned());
            drop(jobs);
            settle(shared, id, JobState::Cancelled { reason });
            return;
        }
        entry.state = JobState::Running;
        JobControl {
            id,
            cancel: entry.cancel.clone(),
            fleet_journal: shared
                .journal_dir
                .as_ref()
                .map(|d| d.join(format!("job-{id}.fleet"))),
        }
    };
    let verdict = match catch_unwind(AssertUnwindSafe(|| {
        shared.executor.execute(&job.spec, &ctl)
    })) {
        Ok(v) => v,
        Err(p) => JobVerdict::Failed {
            reason: format!("executor panicked: {}", payload_text(p)),
        },
    };
    match verdict {
        JobVerdict::Done { digest, fleet } => {
            lock(&shared.fleet_totals).merge(&fleet);
            settle(shared, id, JobState::Done { digest });
        }
        JobVerdict::Failed { reason } => {
            settle(shared, id, JobState::Failed { reason });
        }
        JobVerdict::Cancelled { reason } => {
            let recorded = lock(&shared.jobs)
                .get(&id)
                .and_then(|e| e.cancel_reason.clone());
            if shared.stop_now.load(Ordering::Acquire) && recorded.is_none() {
                // Fast shutdown, not a real cancellation: park for the
                // next life instead of burning the acknowledgment.
                park(shared, id);
            } else {
                settle(
                    shared,
                    id,
                    JobState::Cancelled {
                        reason: recorded.unwrap_or(reason),
                    },
                );
            }
        }
    }
}

/// Runs one round of the watchdog's checks per tick. The wait between
/// rounds ends early when the daemon stops; a drain still gets its last
/// round (the journal probe may pay a backlog), a stop `Now` none.
fn watchdog_loop(shared: &Arc<Shared>) {
    while !shared.stopped.load(Ordering::Acquire) {
        let paced = lock(&shared.pace);
        let running = |_: &mut ()| !shared.stopped.load(Ordering::Acquire);
        drop(
            shared
                .stop_wake
                .wait_timeout_while(paced, shared.tick, running)
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        );
        if shared.stop_now.load(Ordering::Acquire) {
            return;
        }
        enforce_deadlines(shared);
        reclaim_under_pressure(shared);
        probe_journal(shared);
        let depth = shared.queue.depth() as u64;
        lock(&shared.ledger).observe_queue_depth(depth);
    }
}

/// Counts a journal write/fsync failure and enters the degraded state
/// (the entry is counted once per running-to-degraded transition).
fn note_journal_fault(shared: &Shared) {
    let mut ledger = lock(&shared.ledger);
    ledger.journal_faults += 1;
    if !shared.degraded.swap(true, Ordering::AcqRel) {
        ledger.degraded_entries += 1;
    }
}

/// The degraded daemon's path back: each watchdog tick, first pay the
/// journal what it is owed (the settle backlog), then prove the write
/// path with a no-op probe record. Only when both succeed does the
/// daemon re-arm and accept submissions again.
fn probe_journal(shared: &Shared) {
    if !shared.degraded.load(Ordering::Acquire) {
        return;
    }
    let mut journal = lock(&shared.journal);
    let Some(j) = journal.as_mut() else {
        // No journal configured: nothing to be degraded about.
        shared.degraded.store(false, Ordering::Release);
        return;
    };
    loop {
        let owed = lock(&shared.journal_backlog).first().cloned();
        let Some((id, state)) = owed else { break };
        if j.record_state(id, &state).is_err() {
            lock(&shared.ledger).journal_faults += 1;
            return; // still failing; try again next tick
        }
        lock(&shared.journal_backlog).remove(0);
    }
    match j.probe() {
        Ok(()) => shared.degraded.store(false, Ordering::Release),
        Err(_) => lock(&shared.ledger).journal_faults += 1,
    }
}

fn enforce_deadlines(shared: &Shared) {
    let now = Instant::now();
    let expired: Vec<u64> = {
        let mut jobs = lock(&shared.jobs);
        let mut out = Vec::new();
        for (&id, entry) in jobs.iter_mut() {
            if !entry.state.is_terminal() && entry.deadline.is_some_and(|d| d <= now) {
                entry.deadline = None; // fire once
                out.push(id);
            }
        }
        out
    };
    for id in expired {
        lock(&shared.ledger).deadline_expired += 1;
        if shared.queue.remove(id).is_some() {
            // Never started: settle straight away.
            settle(
                shared,
                id,
                JobState::Cancelled {
                    reason: "deadline-exceeded".to_owned(),
                },
            );
        } else {
            // Running (or about to finish): cancel cooperatively; the
            // worker settles it with the recorded reason.
            let mut jobs = lock(&shared.jobs);
            if let Some(entry) = jobs.get_mut(&id) {
                if !entry.state.is_terminal() {
                    entry
                        .cancel_reason
                        .get_or_insert_with(|| "deadline-exceeded".to_owned());
                    entry.cancel.cancel();
                }
            }
        }
    }
}

fn reclaim_under_pressure(shared: &Shared) {
    if !shared.headroom.under_pressure() {
        return;
    }
    // Shedding queued work is the only memory the daemon can give back:
    // the inflation caches live inside each job's app processes and
    // leave with them, so there is no process-wide cache to reclaim.
    lock(&shared.ledger).reclaim_passes += 1;
    let victims = shared.queue.shed_lowest_class(Priority::High);
    for victim in victims {
        settle(
            shared,
            victim.id,
            JobState::Shed {
                reason: "memory-pressure".to_owned(),
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::JobKind;
    use std::sync::atomic::AtomicU64;

    /// Deterministic stand-in digest: tests compare against this.
    fn digest_of_seed(seed: u64) -> u64 {
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x0D1D
    }

    /// A cooperative executor: sleeps `work_ms` in small slices,
    /// polling the cancel token, then reports the seed digest. Seeds
    /// in `fail_seeds` fail; seeds in `panic_seeds` panic.
    struct TestExecutor {
        work_ms: u64,
        fail_seeds: Vec<u64>,
        panic_seeds: Vec<u64>,
    }

    impl TestExecutor {
        fn instant() -> TestExecutor {
            TestExecutor::slow(0)
        }

        fn slow(work_ms: u64) -> TestExecutor {
            TestExecutor {
                work_ms,
                fail_seeds: Vec::new(),
                panic_seeds: Vec::new(),
            }
        }
    }

    impl JobExecutor for TestExecutor {
        fn execute(&self, spec: &JobSpec, ctl: &JobControl) -> JobVerdict {
            let total = Duration::from_millis(self.work_ms);
            let started = Instant::now();
            while started.elapsed() < total {
                if ctl.cancel.is_cancelled() {
                    return JobVerdict::Cancelled {
                        reason: "executor-observed-cancel".to_owned(),
                    };
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            if self.panic_seeds.contains(&spec.seed) {
                panic!("synthetic executor panic at seed {}", spec.seed);
            }
            if self.fail_seeds.contains(&spec.seed) {
                return JobVerdict::Failed {
                    reason: "synthetic failure".to_owned(),
                };
            }
            JobVerdict::Done {
                digest: digest_of_seed(spec.seed),
                fleet: FleetLedger::new(),
            }
        }
    }

    fn spec(seed: u64) -> JobSpec {
        JobSpec::new(JobKind::Fig10).with_seed(seed)
    }

    fn accepted_id(adm: &Admission) -> u64 {
        match adm {
            Admission::Accepted { id, .. } => *id,
            Admission::Rejected { reason } => panic!("expected acceptance, got {reason}"),
            Admission::Duplicate { id } => panic!("expected acceptance, got duplicate of {id}"),
        }
    }

    /// Polls until the job leaves the queue (a worker claimed it) so
    /// tests can fill the queue behind it without racing the pool.
    fn wait_until_running(d: &Daemon, id: u64) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while d.status(id).unwrap().state == JobState::Queued {
            assert!(Instant::now() < deadline, "job {id} never started");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("droidsimd-core-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn accepted_jobs_complete_with_deterministic_digests() {
        let d =
            Daemon::start(DaemonConfig::new().with_workers(2), TestExecutor::instant()).unwrap();
        let ids: Vec<(u64, u64)> = (0..4)
            .map(|i| {
                let seed = 100 + i;
                (accepted_id(&d.submit(spec(seed))), seed)
            })
            .collect();
        for (id, seed) in ids {
            let status = d.wait(id, Duration::from_secs(5)).unwrap();
            assert_eq!(
                status.state,
                JobState::Done {
                    digest: digest_of_seed(seed)
                },
                "job {id}"
            );
        }
        d.shutdown(ShutdownMode::Drain);
        let stats = d.stats();
        assert_eq!(stats.ledger.accepted, 4);
        assert_eq!(stats.ledger.completed, 4);
        assert_eq!(stats.ledger.in_flight(), 0);
    }

    #[test]
    fn full_queue_rejects_explicitly_and_loses_nothing() {
        let d = Daemon::start(
            DaemonConfig::new().with_workers(1).with_capacity(2),
            TestExecutor::slow(30),
        )
        .unwrap();
        let mut accepted = Vec::new();
        let mut rejected = 0;
        for seed in 0..8 {
            match d.submit(spec(seed)) {
                Admission::Accepted { id, .. } => accepted.push((id, seed)),
                Admission::Rejected { reason } => {
                    assert_eq!(reason, "queue-full");
                    rejected += 1;
                }
                Admission::Duplicate { id } => panic!("no dedupe keys, got duplicate of {id}"),
            }
        }
        assert!(rejected > 0, "8 submits into capacity 2 must overflow");
        d.shutdown(ShutdownMode::Drain);
        for (id, seed) in &accepted {
            let status = d.status(*id).unwrap();
            assert_eq!(
                status.state,
                JobState::Done {
                    digest: digest_of_seed(*seed)
                },
                "acknowledged job {id} must complete"
            );
        }
        let stats = d.stats();
        assert_eq!(stats.ledger.accepted, accepted.len() as u64);
        assert_eq!(stats.ledger.rejected, rejected);
        assert_eq!(stats.ledger.in_flight(), 0);
    }

    #[test]
    fn high_priority_displaces_and_pressure_sheds_explicitly() {
        let gauge = Arc::new(AtomicU64::new(u64::MAX));
        let d = Daemon::start(
            DaemonConfig::new()
                .with_workers(1)
                .with_capacity(2)
                .with_tick(Duration::from_millis(5))
                .with_headroom(HeadroomProbe::fixed(gauge.clone(), 1000)),
            TestExecutor::slow(60),
        )
        .unwrap();
        // Worker grabs the first job; two Normal jobs fill the queue.
        let running = accepted_id(&d.submit(spec(1)));
        wait_until_running(&d, running);
        let normal_a = accepted_id(&d.submit(spec(2)));
        let normal_b = accepted_id(&d.submit(spec(3)));
        // Queue full for equal priority (no displacement within a class)…
        assert!(matches!(
            d.submit(spec(4)),
            Admission::Rejected { reason } if reason == "queue-full"
        ));
        // …but High displaces the newest Normal job, which sheds
        // explicitly.
        let high = accepted_id(&d.submit(spec(5).with_priority(Priority::High)));
        let shed = d.status(normal_b).unwrap();
        assert_eq!(
            shed.state,
            JobState::Shed {
                reason: "displaced-by-higher-priority".to_owned()
            }
        );
        // Memory pressure: the reclaim pass sheds the queued Normal job…
        gauge.store(1, Ordering::Release);
        let shed_status = d.wait(normal_a, Duration::from_secs(2)).expect("job known");
        assert_eq!(
            shed_status.state,
            JobState::Shed {
                reason: "memory-pressure".to_owned()
            }
        );
        // …and the door rejects non-High while pressure lasts.
        assert!(matches!(
            d.submit(spec(6)),
            Admission::Rejected { reason } if reason == "memory-pressure"
        ));
        gauge.store(u64::MAX, Ordering::Release);
        d.shutdown(ShutdownMode::Drain);
        for id in [running, high] {
            assert!(
                matches!(d.status(id).unwrap().state, JobState::Done { .. }),
                "job {id} must still complete"
            );
        }
        let stats = d.stats();
        assert_eq!(stats.ledger.shed, 2);
        assert!(stats.ledger.reclaim_passes >= 1);
        assert_eq!(stats.ledger.in_flight(), 0, "{:?}", stats.ledger);
    }

    #[test]
    fn deadlines_cancel_queued_and_running_jobs() {
        let d = Daemon::start(
            DaemonConfig::new()
                .with_workers(1)
                .with_tick(Duration::from_millis(5)),
            TestExecutor::slow(400),
        )
        .unwrap();
        let running = accepted_id(&d.submit(spec(1).with_deadline_ms(40)));
        let queued = accepted_id(&d.submit(spec(2).with_deadline_ms(40)));
        for id in [running, queued] {
            let status = d.wait(id, Duration::from_secs(5)).unwrap();
            assert_eq!(
                status.state,
                JobState::Cancelled {
                    reason: "deadline-exceeded".to_owned()
                },
                "job {id}"
            );
        }
        d.shutdown(ShutdownMode::Drain);
        let stats = d.stats();
        assert_eq!(stats.ledger.deadline_expired, 2);
        assert_eq!(stats.ledger.cancelled, 2);
    }

    #[test]
    fn client_cancel_settles_queued_jobs_immediately() {
        let d =
            Daemon::start(DaemonConfig::new().with_workers(1), TestExecutor::slow(100)).unwrap();
        let _running = accepted_id(&d.submit(spec(1)));
        let queued = accepted_id(&d.submit(spec(2)));
        let status = d.cancel(queued).unwrap();
        assert_eq!(
            status.state,
            JobState::Cancelled {
                reason: "client-cancel".to_owned()
            }
        );
        assert_eq!(d.cancel(queued).unwrap().state, status.state, "idempotent");
        d.shutdown(ShutdownMode::Drain);
    }

    #[test]
    fn injected_admission_faults_reject_without_accepting() {
        let plan = FaultPlan::disarmed().on_nth_probe(FaultSite::Admission, 1);
        let d = Daemon::start(
            DaemonConfig::new().with_admission_faults(plan),
            TestExecutor::instant(),
        )
        .unwrap();
        assert!(matches!(
            d.submit(spec(1)),
            Admission::Rejected { reason } if reason == "injected-admission-fault"
        ));
        let id = accepted_id(&d.submit(spec(2)));
        assert!(d
            .wait(id, Duration::from_secs(5))
            .unwrap()
            .state
            .is_terminal());
        d.shutdown(ShutdownMode::Drain);
        let stats = d.stats();
        assert_eq!(stats.ledger.rejected, 1);
        assert_eq!(stats.ledger.rejected_injected, 1);
        assert_eq!(stats.ledger.accepted, 1);
    }

    #[test]
    fn executor_panics_become_failed_not_dead_workers() {
        let d = Daemon::start(
            DaemonConfig::new().with_workers(1),
            TestExecutor {
                work_ms: 0,
                fail_seeds: vec![2],
                panic_seeds: vec![1],
            },
        )
        .unwrap();
        let panicking = accepted_id(&d.submit(spec(1)));
        let failing = accepted_id(&d.submit(spec(2)));
        let fine = accepted_id(&d.submit(spec(3)));
        let status = d.wait(panicking, Duration::from_secs(5)).unwrap();
        match status.state {
            JobState::Failed { reason } => {
                assert!(reason.contains("panicked"), "got {reason}");
            }
            other => panic!("expected failure, got {other:?}"),
        }
        assert!(matches!(
            d.wait(failing, Duration::from_secs(5)).unwrap().state,
            JobState::Failed { .. }
        ));
        // The worker that caught the panic is still alive to run this:
        assert!(matches!(
            d.wait(fine, Duration::from_secs(5)).unwrap().state,
            JobState::Done { .. }
        ));
        d.shutdown(ShutdownMode::Drain);
    }

    #[test]
    fn restart_resumes_every_acknowledged_incomplete_job() {
        let dir = scratch("restart");
        let mut acknowledged = Vec::new();
        {
            let d = Daemon::start(
                DaemonConfig::new().with_workers(1).with_journal_dir(&dir),
                TestExecutor::slow(60),
            )
            .unwrap();
            for seed in 10..14 {
                acknowledged.push((accepted_id(&d.submit(spec(seed))), seed));
            }
            // First job is running; kill fast. Running job parks (its
            // journal entry stays incomplete), queued jobs park too.
            std::thread::sleep(Duration::from_millis(10));
            d.shutdown(ShutdownMode::Now);
            let stats = d.stats();
            assert_eq!(stats.ledger.completed, 0, "nothing finished pre-kill");
        }
        let d = Daemon::start(
            DaemonConfig::new().with_workers(2).with_journal_dir(&dir),
            TestExecutor::instant(),
        )
        .unwrap();
        let stats = d.stats();
        assert_eq!(stats.ledger.resumed, 4, "every ack is resumed");
        for (id, seed) in &acknowledged {
            let status = d.wait(*id, Duration::from_secs(5)).unwrap();
            assert_eq!(
                status.state,
                JobState::Done {
                    digest: digest_of_seed(*seed)
                },
                "resumed job {id} must land on the clean digest"
            );
        }
        d.shutdown(ShutdownMode::Drain);
        assert_eq!(d.stats().ledger.in_flight(), 0);
        // A third life finds only terminal entries: nothing to resume,
        // and previous-life results are still queryable.
        let d3 = Daemon::start(
            DaemonConfig::new().with_journal_dir(&dir),
            TestExecutor::instant(),
        )
        .unwrap();
        assert_eq!(d3.stats().ledger.resumed, 0);
        let (id0, seed0) = acknowledged[0];
        assert_eq!(
            d3.status(id0).unwrap().state,
            JobState::Done {
                digest: digest_of_seed(seed0)
            }
        );
        d3.shutdown(ShutdownMode::Drain);
    }

    #[test]
    fn a_journal_in_the_pinned_format_resumes() {
        let dir = scratch("pinned");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("daemon.journal"),
            crate::journal::tests::PINNED_JOURNAL,
        )
        .unwrap();
        let d = Daemon::start(
            DaemonConfig::new().with_journal_dir(&dir),
            TestExecutor::instant(),
        )
        .unwrap();
        assert_eq!(d.stats().ledger.resumed, 1, "job 2 was never settled");
        assert_eq!(
            d.wait(2, Duration::from_secs(5)).unwrap().state,
            JobState::Done {
                digest: digest_of_seed(24301)
            }
        );
        assert_eq!(
            d.submit(spec(1).with_dedupe_key("k=1")),
            Admission::Duplicate { id: 1 }
        );
        assert_eq!(accepted_id(&d.submit(spec(5))), 4, "ids move on past 3");
        d.shutdown(ShutdownMode::Drain);
    }

    #[test]
    fn duplicate_dedupe_keys_converge_on_one_execution_across_restart() {
        let dir = scratch("dedupe");
        let first;
        {
            let d = Daemon::start(
                DaemonConfig::new().with_journal_dir(&dir),
                TestExecutor::instant(),
            )
            .unwrap();
            first = accepted_id(&d.submit(spec(1).with_dedupe_key("k-1")));
            // A blind retry (lost ack) returns the original id…
            assert_eq!(
                d.submit(spec(1).with_dedupe_key("k-1")),
                Admission::Duplicate { id: first }
            );
            // …while a different key is new work.
            let other = accepted_id(&d.submit(spec(2).with_dedupe_key("k-2")));
            assert_ne!(first, other);
            d.shutdown(ShutdownMode::Drain);
            let stats = d.stats();
            assert_eq!(stats.ledger.accepted, 2);
            assert_eq!(stats.ledger.dedupe_hits, 1);
        }
        // The map survives the restart via the journal: the same key
        // still answers with the original id, even though that job has
        // long settled.
        let d = Daemon::start(
            DaemonConfig::new().with_journal_dir(&dir),
            TestExecutor::instant(),
        )
        .unwrap();
        assert_eq!(
            d.submit(spec(1).with_dedupe_key("k-1")),
            Admission::Duplicate { id: first }
        );
        assert_eq!(
            d.status(first).unwrap().state,
            JobState::Done {
                digest: digest_of_seed(1)
            }
        );
        d.shutdown(ShutdownMode::Drain);
    }

    #[test]
    fn journal_faults_degrade_then_recover_without_losing_acks() {
        use crate::faultio::IoFaults;

        let dir = scratch("degraded");
        let io = IoFaults::disarmed();
        let d = Daemon::start(
            DaemonConfig::new()
                .with_workers(1)
                .with_tick(Duration::from_millis(5))
                .with_journal_dir(&dir)
                .with_io_faults(io.clone()),
            TestExecutor::slow(40),
        )
        .unwrap();
        // A healthy accept, still running when the fault window opens.
        let running = accepted_id(&d.submit(spec(1).with_dedupe_key("k-run")));
        wait_until_running(&d, running);

        // ENOSPC window: every journal write fails from here on.
        io.set_plan(FaultPlan::seeded(7).with_rate(FaultSite::JournalWrite, 1.0));
        // The next submit hits the failing journal: rejected, never
        // acked, and the daemon is now degraded.
        assert!(matches!(
            d.submit(spec(2)),
            Admission::Rejected { reason } if reason == "journal-degraded"
        ));
        assert!(d.is_degraded());
        // While degraded, submissions are refused *without* touching
        // the journal…
        assert!(matches!(
            d.submit(spec(3)),
            Admission::Rejected { reason } if reason == "journal-degraded"
        ));
        // …but a duplicate of acknowledged work still converges.
        assert_eq!(
            d.submit(spec(1).with_dedupe_key("k-run")),
            Admission::Duplicate { id: running }
        );
        // In-flight work finishes during the window; its terminal
        // record lands on the backlog, owed to the journal.
        let status = d.wait(running, Duration::from_secs(5)).unwrap();
        assert_eq!(
            status.state,
            JobState::Done {
                digest: digest_of_seed(1)
            },
            "degraded mode finishes in-flight work"
        );

        // The window closes; the watchdog's probe drains the backlog
        // and re-arms on its own.
        io.set_plan(FaultPlan::disarmed());
        let deadline = Instant::now() + Duration::from_secs(5);
        while d.is_degraded() {
            assert!(Instant::now() < deadline, "daemon never recovered");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(d.journal_backlog_len(), 0, "owed records were paid");
        let id2 = accepted_id(&d.submit(spec(4)));
        assert!(d
            .wait(id2, Duration::from_secs(5))
            .unwrap()
            .state
            .is_terminal());
        d.shutdown(ShutdownMode::Drain);
        let stats = d.stats();
        assert_eq!(stats.ledger.degraded_entries, 1);
        assert!(stats.ledger.journal_faults >= 1);

        // The journal survived the chaos: a restart sees the settled
        // digest (flushed from the backlog), resumes nothing, and never
        // heard of the rejected submissions.
        let d2 = Daemon::start(
            DaemonConfig::new().with_journal_dir(&dir),
            TestExecutor::instant(),
        )
        .unwrap();
        assert_eq!(d2.stats().ledger.resumed, 0);
        assert_eq!(
            d2.status(running).unwrap().state,
            JobState::Done {
                digest: digest_of_seed(1)
            }
        );
        d2.shutdown(ShutdownMode::Drain);
    }

    #[test]
    fn health_fields_walk_the_state_machine() {
        let d = Daemon::start(DaemonConfig::new(), TestExecutor::instant()).unwrap();
        let field = |fields: &Vec<(&'static str, String)>, key: &str| {
            fields
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| v.clone())
                .unwrap()
        };
        let h = d.health_fields();
        assert_eq!(field(&h, "state"), "running");
        assert_eq!(field(&h, "journal"), "disabled");
        d.shutdown(ShutdownMode::Drain);
        assert_eq!(field(&d.health_fields(), "state"), "stopped");
    }

    #[test]
    fn a_stop_does_not_wait_for_the_watchdog_tick() {
        let d = Daemon::start(
            DaemonConfig::new().with_tick(Duration::from_secs(2)),
            TestExecutor::instant(),
        )
        .unwrap();
        // Let the watchdog start its first two-second wait.
        std::thread::sleep(Duration::from_millis(50));
        let started = Instant::now();
        d.shutdown(ShutdownMode::Drain);
        let took = started.elapsed();
        assert!(d.is_stopped());
        assert!(took < Duration::from_millis(500), "the stop took {took:?}");
    }

    #[test]
    fn shutdown_rejects_new_submissions() {
        let d = Daemon::start(DaemonConfig::new(), TestExecutor::instant()).unwrap();
        d.shutdown(ShutdownMode::Drain);
        assert!(matches!(
            d.submit(spec(1)),
            Admission::Rejected { reason } if reason == "shutting-down"
        ));
        assert!(d.is_stopped());
    }
}
