//! Job specifications and job states: the vocabulary shared by the
//! wire protocol, the daemon journal, and the scheduler core.
//!
//! Everything here round-trips through the kernel's `key=value` line
//! codec ([`droidsim_kernel::journal`]) so the exact same encoding
//! serves three masters: a client's `cmd=submit` request line, the
//! daemon journal's `kind=accepted` durability record, and the
//! `status`/`wait` response lines. One codec, one set of field names,
//! no translation layers to drift apart.

use droidsim_kernel::journal;

/// Scheduling priority of a submitted job. Declared lowest-first so the
/// derived `Ord` matches scheduling order (`Low < Normal < High`).
///
/// Priority is the load-shedding axis: when the admission queue is full
/// a higher-priority submission may displace the newest lower-priority
/// queued job, and a memory-pressure reclaim pass sheds the lowest
/// non-empty class first. Within a class the queue is FIFO.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Shed first; rejected at the door under memory pressure.
    Low,
    /// The default; rejected at the door under memory pressure.
    Normal,
    /// Displaces queued `Low`/`Normal` work when the queue is full and
    /// is still admitted under memory pressure.
    High,
}

impl Priority {
    /// Every priority, lowest first.
    pub const ALL: [Priority; 3] = [Priority::Low, Priority::Normal, Priority::High];

    /// The wire/journal tag.
    pub fn name(self) -> &'static str {
        match self {
            Priority::Low => "low",
            Priority::Normal => "normal",
            Priority::High => "high",
        }
    }

    /// Parses a wire/journal tag.
    pub fn parse(tag: &str) -> Option<Priority> {
        Priority::ALL.into_iter().find(|p| p.name() == tag)
    }

    /// Index into per-priority ring arrays (0 = `Low`).
    pub(crate) fn ring(self) -> usize {
        self as usize
    }
}

/// Which study a job runs. Mirrors the standalone experiment binaries:
/// a daemon job is the same simulation work, just scheduled by the
/// resident service instead of a fresh process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobKind {
    /// Table 5 sweep over the first `apps` top-100 app specs.
    Table5 {
        /// How many app specs to simulate (≥ 1).
        apps: usize,
    },
    /// The Figure 10 rotation-storm study.
    Fig10,
    /// The handling-mode ablation grid.
    Ablation,
    /// A fault-matrix campaign: `tasks` simulations under an injected
    /// `fleet-task` fault rate, relying on deterministic retries to
    /// land on the clean digest.
    FaultMatrix {
        /// How many simulation tasks to run (≥ 1).
        tasks: usize,
        /// Injected fleet-task fault rate in percent (0–100).
        rate_pct: u8,
    },
}

impl JobKind {
    /// The wire/journal tag (`job=` field value).
    pub fn name(&self) -> &'static str {
        match self {
            JobKind::Table5 { .. } => "table5",
            JobKind::Fig10 => "fig10",
            JobKind::Ablation => "ablation",
            JobKind::FaultMatrix { .. } => "fault-matrix",
        }
    }
}

/// One submitted job: what to run and how to schedule it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// The study to run.
    pub kind: JobKind,
    /// Root seed for the study's deterministic RNG streams.
    pub seed: u64,
    /// Scheduling priority (see [`Priority`]).
    pub priority: Priority,
    /// Worker threads *inside* the job's own fleet run (≥ 1). The
    /// daemon's pool parallelism is across jobs; this is within one.
    pub inner_jobs: usize,
    /// Per-task wall-clock budget for the job's fleet watchdog, in
    /// milliseconds. `None` leaves the stall watchdog disarmed.
    pub task_budget_ms: Option<u64>,
    /// Whole-job wall-clock deadline in milliseconds, measured from
    /// acceptance (re-armed from resume when a restarted daemon
    /// re-queues the job). `None` means no deadline.
    pub deadline_ms: Option<u64>,
    /// Retry bound for the job's fleet tasks.
    pub max_retries: u32,
    /// Free-form client label, echoed in status lines. May be empty.
    pub tag: String,
    /// Client-supplied idempotency key. When non-empty, a resubmission
    /// with the same key returns the *original* job's id and state
    /// (`result=duplicate`) instead of scheduling a second execution —
    /// the contract that makes blind retry after a lost ack safe.
    /// Empty means no deduplication.
    pub dedupe_key: String,
}

impl JobSpec {
    /// A spec with the default scheduling knobs: seed `0x5EED`,
    /// [`Priority::Normal`], one inner worker, three retries, no
    /// budget, no deadline.
    pub fn new(kind: JobKind) -> JobSpec {
        JobSpec {
            kind,
            seed: 0x5EED,
            priority: Priority::Normal,
            inner_jobs: 1,
            task_budget_ms: None,
            deadline_ms: None,
            max_retries: 3,
            tag: String::new(),
            dedupe_key: String::new(),
        }
    }

    /// Sets the root seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the scheduling priority.
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the whole-job deadline in milliseconds.
    pub fn with_deadline_ms(mut self, ms: u64) -> Self {
        self.deadline_ms = Some(ms);
        self
    }

    /// Sets the client label.
    pub fn with_tag(mut self, tag: impl Into<String>) -> Self {
        self.tag = tag.into();
        self
    }

    /// Sets the idempotency key (see the `dedupe_key` field docs).
    pub fn with_dedupe_key(mut self, key: impl Into<String>) -> Self {
        self.dedupe_key = key.into();
        self
    }

    /// The spec as `key=value` fields, in a fixed order. Optional knobs
    /// at their defaults are omitted, so a minimal submit line stays
    /// minimal.
    pub fn kv_fields(&self) -> Vec<(&'static str, String)> {
        let mut out = vec![("job", self.kind.name().to_owned())];
        match &self.kind {
            JobKind::Table5 { apps } => out.push(("apps", apps.to_string())),
            JobKind::FaultMatrix { tasks, rate_pct } => {
                out.push(("tasks", tasks.to_string()));
                out.push(("rate_pct", rate_pct.to_string()));
            }
            JobKind::Fig10 | JobKind::Ablation => {}
        }
        out.push(("seed", self.seed.to_string()));
        out.push(("priority", self.priority.name().to_owned()));
        out.push(("inner_jobs", self.inner_jobs.to_string()));
        if let Some(ms) = self.task_budget_ms {
            out.push(("budget_ms", ms.to_string()));
        }
        if let Some(ms) = self.deadline_ms {
            out.push(("deadline_ms", ms.to_string()));
        }
        out.push(("retries", self.max_retries.to_string()));
        if !self.tag.is_empty() {
            out.push(("tag", self.tag.clone()));
        }
        if !self.dedupe_key.is_empty() {
            out.push(("dedupe", self.dedupe_key.clone()));
        }
        out
    }

    /// Rebuilds a spec from decoded `key=value` fields (a submit line
    /// or a journal `accepted` record). Unknown keys are ignored so the
    /// protocol can grow; missing or malformed required keys are a
    /// descriptive error.
    pub fn from_fields(fields: &[(String, String)]) -> Result<JobSpec, String> {
        let kind_tag = journal::field(fields, "job").ok_or("missing job= field")?;
        let kind = match kind_tag {
            "table5" => JobKind::Table5 {
                apps: parse_field(fields, "apps")?,
            },
            "fig10" => JobKind::Fig10,
            "ablation" => JobKind::Ablation,
            "fault-matrix" => JobKind::FaultMatrix {
                tasks: parse_field(fields, "tasks")?,
                rate_pct: parse_field(fields, "rate_pct")?,
            },
            other => return Err(format!("unknown job kind {other:?}")),
        };
        let mut spec = JobSpec::new(kind);
        if let Some(v) = journal::field(fields, "seed") {
            spec.seed = v.parse().map_err(|_| format!("bad seed {v:?}"))?;
        }
        if let Some(v) = journal::field(fields, "priority") {
            spec.priority = Priority::parse(v).ok_or_else(|| format!("bad priority {v:?}"))?;
        }
        if let Some(v) = journal::field(fields, "inner_jobs") {
            spec.inner_jobs = v.parse().map_err(|_| format!("bad inner_jobs {v:?}"))?;
        }
        if let Some(v) = journal::field(fields, "budget_ms") {
            spec.task_budget_ms = Some(v.parse().map_err(|_| format!("bad budget_ms {v:?}"))?);
        }
        if let Some(v) = journal::field(fields, "deadline_ms") {
            spec.deadline_ms = Some(v.parse().map_err(|_| format!("bad deadline_ms {v:?}"))?);
        }
        if let Some(v) = journal::field(fields, "retries") {
            spec.max_retries = v.parse().map_err(|_| format!("bad retries {v:?}"))?;
        }
        if let Some(v) = journal::field(fields, "tag") {
            spec.tag = v.to_owned();
        }
        if let Some(v) = journal::field(fields, "dedupe") {
            spec.dedupe_key = v.to_owned();
        }
        spec.validate()?;
        Ok(spec)
    }

    /// Checks the size knobs a hostile or buggy client could zero out.
    pub fn validate(&self) -> Result<(), String> {
        match &self.kind {
            JobKind::Table5 { apps } if *apps == 0 => return Err("apps must be ≥ 1".to_owned()),
            JobKind::FaultMatrix { tasks, .. } if *tasks == 0 => {
                return Err("tasks must be ≥ 1".to_owned());
            }
            JobKind::FaultMatrix { rate_pct, .. } if *rate_pct > 100 => {
                return Err("rate_pct must be ≤ 100".to_owned());
            }
            _ => {}
        }
        if self.inner_jobs == 0 {
            return Err("inner_jobs must be ≥ 1".to_owned());
        }
        Ok(())
    }
}

/// Where a job is in its lifecycle. The last four variants are
/// *terminal*: once entered, the state never changes again and (except
/// for shutdown parking, see the daemon docs) is journaled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobState {
    /// Accepted and waiting in the admission queue.
    Queued,
    /// Claimed by a pool worker and executing.
    Running,
    /// Finished cleanly with the study digest.
    Done {
        /// The study's combined digest.
        digest: u64,
    },
    /// Finished unsuccessfully (quarantined tasks or a worker panic).
    Failed {
        /// What went wrong.
        reason: String,
    },
    /// Cancelled by a client request or an expired deadline.
    Cancelled {
        /// Who/what cancelled it (`client-cancel`, `deadline-exceeded`).
        reason: String,
    },
    /// Shed by the load-shedding policy — displaced by a
    /// higher-priority submission or reclaimed under memory pressure.
    /// Always explicit, never silent: the job's status reports it.
    Shed {
        /// Which shedding path fired.
        reason: String,
    },
}

impl JobState {
    /// Whether the state is final.
    pub fn is_terminal(&self) -> bool {
        !matches!(self, JobState::Queued | JobState::Running)
    }

    /// The stable wire/journal tag.
    pub fn tag(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done { .. } => "done",
            JobState::Failed { .. } => "failed",
            JobState::Cancelled { .. } => "cancelled",
            JobState::Shed { .. } => "shed",
        }
    }

    /// The digest, when the job finished cleanly.
    pub fn digest(&self) -> Option<u64> {
        match self {
            JobState::Done { digest } => Some(*digest),
            _ => None,
        }
    }

    /// The failure/cancellation/shed reason, when there is one.
    pub fn reason(&self) -> Option<&str> {
        match self {
            JobState::Failed { reason }
            | JobState::Cancelled { reason }
            | JobState::Shed { reason } => Some(reason),
            _ => None,
        }
    }

    /// The state as `key=value` fields (`state=` plus `digest=`/
    /// `reason=` when applicable).
    pub fn kv_fields(&self) -> Vec<(&'static str, String)> {
        let mut out = vec![("state", self.tag().to_owned())];
        if let Some(d) = self.digest() {
            out.push(("digest", format!("{d:016x}")));
        }
        if let Some(r) = self.reason() {
            out.push(("reason", r.to_owned()));
        }
        out
    }

    /// Rebuilds a state from decoded fields.
    pub fn from_fields(fields: &[(String, String)]) -> Result<JobState, String> {
        let tag = journal::field(fields, "state").ok_or("missing state= field")?;
        let reason = || {
            journal::field(fields, "reason")
                .unwrap_or("unrecorded")
                .to_owned()
        };
        Ok(match tag {
            "queued" => JobState::Queued,
            "running" => JobState::Running,
            "done" => {
                let hex = journal::field(fields, "digest").ok_or("done without digest=")?;
                JobState::Done {
                    digest: u64::from_str_radix(hex, 16)
                        .map_err(|_| format!("bad digest {hex:?}"))?,
                }
            }
            "failed" => JobState::Failed { reason: reason() },
            "cancelled" => JobState::Cancelled { reason: reason() },
            "shed" => JobState::Shed { reason: reason() },
            other => return Err(format!("unknown state {other:?}")),
        })
    }
}

fn parse_field<T: std::str::FromStr>(fields: &[(String, String)], key: &str) -> Result<T, String> {
    journal::field(fields, key)
        .ok_or_else(|| format!("missing {key}= field"))?
        .parse()
        .map_err(|_| format!("bad {key}= field"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(spec: &JobSpec) -> JobSpec {
        let line = journal::encode_line(&spec.kv_fields());
        let fields = journal::decode_line(&line).expect("spec line decodes");
        JobSpec::from_fields(&fields).expect("spec fields parse")
    }

    #[test]
    fn specs_round_trip_through_the_line_codec() {
        let specs = [
            JobSpec::new(JobKind::Table5 { apps: 25 }),
            JobSpec::new(JobKind::Fig10)
                .with_seed(99)
                .with_priority(Priority::High),
            JobSpec::new(JobKind::Ablation).with_tag("night run = batch 7"),
            JobSpec::new(JobKind::Fig10).with_dedupe_key("load-7-42"),
            JobSpec {
                kind: JobKind::FaultMatrix {
                    tasks: 64,
                    rate_pct: 5,
                },
                seed: 7,
                priority: Priority::Low,
                inner_jobs: 4,
                task_budget_ms: Some(1500),
                deadline_ms: Some(60_000),
                max_retries: 2,
                tag: "matrix".to_owned(),
                dedupe_key: "matrix-key".to_owned(),
            },
        ];
        for spec in &specs {
            assert_eq!(&round_trip(spec), spec, "kind {}", spec.kind.name());
        }
    }

    #[test]
    fn spec_parse_rejects_nonsense() {
        let bad = [
            "cmd=submit",                            // no job kind at all
            "job=warp-drive",                        // unknown kind
            "job=table5",                            // table5 without apps
            "job=table5 apps=0",                     // zero-sized sweep
            "job=fig10 priority=urgent",             // unknown priority
            "job=fig10 inner_jobs=0",                // zero workers
            "job=fault-matrix tasks=8 rate_pct=101", // rate over 100%
        ];
        for line in bad {
            let fields = journal::decode_line(line).unwrap();
            assert!(
                JobSpec::from_fields(&fields).is_err(),
                "line {line:?} must be rejected"
            );
        }
    }

    #[test]
    fn priority_order_matches_scheduling_order() {
        assert!(Priority::Low < Priority::Normal);
        assert!(Priority::Normal < Priority::High);
        for p in Priority::ALL {
            assert_eq!(Priority::parse(p.name()), Some(p));
        }
        assert_eq!(Priority::parse("URGENT"), None);
    }

    #[test]
    fn states_round_trip_and_classify() {
        let states = [
            JobState::Queued,
            JobState::Running,
            JobState::Done {
                digest: 0xDEAD_BEEF,
            },
            JobState::Failed {
                reason: "3 task(s) quarantined".to_owned(),
            },
            JobState::Cancelled {
                reason: "deadline-exceeded".to_owned(),
            },
            JobState::Shed {
                reason: "memory-pressure".to_owned(),
            },
        ];
        for state in &states {
            let line = journal::encode_line(&state.kv_fields());
            let fields = journal::decode_line(&line).unwrap();
            assert_eq!(&JobState::from_fields(&fields).unwrap(), state);
            assert_eq!(
                state.is_terminal(),
                !matches!(state, JobState::Queued | JobState::Running)
            );
        }
        assert_eq!(states[2].digest(), Some(0xDEAD_BEEF));
        assert_eq!(states[5].reason(), Some("memory-pressure"));
    }
}
