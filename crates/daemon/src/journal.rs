//! The daemon's crash-safe acceptance journal: its header and record
//! schema.
//!
//! The durability contract of the daemon is **accept-before-ack**: a
//! submission is journaled (and fsync'd) *before* the client receives
//! its `accepted` response, and every terminal state transition is
//! journaled when it happens. A daemon that crashes and restarts can
//! therefore replay the journal and know exactly which acknowledged
//! jobs have no terminal state yet — those are re-queued, and their
//! per-job fleet journals (written by the supervised runner) let a
//! half-finished study resume task-by-task to the same digest.
//!
//! The file is a `kind=daemon-journal version=…` header, then
//! `accepted`, `state` and `probe` records. What a crash or a failed
//! append may cost, and how the file is repaired, are the crash rules
//! of [`droidsim_kernel::journal`]. A header that is not this daemon's
//! (a foreign journal, another version) is rejected outright, never
//! silently reinterpreted.

use std::collections::BTreeMap;
use std::path::Path;

use droidsim_kernel::journal::{self, Log};

use crate::faultio::IoFaults;
use crate::spec::{JobSpec, JobState};
use crate::DaemonError;

/// Journal format version written into (and required of) the header.
pub const JOURNAL_VERSION: u32 = 1;

/// One job as the journal remembers it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournaledJob {
    /// The daemon-assigned id.
    pub id: u64,
    /// The accepted spec.
    pub spec: JobSpec,
    /// The last journaled *terminal* state, `None` while incomplete —
    /// an incomplete entry is an acknowledged promise a restarted
    /// daemon must resume.
    pub terminal: Option<JobState>,
}

/// Everything a journal replay reconstructs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JournalView {
    /// Every accepted job in id order.
    pub jobs: BTreeMap<u64, JournaledJob>,
    /// The next id a restarted daemon may assign (max seen + 1).
    pub next_id: u64,
}

impl JournalView {
    /// Jobs acknowledged but not yet terminal — the resume set.
    pub fn incomplete(&self) -> impl Iterator<Item = &JournaledJob> {
        self.jobs.values().filter(|j| j.terminal.is_none())
    }
}

/// Append handle to a daemon journal (see module docs). Every append
/// goes through the [`IoFaults`] shim.
#[derive(Debug)]
pub struct DaemonJournal {
    log: Log<IoFaults>,
}

impl DaemonJournal {
    /// Opens `path` for appending, repairing a torn file first, and
    /// returns the handle with the view the journal's records rebuild.
    /// A file that is not a daemon journal of the supported version is
    /// a [`DaemonError::Journal`], and nothing is written to it.
    pub fn open(
        path: &Path,
        faults: IoFaults,
    ) -> Result<(DaemonJournal, JournalView), DaemonError> {
        let (log, view) = Log::open(path, &Records, faults)?;
        Ok((DaemonJournal { log }, view))
    }

    /// Journals an acceptance. Must complete (including fsync) before
    /// the client is told `accepted` — that ordering *is* the
    /// durability contract.
    pub fn record_accepted(&mut self, id: u64, spec: &JobSpec) -> Result<(), DaemonError> {
        let mut fields = vec![("kind", "accepted".to_owned()), ("id", id.to_string())];
        fields.extend(spec.kv_fields());
        Ok(self.log.append(&fields)?)
    }

    /// Journals a terminal state transition. Non-terminal states are
    /// never journaled (a restart infers `queued` from absence).
    pub fn record_state(&mut self, id: u64, state: &JobState) -> Result<(), DaemonError> {
        debug_assert!(state.is_terminal(), "only terminal states are journaled");
        let mut fields = vec![("kind", "state".to_owned()), ("id", id.to_string())];
        fields.extend(state.kv_fields());
        Ok(self.log.append(&fields)?)
    }

    /// Appends one fsync'd probe record. The replay skips probe
    /// records, so they carry no state — their only job is to prove,
    /// end to end through the same write+sync path every real record
    /// takes, that the journal accepts bytes again. The degraded
    /// daemon's watchdog calls this each tick until it succeeds.
    pub fn probe(&mut self) -> Result<(), DaemonError> {
        Ok(self.log.append(&[("kind", "probe")])?)
    }

    /// Whether the last append failed; whatever it left is rolled back
    /// before the next append.
    pub fn is_dirty(&self) -> bool {
        self.log.is_dirty()
    }

    /// Replays a journal without repairing it. A missing, torn or
    /// foreign header is an error.
    pub fn load(path: &Path) -> Result<JournalView, DaemonError> {
        journal::replay(path, &Records)?.ok_or_else(|| {
            DaemonError::Journal(format!("{}: missing or unreadable header", path.display()))
        })
    }
}

/// The daemon journal's header and record schema.
struct Records;

impl journal::Schema for Records {
    type State = JournalView;
    type Error = DaemonError;

    fn header(&self) -> String {
        journal::encode_line(&[
            ("kind", "daemon-journal"),
            ("version", &JOURNAL_VERSION.to_string()),
        ])
    }

    fn check_header(
        &self,
        path: &Path,
        header: &[(String, String)],
    ) -> Result<JournalView, DaemonError> {
        if journal::field(header, "kind") != Some("daemon-journal") {
            return Err(DaemonError::Journal(format!(
                "{}: not a daemon journal",
                path.display()
            )));
        }
        let version: u32 = journal::field(header, "version")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| {
                DaemonError::Journal(format!("{}: header lacks a version", path.display()))
            })?;
        if version != JOURNAL_VERSION {
            return Err(DaemonError::Journal(format!(
                "{}: journal version {version} (this daemon speaks {JOURNAL_VERSION})",
                path.display()
            )));
        }
        Ok(JournalView {
            next_id: 1,
            ..JournalView::default()
        })
    }

    /// Rejects a record that references an id no `accepted` line
    /// introduced, an unknown record kind, or unparseable fields.
    fn apply(&self, view: &mut JournalView, fields: &[(String, String)]) -> bool {
        let id: Option<u64> = journal::field(fields, "id").and_then(|v| v.parse().ok());
        match (journal::field(fields, "kind"), id) {
            // A degraded-mode health probe: proves the journal accepts
            // writes again, carries no job state.
            (Some("probe"), _) => true,
            (Some("accepted"), Some(id)) => {
                let Ok(spec) = JobSpec::from_fields(fields) else {
                    return false;
                };
                view.jobs.insert(
                    id,
                    JournaledJob {
                        id,
                        spec,
                        terminal: None,
                    },
                );
                view.next_id = view.next_id.max(id + 1);
                true
            }
            (Some("state"), Some(id)) => {
                let (Ok(state), Some(entry)) =
                    (JobState::from_fields(fields), view.jobs.get_mut(&id))
                else {
                    return false;
                };
                if state.is_terminal() {
                    entry.terminal = Some(state);
                }
                true
            }
            _ => false,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::spec::JobKind;
    use std::fs;
    use std::path::PathBuf;

    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("droidsimd-journal-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir.join("daemon.journal")
    }

    fn spec(seed: u64) -> JobSpec {
        JobSpec::new(JobKind::Table5 { apps: 3 }).with_seed(seed)
    }

    #[test]
    fn replay_reconstructs_accepted_and_terminal_jobs() {
        let path = scratch("replay");
        {
            let (mut j, _) = DaemonJournal::open(&path, IoFaults::disarmed()).unwrap();
            j.record_accepted(1, &spec(11)).unwrap();
            j.record_accepted(2, &spec(22)).unwrap();
            j.record_state(1, &JobState::Done { digest: 0xABCD })
                .unwrap();
            j.record_accepted(3, &spec(33)).unwrap();
            j.record_state(
                3,
                &JobState::Shed {
                    reason: "memory-pressure".to_owned(),
                },
            )
            .unwrap();
        }
        let view = DaemonJournal::load(&path).unwrap();
        assert_eq!(view.jobs.len(), 3);
        assert_eq!(view.next_id, 4);
        assert_eq!(
            view.jobs[&1].terminal,
            Some(JobState::Done { digest: 0xABCD })
        );
        assert_eq!(view.jobs[&2].terminal, None, "job 2 is the resume set");
        let incomplete: Vec<u64> = view.incomplete().map(|j| j.id).collect();
        assert_eq!(incomplete, vec![2]);
        assert_eq!(view.jobs[&2].spec.seed, 22, "spec survives the round trip");
    }

    #[test]
    fn torn_tail_keeps_the_prefix() {
        let path = scratch("torn");
        {
            let (mut j, _) = DaemonJournal::open(&path, IoFaults::disarmed()).unwrap();
            j.record_accepted(1, &spec(1)).unwrap();
            j.record_state(1, &JobState::Done { digest: 7 }).unwrap();
            j.record_accepted(2, &spec(2)).unwrap();
        }
        // Simulate a crash mid-append: chop the file mid-record.
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, &text[..text.len() - 9]).unwrap();
        let view = DaemonJournal::load(&path).unwrap();
        assert_eq!(view.jobs[&1].terminal, Some(JobState::Done { digest: 7 }));
        assert!(!view.jobs.contains_key(&2), "torn acceptance is dropped");
        // And the journal reopens for appending after the tear.
        let (mut j, _) = DaemonJournal::open(&path, IoFaults::disarmed()).unwrap();
        j.record_accepted(9, &spec(9)).unwrap();
        assert!(DaemonJournal::load(&path).unwrap().jobs.contains_key(&9));
    }

    #[test]
    fn foreign_files_are_rejected_not_reinterpreted() {
        let path = scratch("foreign");
        fs::write(&path, "kind=header seed=1 items=4\n").unwrap(); // a *fleet* journal
        assert!(matches!(
            DaemonJournal::load(&path),
            Err(DaemonError::Journal(_))
        ));
        assert!(
            matches!(
                DaemonJournal::open(&path, IoFaults::disarmed()),
                Err(DaemonError::Journal(_))
            ),
            "appending to a foreign file must fail before writing"
        );
        fs::write(&path, "kind=daemon-journal version=99\n").unwrap();
        assert!(matches!(
            DaemonJournal::load(&path),
            Err(DaemonError::Journal(_))
        ));
    }

    #[test]
    fn torn_header_restarts_the_journal_empty() {
        let path = scratch("torn-header");
        fs::write(&path, "kind=daemon-jour").unwrap(); // crash mid-header
        assert!(
            DaemonJournal::load(&path).is_err(),
            "a torn header is unreadable"
        );
        // …but append recovery is safe: no record can exist before the
        // header, so the file restarts empty instead of bricking.
        let (mut j, _) = DaemonJournal::open(&path, IoFaults::disarmed()).unwrap();
        j.record_accepted(1, &spec(1)).unwrap();
        let view = DaemonJournal::load(&path).unwrap();
        assert_eq!(view.jobs.len(), 1);
        // A *complete* foreign header still refuses recovery.
        fs::write(&path, "kind=fleet-journal version=1\n").unwrap();
        assert!(DaemonJournal::open(&path, IoFaults::disarmed()).is_err());
    }

    #[test]
    fn injected_write_faults_never_corrupt_the_accepted_prefix() {
        use droidsim_faults::{FaultPlan, FaultSite};
        let path = scratch("io-faults");
        // Every odd append fails (alternating ENOSPC and short write);
        // the journal must repair itself so every *successful* append
        // replays, and nothing before a failure is ever lost.
        let io = IoFaults::new(
            FaultPlan::seeded(3)
                .on_nth_probe(FaultSite::JournalWrite, 1)
                .on_nth_probe(FaultSite::JournalWrite, 3)
                .on_nth_probe(FaultSite::JournalWrite, 5),
        );
        let (mut j, _) = DaemonJournal::open(&path, io).unwrap();
        let mut accepted = Vec::new();
        for id in 1..=6u64 {
            if j.record_accepted(id, &spec(id)).is_ok() {
                accepted.push(id);
            }
        }
        assert_eq!(accepted, vec![2, 4, 6], "odd appends were refused");
        let view = DaemonJournal::load(&path).unwrap();
        let replayed: Vec<u64> = view.jobs.keys().copied().collect();
        assert_eq!(replayed, accepted, "exactly the successes replay");
        // A short write left torn bytes mid-file at some point; the
        // repair must have rolled them back, so the file is pure valid
        // lines.
        let text = fs::read_to_string(&path).unwrap();
        assert!(text.ends_with('\n'), "no torn tail survives");
        assert_eq!(text.lines().count(), 1 + accepted.len());
    }

    #[test]
    fn sync_faults_roll_back_and_probe_records_replay_clean() {
        use droidsim_faults::{FaultPlan, FaultSite};
        let path = scratch("sync-fault");
        let io = IoFaults::new(FaultPlan::seeded(4).on_nth_probe(FaultSite::JournalSync, 1));
        let (mut j, _) = DaemonJournal::open(&path, io).unwrap();
        assert!(
            j.record_accepted(1, &spec(1)).is_err(),
            "a failed fsync means not journaled"
        );
        assert!(j.is_dirty(), "post-fsync-failure bytes are untrusted");
        // The probe rolls back the untrusted tail and proves the path.
        j.probe().unwrap();
        assert!(!j.is_dirty());
        j.record_accepted(2, &spec(2)).unwrap();
        let view = DaemonJournal::load(&path).unwrap();
        assert!(!view.jobs.contains_key(&1), "unsynced record is gone");
        assert!(view.jobs.contains_key(&2));
        // Probe records are invisible to the view but keep the replay
        // walking (they are *not* a torn tail).
        assert_eq!(view.next_id, 3);
    }

    #[test]
    fn state_for_unknown_id_ends_the_replay() {
        let path = scratch("unknown-id");
        {
            let (mut j, _) = DaemonJournal::open(&path, IoFaults::disarmed()).unwrap();
            j.record_accepted(1, &spec(1)).unwrap();
        }
        let mut text = fs::read_to_string(&path).unwrap();
        text.push_str("kind=state id=42 state=done digest=00000000000000ff\n");
        text.push_str("kind=accepted id=5 job=fig10\n"); // after the tear: ignored
        fs::write(&path, text).unwrap();
        let view = DaemonJournal::load(&path).unwrap();
        assert_eq!(view.jobs.len(), 1);
        assert!(view.jobs.contains_key(&1));
    }

    /// The on-disk format, pinned: accepted, state and probe records
    /// byte for byte, so journals already on disk keep opening.
    pub(crate) const PINNED_JOURNAL: &str = "kind=daemon-journal version=1\n\
        kind=accepted id=1 job=table5 apps=3 seed=11 priority=normal inner_jobs=1 retries=3 tag=nightly%20run dedupe=k%3d1\n\
        kind=accepted id=2 job=fig10 seed=24301 priority=normal inner_jobs=1 deadline_ms=500 retries=3\n\
        kind=state id=1 state=done digest=000000000000abcd\n\
        kind=probe\n\
        kind=accepted id=3 job=table5 apps=3 seed=33 priority=normal inner_jobs=1 retries=3\n\
        kind=state id=3 state=shed reason=memory-pressure\n";

    #[test]
    fn records_keep_their_pinned_bytes_and_old_journals_replay() {
        let path = scratch("pinned");
        {
            let (mut j, _) = DaemonJournal::open(&path, IoFaults::disarmed()).unwrap();
            let tagged = spec(11).with_tag("nightly run").with_dedupe_key("k=1");
            j.record_accepted(1, &tagged).unwrap();
            j.record_accepted(2, &JobSpec::new(JobKind::Fig10).with_deadline_ms(500))
                .unwrap();
            j.record_state(1, &JobState::Done { digest: 0xABCD })
                .unwrap();
            j.probe().unwrap();
            j.record_accepted(3, &spec(33)).unwrap();
            let shed = JobState::Shed {
                reason: "memory-pressure".to_owned(),
            };
            j.record_state(3, &shed).unwrap();
        }
        assert_eq!(fs::read_to_string(&path).unwrap(), PINNED_JOURNAL);

        // A journal already on disk in this format opens, replays, and
        // takes new records after its last line.
        fs::write(&path, PINNED_JOURNAL).unwrap();
        let (mut j, view) = DaemonJournal::open(&path, IoFaults::disarmed()).unwrap();
        assert_eq!(view, DaemonJournal::load(&path).unwrap());
        assert_eq!(view.next_id, 4);
        assert_eq!(view.jobs[&1].spec.tag, "nightly run");
        assert_eq!(view.jobs[&1].spec.dedupe_key, "k=1");
        assert_eq!(
            view.jobs[&1].terminal,
            Some(JobState::Done { digest: 0xABCD })
        );
        let incomplete: Vec<u64> = view.incomplete().map(|j| j.id).collect();
        assert_eq!(incomplete, vec![2]);
        j.record_state(2, &JobState::Done { digest: 7 }).unwrap();
        assert_eq!(
            fs::read_to_string(&path).unwrap(),
            format!("{PINNED_JOURNAL}kind=state id=2 state=done digest=0000000000000007\n")
        );
    }
}
