//! `droidsim-daemon`: a resident fleet service for the RCHDroid
//! reproduction.
//!
//! The experiment binaries (`table5`, `fig10`, …) are batch processes:
//! one study, one process, one exit code. This crate turns the same
//! machinery into a long-running service — `droidsimd` — that accepts
//! simulation jobs over a local Unix socket, schedules them on a
//! persistent worker pool, and survives being killed mid-run:
//!
//! * **Admission control** ([`queue`]): a bounded priority queue that
//!   answers every submission explicitly — `accepted` (journaled
//!   first), or `rejected` with the reason. Nothing is ever silently
//!   dropped.
//! * **Durability** ([`journal`]): accept-before-ack journaling plus
//!   per-job fleet journals, so a restarted daemon resumes every
//!   acknowledged incomplete job to a digest identical to an
//!   uninterrupted run.
//! * **Load shedding** ([`headroom`], [`daemon`]): under memory
//!   pressure the watchdog sheds the lowest-priority queued class with
//!   an explicit terminal `shed` state, and the door rejects non-high
//!   submissions outright.
//! * **Protocol** ([`server`], [`client`]): one request line in, one
//!   response line out, encoded with the same `key=value` codec as
//!   every journal in the workspace
//!   ([`droidsim_kernel::journal`]).
//!
//! The scheduling core is transport-agnostic (a [`Daemon`] can be
//! driven in-process, which is how the unit tests and the restart
//! property tests use it); the socket layer is a thin loop on top.

pub mod client;
pub mod daemon;
pub mod faultio;
pub mod headroom;
pub mod journal;
pub mod queue;
pub mod server;
pub mod spec;

pub use client::{Backoff, Client};
pub use daemon::{
    Admission, Daemon, DaemonConfig, DaemonStats, JobControl, JobExecutor, JobStatus, JobVerdict,
    ShutdownMode,
};
pub use faultio::IoFaults;
pub use headroom::HeadroomProbe;
pub use journal::{DaemonJournal, JournalView, JournaledJob};
pub use queue::{AdmissionQueue, Admit, QueuedJob};
pub use spec::{JobKind, JobSpec, JobState, Priority};

/// This crate's errors: I/O, journal integrity, protocol violations.
#[derive(Debug)]
pub enum DaemonError {
    /// An underlying I/O failure (socket, journal file).
    Io(std::io::Error),
    /// A journal that cannot be trusted: foreign header, unsupported
    /// version, or a caller-visible integrity problem.
    Journal(String),
    /// A malformed request or response line.
    Proto(String),
}

impl std::fmt::Display for DaemonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DaemonError::Io(e) => write!(f, "daemon I/O: {e}"),
            DaemonError::Journal(m) => write!(f, "daemon journal: {m}"),
            DaemonError::Proto(m) => write!(f, "daemon protocol: {m}"),
        }
    }
}

impl std::error::Error for DaemonError {}

impl From<std::io::Error> for DaemonError {
    fn from(e: std::io::Error) -> Self {
        DaemonError::Io(e)
    }
}
