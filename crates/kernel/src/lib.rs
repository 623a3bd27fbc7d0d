//! Deterministic discrete-event simulation kernel.
//!
//! The whole RCHDroid reproduction runs on a *virtual* clock: there are no OS
//! threads, no wall-clock reads, and every run is reproducible from a seed.
//! This crate provides the primitives everything else builds on:
//!
//! * [`SimTime`] / [`SimDuration`] — microsecond-resolution virtual time,
//! * [`SplitMix64`] / [`Xoshiro256`] — small, dependency-free deterministic
//!   PRNGs used for workload generation and jitter injection,
//! * [`IdGen`] — monotonically increasing id allocation for tokens, views,
//!   records, … — and [`id::IdMap`], the one-multiply hash map for keys
//!   the program issues (ids, arena indices, interned symbols),
//! * [`journal`] — the `key=value` line codec and the crash-safe
//!   append-only log behind the fleet and daemon journals.
//! * [`alloc_track`] — coarse allocation-event accounting, read by the
//!   daemon's `stats` endpoint and the `rchbench` benchmark.
//! * [`memo`] — the kill switch and process-wide telemetry of the
//!   per-process inflation caches.
//!
//! # Examples
//!
//! ```
//! use droidsim_kernel::{SimDuration, SimTime, Xoshiro256};
//!
//! let deadline = SimTime::ZERO + SimDuration::from_secs(5);
//! assert!(SimTime::from_millis(4_999) < deadline);
//! assert_eq!(deadline.as_millis_f64(), 5_000.0);
//!
//! let (mut a, mut b) = (Xoshiro256::seed_from(7), Xoshiro256::seed_from(7));
//! assert_eq!(a.next_u64(), b.next_u64(), "one seed, one stream");
//! ```

pub mod alloc_track;
pub mod id;
pub mod intern;
pub mod journal;
pub mod memo;
pub mod rng;
pub mod time;

pub use id::IdGen;
pub use intern::Symbol;
pub use rng::{SplitMix64, Xoshiro256};
pub use time::{SimDuration, SimTime};
