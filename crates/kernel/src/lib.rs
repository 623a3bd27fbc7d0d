//! Deterministic discrete-event simulation kernel.
//!
//! The whole RCHDroid reproduction runs on a *virtual* clock: there are no OS
//! threads, no wall-clock reads, and every run is reproducible from a seed.
//! This crate provides the three primitives everything else builds on:
//!
//! * [`SimTime`] / [`SimDuration`] — microsecond-resolution virtual time,
//! * [`EventQueue`] — a monotone priority queue of timestamped events with
//!   FIFO tie-breaking (two events scheduled for the same instant fire in the
//!   order they were scheduled),
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
//! use droidsim_kernel::{EventQueue, SimDuration, SimTime};
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.schedule(SimTime::ZERO + SimDuration::from_millis(5), "second");
//! q.schedule(SimTime::ZERO, "first");
//! assert_eq!(q.pop().map(|e| e.payload), Some("first"));
//! assert_eq!(q.pop().map(|e| e.payload), Some("second"));
//! ```

pub mod alloc_track;
pub mod id;
pub mod intern;
pub mod journal;
pub mod memo;
pub mod queue;
pub mod rng;
pub mod time;

pub use id::IdGen;
pub use intern::Symbol;
pub use queue::{Event, EventQueue};
pub use rng::{SplitMix64, Xoshiro256};
pub use time::{SimDuration, SimTime};
