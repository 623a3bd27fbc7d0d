//! Static migration-safety analysis — the `rchlint` engine.
//!
//! The §6 evaluation finds runtime-change issues *dynamically*: set the
//! app's state, rotate twice, diff what survived. But every property
//! that determines those verdicts is visible in the app model before
//! anything runs — how each state item is held, which views carry ids,
//! whether an async task is in flight, whether the app self-handles
//! changes, and whether Table 1 covers each async attribute write. In
//! the spirit of static data-loss detectors (Guo et al.; Riganelli et
//! al.'s Data Loss Detector), this crate turns those properties into:
//!
//! * **Diagnostics** ([`diag`]) — typed `RCH0xx` lints with severities,
//!   stable `app → activity → view path` locations, per-app
//!   suppression, and byte-stable human/JSON renderers;
//! * **Shapes** ([`shape`]) — the analyzable view of an app: one
//!   inflation plus `onCreate` per orientation and a strict nesting
//!   check on the template, no simulation;
//! * **Passes** ([`passes`]) — the structural analyses (key collisions,
//!   unmapped views, Table-1 coverage, stale callbacks, self-handling
//!   conflicts, verdict prediction), plus the data-loss dataflow family
//!   ([`passes_dataloss`]): field-level save/restore reachability over
//!   persistence descriptors, `RCH007`–`RCH012`;
//! * **Verdicts** ([`verdict`]) — a field-exact static prediction of
//!   the dynamic oracle's `DetectionReport` under stock, RCHDroid and
//!   RuntimeDroid;
//! * **Reports** ([`report`]) — fleet-parallel corpus runs whose
//!   digest, ledger and renderings (human, JSON, SARIF) are identical
//!   for any worker count.
//!
//! The analyzer is deliberately *checkable*: `rchlint --differential`
//! replays every corpus app through the dynamic oracle and fails on any
//! disagreement, so the analyzer checks the simulator and the simulator
//! checks the analyzer.

pub mod diag;
pub mod passes;
pub mod passes_dataloss;
pub mod report;
pub mod shape;
pub mod verdict;

pub use diag::{Diagnostic, LintCode, Loc, Severity, Suppressions};
pub use passes::analyze_app;
pub use passes_dataloss::dataloss_passes;
pub use report::{analyze_specs, AnalysisReport, AppAnalysis};
pub use shape::{view_path, AppShape, ConfigTree};
pub use verdict::{predict, AnalysisMode, StaticVerdict};
