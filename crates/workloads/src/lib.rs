//! Workloads: the app sets the paper evaluates on.
//!
//! * [`tp27`] — the 27 apps of the TP-37 set that run on the evaluation
//!   board (Table 3), each with its documented runtime-change issue,
//! * [`top100`] — the Google-Play top-100 study of §6 (Table 5),
//! * [`benchmark`] — the synthetic benchmark apps (N ImageViews + a
//!   Button whose AsyncTask updates them after 5 s) used by Figs. 9–11,
//! * [`generic`] — the [`generic::GenericApp`] model that realises an
//!   app descriptor as black-box `AppModel` (droidsim-app) logic, with each state item bound to a concrete
//!   *mechanism* (framework view, custom view without `onSaveInstanceState`,
//!   dynamically created view, member field saved/unsaved) so that the
//!   simulator *derives* Table 3/5 outcomes from mechanism rather than
//!   looking them up.
//!
//! Per-app quantitative parameters (view counts, complexity, memory) are
//! generated deterministically from the app's name, calibrated so that
//! set-level aggregates land in the paper's ranges (TP-27 apps ≈ 47.6 MB
//! base PSS and ≈ 141-160 ms stock handling; top-100 apps ≈ 162 MB and
//! ≈ 420 ms).

pub mod benchmark;
pub mod dataloss;
pub mod generic;
pub mod top100;
pub mod tp27;

pub use benchmark::{view_sweep, DeepApp, BENCHMARK_BASE_MEMORY};
pub use dataloss::{
    dataloss_specs, DataLossClass, DataLossField, DataLossScenario, FieldOwner, FieldPersistence,
    DATALOSS_APPS_PER_CLASS,
};
pub use generic::{GenericApp, GenericAppSpec, StateItem, StateMechanism};
pub use top100::{top100_sample, top100_specs};
pub use tp27::tp27_specs;
