//! The activity task manager service (ATMS) — the system-server side of
//! activity management.
//!
//! Mirrors the structures of Fig. 2(b): the ATMS owns an *activity stack*
//! of *task records*; each task owns a stack of *activity records*; the
//! topmost record of the topmost task is the foreground interface. The
//! system server controls activity lifecycles through these records and
//! IPCs back to the app's activity thread.
//!
//! It answers only what the three runtimes ask: a launch
//! ([`Atms::start_activity`]), RCHDroid's sunny start
//! ([`Atms::start_sunny`]), and one configuration verdict per change,
//! returned by [`Atms::update_global_config`].
//!
//! The paper's patch touches three classes here (Table 2):
//!
//! * `ActivityRecord` (+11 LoC) — a shadow-state field and accessors, and
//!   `ensureActivityConfiguration` modified to skip the relaunch when
//!   RCHDroid handles the change: RCHDroid's handler takes the
//!   [`ConfigDecision::Relaunch`] verdict instead of a restart,
//! * `ActivityStack` (+29 LoC) — [`TaskRecord::find_shadow_activity`],
//! * `ActivityStarter` (+41 LoC) — the coin-flipping start path,
//!   [`Atms::start_sunny`], which the sunny flag of the +4 LoC `Intent`
//!   patch selects; here that path is a call of its own.
//!
//! # Examples
//!
//! ```
//! use droidsim_atms::{Atms, StartDisposition};
//! use droidsim_config::{ConfigChanges, Configuration};
//!
//! let mut atms = Atms::new(Configuration::phone_portrait());
//! let start = atms.start_activity("com.example/.Main", ConfigChanges::NONE);
//! assert!(matches!(start.disposition, StartDisposition::CreatedNew));
//! let record = atms.record(start.record).unwrap();
//! assert_eq!(record.component(), "com.example/.Main");
//! ```

pub mod record;
pub mod service;
pub mod stack;

pub use record::{ActivityRecord, ActivityRecordId, RecordState};
pub use service::{Atms, AtmsError, ConfigDecision, StartDisposition, StartResult};
pub use stack::{ActivityStack, TaskId, TaskRecord};
