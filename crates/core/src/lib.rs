//! # RCHDroid — transparent runtime change handling
//!
//! This crate is the paper's contribution: when a runtime configuration
//! change (rotation, resize, language switch) reaches the foreground
//! activity, **do not restart it**. Instead:
//!
//! 1. put the current instance into the new **Shadow** state — invisible,
//!    alive, still receiving async-task callbacks (§3.2),
//! 2. create (or, from the second change on, **coin-flip** back) a
//!    **Sunny**-state instance built for the new configuration (§3.4),
//! 3. initialise it from the shadow's explicitly saved instance state and
//!    couple the two view trees with an **essence-based mapping** keyed by
//!    view id (§3.3),
//! 4. when an async task later mutates the shadow tree, **lazily migrate**
//!    the intercepted updates to the mapped sunny views using per-type
//!    policies (Table 1), once per delivery, each view's peer looked up
//!    by name in the other tree's index,
//! 5. reclaim the shadow instance with a **threshold GC** based on its age
//!    and entry frequency (§3.5, Algorithm 1).
//!
//! Apps need *zero* modifications: the machinery lives entirely at the
//! framework level (348 LoC in the paper's Android 10 patch — inventoried
//! by [`patch::patch_inventory`]).
//!
//! # Examples
//!
//! ```
//! use droidsim_app::{ActivityThread, AppModel, SimpleApp};
//! use droidsim_atms::{Atms, ConfigDecision};
//! use droidsim_config::Configuration;
//! use droidsim_kernel::SimTime;
//! use rchdroid::{ChangeKind, RchDroid};
//!
//! // Boot: one app in the foreground.
//! let model = SimpleApp::with_views(4);
//! let mut atms = Atms::new(Configuration::phone_portrait());
//! let mut thread = ActivityThread::new();
//! let start = atms.start_activity(model.component_name(), model.handled_changes());
//! let instance = thread.perform_launch_activity(
//!     &model, start.record, Configuration::phone_portrait(), None);
//! thread.resume_sequence(instance, false).unwrap();
//!
//! // A rotation arrives. The ATMS says it needs a restart, and
//! // RCHDroid handles it without one.
//! let (_, decision) = atms.update_global_config(Configuration::phone_landscape()).unwrap();
//! assert!(matches!(decision, ConfigDecision::Relaunch(_)));
//! let mut rch = RchDroid::new();
//! let outcome = rch
//!     .handle_configuration_change(&mut thread, &mut atms, &model, SimTime::from_millis(17))
//!     .unwrap();
//! assert_eq!(outcome.kind, ChangeKind::Init);
//! // The old instance is alive in the shadow state; a new sunny one shows.
//! assert!(thread.current_shadow().is_some());
//! assert!(thread.current_sunny().is_some());
//! ```

pub mod gc;
pub mod handler;
pub mod migration;
pub mod patch;
pub mod supervise;

pub use gc::{GcDecision, GcPolicy, ShadowAgeTracker};
pub use handler::{AsyncDelivery, ChangeKind, ChangeOutcome, HandlerError, RchDroid, RchOptions};
pub use migration::{MigrationEngine, MigrationReport};
pub use patch::{patch_inventory, PatchEntry};
pub use supervise::{FaultRecord, LadderRung, MigrationError, MigrationWatchdog};
