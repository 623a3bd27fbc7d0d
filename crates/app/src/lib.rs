//! The app-process side of activity management: lifecycle states, activity
//! instances, the black-box app-model trait, and the activity thread.
//!
//! This is the half of the Android framework that lives inside each app's
//! process (Fig. 2a of the paper): the **activity thread** owns activity
//! *instances*, each with a view tree, and is the only thread allowed to
//! touch views; async work finishes by running its callback on it.
//!
//! The paper's patch surface here (Table 2):
//!
//! * `Activity` (+81 LoC) — Shadow/Sunny state plumbing,
//!   `getAllSunnyViews`/`setSunnyViews` (exposed on the view tree),
//! * `ActivityThread` (+91 LoC) — current shadow/sunny instance pointers,
//!   modified `performActivityConfigurationChanged`,
//!   `performLaunchActivity` (loads the shadow bundle) and
//!   `handleResumeActivity` (builds the mapping), plus the GC routine hook.
//!
//! Apps are **black boxes**: the framework sees only an [`AppModel`] that
//! supplies resources/layouts and reacts to lifecycle callbacks and async
//! results by applying [`ViewOp`](droidsim_view::ViewOp)s. The framework
//! never inspects why an op happens — RCHDroid's lazy migration works
//! purely off intercepted invalidations.

pub mod activity;
pub mod fragment;
pub mod model;
pub mod state;
pub mod thread;

pub use activity::{Activity, ActivityInstanceId};
pub use fragment::{AttachedFragment, FragmentError, FragmentSpec};
pub use model::{AppModel, AsyncResult, AsyncSpec, SimpleApp};
pub use state::{ActivityState, StateError};
pub use thread::{ActivityThread, AsyncWork, ThreadError};
