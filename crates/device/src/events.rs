//! The device's observable event log — what the experiment harnesses
//! consume to rebuild the paper's figures.

use droidsim_kernel::{SimDuration, SimTime};
use std::rc::Rc;

/// Which handling path a configuration change took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HandlingPath {
    /// Global configuration unchanged.
    NoChange,
    /// App-declared `configChanges`; in-place `onConfigurationChanged`.
    HandledByApp,
    /// Stock Android 10 destroy + recreate.
    Relaunch,
    /// RCHDroid first change (create + couple).
    RchInit,
    /// RCHDroid steady-state coin flip.
    RchFlip,
    /// RCHDroid degraded to the stock restart path after an absorbed
    /// fault (rung 2 of the degradation ladder).
    RchFallback,
    /// RuntimeDroid in-place reconstruction.
    RuntimeDroidInPlace,
}

/// One entry of the device's event log.
///
/// An entry copies no text on the handling paths: its component is the
/// app's one shared name, and a fault's site and rung are static names.
#[derive(Debug, Clone, PartialEq)]
pub enum DeviceEvent {
    /// An app was installed and brought to the foreground.
    AppLaunched {
        /// Completion time.
        at: SimTime,
        /// Component name.
        component: Rc<str>,
    },
    /// A runtime configuration change was handled.
    ConfigChange {
        /// Arrival time at the ATMS.
        at: SimTime,
        /// Handling latency (change arrival → activity resumed).
        latency: SimDuration,
        /// Path taken.
        path: HandlingPath,
        /// Foreground component.
        component: Rc<str>,
    },
    /// An async callback was delivered.
    AsyncDelivered {
        /// Delivery time.
        at: SimTime,
        /// Component.
        component: Rc<str>,
        /// Lazy-migration cost, when the callback landed on a shadow
        /// instance and its updates were migrated (RCHDroid only).
        migration_latency: Option<SimDuration>,
        /// Views migrated in that pass.
        migrated_views: usize,
    },
    /// An app crashed (uncaught exception on the UI thread).
    Crash {
        /// Crash time.
        at: SimTime,
        /// Component.
        component: Rc<str>,
        /// The exception, rendered.
        exception: String,
    },
    /// A shadow-GC pass ran.
    GcPass {
        /// Time of the pass.
        at: SimTime,
        /// Whether the shadow instance was reclaimed.
        collected: bool,
    },
    /// The degradation ladder absorbed an injected or organic fault
    /// (rungs 1 and 2 — rung 3 surfaces as [`DeviceEvent::Crash`]).
    Fault {
        /// When the fault was absorbed.
        at: SimTime,
        /// Component whose handler absorbed it.
        component: Rc<str>,
        /// The fault site's stable name (e.g. `"bundle-corruption"`).
        site: &'static str,
        /// The ladder rung that handled it (e.g. `"contained-per-view"`).
        rung: &'static str,
    },
}

impl DeviceEvent {
    /// The event's timestamp.
    pub fn at(&self) -> SimTime {
        match self {
            DeviceEvent::AppLaunched { at, .. }
            | DeviceEvent::ConfigChange { at, .. }
            | DeviceEvent::AsyncDelivered { at, .. }
            | DeviceEvent::Crash { at, .. }
            | DeviceEvent::GcPass { at, .. }
            | DeviceEvent::Fault { at, .. } => *at,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn at_extracts_the_timestamp_of_every_variant() {
        let t = SimTime::from_millis(5);
        let events = [
            DeviceEvent::AppLaunched {
                at: t,
                component: "c".into(),
            },
            DeviceEvent::ConfigChange {
                at: t,
                latency: SimDuration::from_millis(1),
                path: HandlingPath::RchFlip,
                component: "c".into(),
            },
            DeviceEvent::AsyncDelivered {
                at: t,
                component: "c".into(),
                migration_latency: None,
                migrated_views: 0,
            },
            DeviceEvent::Crash {
                at: t,
                component: "c".into(),
                exception: "e".into(),
            },
            DeviceEvent::GcPass {
                at: t,
                collected: false,
            },
            DeviceEvent::Fault {
                at: t,
                component: "c".into(),
                site: "bundle-corruption",
                rung: "fallback-restart",
            },
        ];
        for e in events {
            assert_eq!(e.at(), t);
        }
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn an_event_is_eight_words() {
        // The widest entry is a fault: time, shared component name and
        // two static names. A new field that copies text grows this.
        assert_eq!(std::mem::size_of::<DeviceEvent>(), 64);
    }

    #[test]
    fn handling_paths_are_distinct() {
        let paths = [
            HandlingPath::NoChange,
            HandlingPath::HandledByApp,
            HandlingPath::Relaunch,
            HandlingPath::RchInit,
            HandlingPath::RchFlip,
            HandlingPath::RchFallback,
            HandlingPath::RuntimeDroidInPlace,
        ];
        for (i, a) in paths.iter().enumerate() {
            for (j, b) in paths.iter().enumerate() {
                assert_eq!(a == b, i == j);
            }
        }
    }
}
