//! Activity records — the system server's bookkeeping for one activity
//! instance.

use droidsim_config::{ConfigChanges, Configuration};
use droidsim_kernel::SimTime;

droidsim_kernel::define_id! {
    /// The token identifying an activity record (and, across the IPC
    /// boundary, the matching activity instance in the app process).
    pub struct ActivityRecordId
}

/// Lifecycle state as tracked by the system server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RecordState {
    /// Created but not yet resumed.
    #[default]
    Initializing,
    /// Foreground, interacting with the user.
    Resumed,
    /// Visible but not focused.
    Paused,
    /// Not visible.
    Stopped,
    /// Destroyed; the token is dead.
    Destroyed,
}

/// One activity record in a task's stack.
///
/// The paper's `ActivityRecord` patch (+11 LoC) adds the shadow-state
/// field and its accessors; they are plain stock-inert data here.
#[derive(Debug, Clone, PartialEq)]
pub struct ActivityRecord {
    id: ActivityRecordId,
    component: String,
    /// The configuration this record was created (or last relaunched) for.
    pub config: Configuration,
    /// Server-side lifecycle state.
    pub state: RecordState,
    /// The `android:configChanges` mask the app declared for this
    /// activity: diffs covered by it never cause a relaunch.
    pub handled_changes: ConfigChanges,
    shadow: bool,
    /// When the record last entered the shadow state (GC input).
    pub shadow_since: Option<SimTime>,
    /// The instance-state bundle the system retains on the record's
    /// behalf: Android keeps `onSaveInstanceState`'s output in the
    /// system server so an instance reclaimed under memory pressure can
    /// be restored when the user returns.
    pub saved_state: Option<droidsim_bundle::Bundle>,
}

impl ActivityRecord {
    /// Creates a record in the `Initializing` state.
    pub fn new(
        id: ActivityRecordId,
        component: &str,
        config: Configuration,
        handled_changes: ConfigChanges,
    ) -> Self {
        ActivityRecord {
            id,
            component: component.to_owned(),
            config,
            state: RecordState::Initializing,
            handled_changes,
            shadow: false,
            shadow_since: None,
            saved_state: None,
        }
    }

    /// The record's token.
    pub fn id(&self) -> ActivityRecordId {
        self.id
    }

    /// The component name.
    pub fn component(&self) -> &str {
        &self.component
    }

    /// RCHDroid accessor: whether the record is in the shadow state.
    pub fn is_shadow(&self) -> bool {
        self.shadow
    }

    /// RCHDroid accessor: enters/leaves the shadow state, stamping the
    /// entry time for the GC policy.
    pub fn set_shadow(&mut self, shadow: bool, now: SimTime) {
        self.shadow = shadow;
        self.shadow_since = if shadow { Some(now) } else { None };
    }

    /// Whether the record is alive (not destroyed).
    pub fn is_alive(&self) -> bool {
        self.state != RecordState::Destroyed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> ActivityRecord {
        ActivityRecord::new(
            ActivityRecordId::new(1),
            "com.example/.Main",
            Configuration::phone_portrait(),
            ConfigChanges::NONE,
        )
    }

    #[test]
    fn new_record_is_initializing_and_not_shadow() {
        let r = record();
        assert_eq!(r.state, RecordState::Initializing);
        assert!(!r.is_shadow());
        assert!(r.is_alive());
        assert_eq!(r.shadow_since, None);
    }

    #[test]
    fn shadow_toggle_stamps_time() {
        let mut r = record();
        r.set_shadow(true, SimTime::from_secs(10));
        assert!(r.is_shadow());
        assert_eq!(r.shadow_since, Some(SimTime::from_secs(10)));
        r.set_shadow(false, SimTime::from_secs(20));
        assert!(!r.is_shadow());
        assert_eq!(r.shadow_since, None);
    }

    #[test]
    fn destroyed_records_are_dead() {
        let mut r = record();
        r.state = RecordState::Destroyed;
        assert!(!r.is_alive());
    }
}
