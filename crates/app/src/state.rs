//! The activity lifecycle state machine (Fig. 4 of the paper).
//!
//! Solid-line states are stock Android; `Shadow` and `Sunny` are the two
//! states RCHDroid adds. A `Shadow` activity is invisible but alive — it
//! still receives async callbacks. A `Sunny` activity is the foreground
//! instance, equivalent to `Resumed` except that its view tree mirrors
//! changes migrated from the coupled shadow tree.

use core::fmt;

/// One activity instance's lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ActivityState {
    /// `onCreate` ran.
    Created,
    /// `onStart` ran; becoming visible.
    Started,
    /// Foreground, interactive.
    Resumed,
    /// Lost focus but may be partially visible.
    Paused,
    /// Fully hidden.
    Stopped,
    /// Destroyed; the instance and its views are released.
    Destroyed,
    /// RCHDroid: stopped with the shadow flag — invisible, alive,
    /// receiving async callbacks, exempt from system kill until GC'd.
    Shadow,
    /// RCHDroid: resumed with the sunny flag — the foreground instance
    /// coupled to a shadow.
    Sunny,
}

/// An illegal lifecycle transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateError {
    /// State the instance was in.
    pub from: ActivityState,
    /// State the caller requested.
    pub to: ActivityState,
}

impl fmt::Display for StateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "illegal lifecycle transition {} -> {}",
            self.from, self.to
        )
    }
}

impl std::error::Error for StateError {}

impl ActivityState {
    /// Whether the instance is alive (its view tree not released).
    pub fn is_alive(self) -> bool {
        self != ActivityState::Destroyed
    }

    /// Whether the instance is visible to the user.
    pub fn is_visible(self) -> bool {
        matches!(
            self,
            ActivityState::Resumed | ActivityState::Paused | ActivityState::Sunny
        )
    }

    /// Whether the instance is in the foreground and interactive.
    pub fn is_foreground(self) -> bool {
        matches!(self, ActivityState::Resumed | ActivityState::Sunny)
    }

    /// Whether the transition `self → to` is legal per Fig. 4.
    pub fn can_transition_to(self, to: ActivityState) -> bool {
        use ActivityState::{Created, Destroyed, Paused, Resumed, Shadow, Started, Stopped, Sunny};
        matches!(
            (self, to),
            // Stock forward path.
            (Created, Started)
                | (Started, Resumed)
                | (Resumed, Paused)
                | (Paused, Resumed)
                | (Paused, Stopped)
                | (Stopped, Started)  // restart after stop
                | (Stopped, Destroyed)
                | (Paused, Destroyed) // finish while paused
                // RCHDroid additions (dotted states in Fig. 4):
                | (Stopped, Shadow)   // stopped with the shadow flag
                | (Paused, Shadow)    // fast path during a runtime change
                | (Resumed, Sunny)    // resumed with the sunny flag
                | (Started, Sunny)    // first resume goes directly to sunny
                | (Shadow, Sunny)     // coin flip
                | (Sunny, Shadow)     // coin flip
                | (Sunny, Resumed)    // decoupled (shadow GC'd)
                | (Sunny, Paused)     // normal lifecycle continues
                | (Shadow, Destroyed) // shadow GC
        )
    }

    /// Checked transition.
    ///
    /// # Errors
    ///
    /// [`StateError`] if Fig. 4 does not permit the edge.
    pub fn transition_to(self, to: ActivityState) -> Result<ActivityState, StateError> {
        if self.can_transition_to(to) {
            Ok(to)
        } else {
            Err(StateError { from: self, to })
        }
    }
}

impl fmt::Display for ActivityState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ActivityState::Created => "Created",
            ActivityState::Started => "Started",
            ActivityState::Resumed => "Resumed",
            ActivityState::Paused => "Paused",
            ActivityState::Stopped => "Stopped",
            ActivityState::Destroyed => "Destroyed",
            ActivityState::Shadow => "Shadow",
            ActivityState::Sunny => "Sunny",
        };
        write!(f, "{name}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ActivityState::*;

    #[test]
    fn stock_happy_path() {
        let mut s = Created;
        for next in [Started, Resumed, Paused, Stopped, Destroyed] {
            s = s.transition_to(next).unwrap();
        }
        assert_eq!(s, Destroyed);
        assert!(!s.is_alive());
    }

    #[test]
    fn shadow_entry_and_gc() {
        let s = Stopped.transition_to(Shadow).unwrap();
        assert!(s.is_alive());
        assert!(!s.is_visible());
        assert_eq!(s.transition_to(Destroyed).unwrap(), Destroyed);
    }

    #[test]
    fn sunny_is_foreground() {
        let s = Started.transition_to(Sunny).unwrap();
        assert!(s.is_foreground());
        assert!(s.is_visible());
    }

    #[test]
    fn coin_flip_edges() {
        assert_eq!(Shadow.transition_to(Sunny).unwrap(), Sunny);
        assert_eq!(Sunny.transition_to(Shadow).unwrap(), Shadow);
    }

    #[test]
    fn illegal_edges_are_rejected() {
        assert!(Created.transition_to(Resumed).is_err());
        assert!(Destroyed.transition_to(Started).is_err());
        assert!(Resumed.transition_to(Shadow).is_err(), "must pause first");
        assert!(
            Shadow.transition_to(Resumed).is_err(),
            "shadow exits via sunny or GC"
        );
        let err = Created.transition_to(Destroyed).unwrap_err();
        assert_eq!(
            err.to_string(),
            "illegal lifecycle transition Created -> Destroyed"
        );
    }

    #[test]
    fn visibility_classification() {
        assert!(Resumed.is_visible());
        assert!(Paused.is_visible());
        assert!(!Stopped.is_visible());
        assert!(!Shadow.is_visible(), "shadow is invisible by definition");
    }
}
