//! Intents and launch flags.

use core::fmt;
use core::ops::{BitAnd, BitOr, BitOrAssign};

/// Launch flags carried by an [`Intent`].
///
/// `SUNNY` is RCHDroid's addition (the 4-LoC `Intent` patch of Table 2):
/// it marks an activity-start request as the second half of a runtime
/// change, telling the starter to take the coin-flipping path and to allow
/// a *second* instance of the activity already on top of the stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct IntentFlags(u32);

impl IntentFlags {
    /// No flags: default launch semantics.
    pub const NONE: IntentFlags = IntentFlags(0);
    /// `FLAG_ACTIVITY_NEW_TASK`.
    pub const NEW_TASK: IntentFlags = IntentFlags(1 << 0);
    /// `FLAG_ACTIVITY_SINGLE_TOP`.
    pub const SINGLE_TOP: IntentFlags = IntentFlags(1 << 1);
    /// `FLAG_ACTIVITY_CLEAR_TOP`.
    pub const CLEAR_TOP: IntentFlags = IntentFlags(1 << 2);
    /// RCHDroid: this start request creates/flips the sunny-state instance
    /// of the current foreground activity.
    pub const SUNNY: IntentFlags = IntentFlags(1 << 3);

    /// Whether every flag in `other` is set.
    pub const fn contains(self, other: IntentFlags) -> bool {
        self.0 & other.0 == other.0
    }

    /// Whether no flags are set.
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Raw bits.
    pub const fn bits(self) -> u32 {
        self.0
    }
}

impl BitOr for IntentFlags {
    type Output = IntentFlags;

    fn bitor(self, rhs: IntentFlags) -> IntentFlags {
        IntentFlags(self.0 | rhs.0)
    }
}

impl BitOrAssign for IntentFlags {
    fn bitor_assign(&mut self, rhs: IntentFlags) {
        self.0 |= rhs.0;
    }
}

impl BitAnd for IntentFlags {
    type Output = IntentFlags;

    fn bitand(self, rhs: IntentFlags) -> IntentFlags {
        IntentFlags(self.0 & rhs.0)
    }
}

impl fmt::Display for IntentFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "default");
        }
        let mut parts = Vec::new();
        if self.contains(IntentFlags::NEW_TASK) {
            parts.push("NEW_TASK");
        }
        if self.contains(IntentFlags::SINGLE_TOP) {
            parts.push("SINGLE_TOP");
        }
        if self.contains(IntentFlags::CLEAR_TOP) {
            parts.push("CLEAR_TOP");
        }
        if self.contains(IntentFlags::SUNNY) {
            parts.push("SUNNY");
        }
        write!(f, "{}", parts.join("|"))
    }
}

/// An activity-start request. It borrows its target's name: the ATMS
/// copies a name only into a record it creates, so a request that
/// reuses or coin-flips a record allocates nothing.
///
/// # Examples
///
/// ```
/// use droidsim_atms::{Intent, IntentFlags};
///
/// let intent = Intent::new("com.example/.Main").with_flags(IntentFlags::SUNNY);
/// assert!(intent.flags.contains(IntentFlags::SUNNY));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Intent<'a> {
    /// Target component (`package/.Activity`).
    pub component: &'a str,
    /// Launch flags.
    pub flags: IntentFlags,
}

impl<'a> Intent<'a> {
    /// Creates a default-flag intent for a component.
    pub fn new(component: &'a str) -> Self {
        Intent {
            component,
            flags: IntentFlags::NONE,
        }
    }

    /// Adds launch flags.
    pub fn with_flags(mut self, flags: IntentFlags) -> Self {
        self.flags |= flags;
        self
    }

    /// RCHDroid convenience: the sunny-start intent for a component.
    pub fn sunny(component: &'a str) -> Self {
        Intent::new(component).with_flags(IntentFlags::SUNNY)
    }
}

impl fmt::Display for Intent<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Intent{{{} [{}]}}", self.component, self.flags)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_compose() {
        let f = IntentFlags::NEW_TASK | IntentFlags::SINGLE_TOP;
        assert!(f.contains(IntentFlags::NEW_TASK));
        assert!(!f.contains(IntentFlags::SUNNY));
        assert_eq!(f.to_string(), "NEW_TASK|SINGLE_TOP");
    }

    #[test]
    fn sunny_constructor_sets_flag() {
        let i = Intent::sunny("a/.B");
        assert!(i.flags.contains(IntentFlags::SUNNY));
        assert_eq!(i.component, "a/.B");
    }

    #[test]
    fn default_flags_display() {
        assert_eq!(Intent::new("x/.Y").flags.to_string(), "default");
    }
}
