//! The configuration-change mask.
//!
//! Mirrors Android's `ActivityInfo.CONFIG_*` bits: a set of flags describing
//! which parts of the [`Configuration`](crate::Configuration) differ between
//! two snapshots, and — reused as a *handled mask* — which changes an app
//! declared it handles itself via `android:configChanges`.

use core::fmt;
use core::ops::{BitAnd, BitOr, BitOrAssign, Not};

/// A set of configuration-change flags.
///
/// # Examples
///
/// ```
/// use droidsim_config::ConfigChanges;
///
/// let diff = ConfigChanges::ORIENTATION | ConfigChanges::SCREEN_SIZE;
/// let handled = ConfigChanges::ORIENTATION;
/// // The app handles orientation but not screen size → restart required.
/// assert!(!diff.is_subset_of(handled));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ConfigChanges(u32);

impl ConfigChanges {
    /// No changes.
    pub const NONE: ConfigChanges = ConfigChanges(0);
    /// Screen orientation changed (portrait ↔ landscape).
    pub const ORIENTATION: ConfigChanges = ConfigChanges(1 << 0);
    /// Usable screen size changed (rotation, multi-window resize, `wm size`).
    pub const SCREEN_SIZE: ConfigChanges = ConfigChanges(1 << 1);
    /// System locale changed.
    pub const LOCALE: ConfigChanges = ConfigChanges(1 << 2);
    /// Hardware keyboard attached or detached.
    pub const KEYBOARD: ConfigChanges = ConfigChanges(1 << 3);
    /// Keyboard accessibility (hidden state) changed.
    pub const KEYBOARD_HIDDEN: ConfigChanges = ConfigChanges(1 << 4);
    /// Font scale changed.
    pub const FONT_SCALE: ConfigChanges = ConfigChanges(1 << 5);
    /// UI mode (day/night) changed.
    pub const UI_MODE: ConfigChanges = ConfigChanges(1 << 6);
    /// Screen density changed.
    pub const DENSITY: ConfigChanges = ConfigChanges(1 << 7);
    /// Smallest-width bucket changed.
    pub const SMALLEST_SCREEN_SIZE: ConfigChanges = ConfigChanges(1 << 8);

    /// Every flag set — the mask apps use to opt out of all restarts.
    pub const ALL: ConfigChanges = ConfigChanges(0x1FF);

    /// Builds a mask from raw bits (unknown bits are kept, matching
    /// Android's lenient treatment of vendor flags).
    pub const fn from_bits(bits: u32) -> Self {
        ConfigChanges(bits)
    }

    /// The raw bit representation.
    pub const fn bits(self) -> u32 {
        self.0
    }

    /// Whether no flag is set.
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Whether every flag in `other` is also set in `self`.
    pub const fn contains(self, other: ConfigChanges) -> bool {
        self.0 & other.0 == other.0
    }

    /// Whether every flag in `self` is covered by `mask` — i.e. an app with
    /// handled-mask `mask` does **not** need a restart for this diff.
    pub const fn is_subset_of(self, mask: ConfigChanges) -> bool {
        self.0 & !mask.0 == 0
    }

    /// Whether any flag is shared with `other`.
    pub const fn intersects(self, other: ConfigChanges) -> bool {
        self.0 & other.0 != 0
    }

    /// Number of individual flags set.
    pub const fn flag_count(self) -> u32 {
        self.0.count_ones()
    }

    /// Iterator over the individual set flags.
    pub fn iter(self) -> impl Iterator<Item = ConfigChanges> {
        (0..9u32)
            .map(|b| ConfigChanges(1 << b))
            .filter(move |f| self.contains(*f))
    }
}

impl BitOr for ConfigChanges {
    type Output = ConfigChanges;

    fn bitor(self, rhs: ConfigChanges) -> ConfigChanges {
        ConfigChanges(self.0 | rhs.0)
    }
}

impl BitOrAssign for ConfigChanges {
    fn bitor_assign(&mut self, rhs: ConfigChanges) {
        self.0 |= rhs.0;
    }
}

impl BitAnd for ConfigChanges {
    type Output = ConfigChanges;

    fn bitand(self, rhs: ConfigChanges) -> ConfigChanges {
        ConfigChanges(self.0 & rhs.0)
    }
}

impl Not for ConfigChanges {
    type Output = ConfigChanges;

    fn not(self) -> ConfigChanges {
        ConfigChanges(!self.0 & Self::ALL.0)
    }
}

impl fmt::Display for ConfigChanges {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "none");
        }
        const NAMES: [(ConfigChanges, &str); 9] = [
            (ConfigChanges::ORIENTATION, "orientation"),
            (ConfigChanges::SCREEN_SIZE, "screenSize"),
            (ConfigChanges::LOCALE, "locale"),
            (ConfigChanges::KEYBOARD, "keyboard"),
            (ConfigChanges::KEYBOARD_HIDDEN, "keyboardHidden"),
            (ConfigChanges::FONT_SCALE, "fontScale"),
            (ConfigChanges::UI_MODE, "uiMode"),
            (ConfigChanges::DENSITY, "density"),
            (ConfigChanges::SMALLEST_SCREEN_SIZE, "smallestScreenSize"),
        ];
        let mut first = true;
        for (flag, name) in NAMES {
            if self.contains(flag) {
                if !first {
                    write!(f, "|")?;
                }
                write!(f, "{name}")?;
                first = false;
            }
        }
        Ok(())
    }
}

impl FromIterator<ConfigChanges> for ConfigChanges {
    fn from_iter<T: IntoIterator<Item = ConfigChanges>>(iter: T) -> Self {
        iter.into_iter().fold(ConfigChanges::NONE, |acc, f| acc | f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_and_containment() {
        let d = ConfigChanges::ORIENTATION | ConfigChanges::LOCALE;
        assert!(d.contains(ConfigChanges::ORIENTATION));
        assert!(d.contains(ConfigChanges::LOCALE));
        assert!(!d.contains(ConfigChanges::KEYBOARD));
        assert_eq!(d.flag_count(), 2);
    }

    #[test]
    fn subset_drives_restart_decision() {
        let diff = ConfigChanges::ORIENTATION | ConfigChanges::SCREEN_SIZE;
        assert!(diff.is_subset_of(ConfigChanges::ALL));
        assert!(!diff.is_subset_of(ConfigChanges::ORIENTATION));
        assert!(ConfigChanges::NONE.is_subset_of(ConfigChanges::NONE));
    }

    #[test]
    fn not_is_complement_within_all() {
        let d = ConfigChanges::ORIENTATION;
        let c = !d;
        assert!(!c.contains(ConfigChanges::ORIENTATION));
        assert_eq!(d | c, ConfigChanges::ALL);
        assert_eq!(d & c, ConfigChanges::NONE);
    }

    #[test]
    fn display_lists_flags() {
        let d = ConfigChanges::ORIENTATION | ConfigChanges::SCREEN_SIZE;
        assert_eq!(d.to_string(), "orientation|screenSize");
        assert_eq!(ConfigChanges::NONE.to_string(), "none");
    }

    #[test]
    fn iter_round_trips() {
        let d = ConfigChanges::LOCALE | ConfigChanges::FONT_SCALE | ConfigChanges::UI_MODE;
        let rebuilt: ConfigChanges = d.iter().collect();
        assert_eq!(rebuilt, d);
    }

    #[test]
    fn all_covers_every_named_flag() {
        let every: ConfigChanges = [
            ConfigChanges::ORIENTATION,
            ConfigChanges::SCREEN_SIZE,
            ConfigChanges::LOCALE,
            ConfigChanges::KEYBOARD,
            ConfigChanges::KEYBOARD_HIDDEN,
            ConfigChanges::FONT_SCALE,
            ConfigChanges::UI_MODE,
            ConfigChanges::DENSITY,
            ConfigChanges::SMALLEST_SCREEN_SIZE,
        ]
        .into_iter()
        .collect();
        assert_eq!(every, ConfigChanges::ALL);
    }
}
