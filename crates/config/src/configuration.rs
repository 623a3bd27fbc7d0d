//! The full device configuration snapshot and diffing.

use crate::changes::ConfigChanges;
use crate::locale::Locale;
use crate::screen::{Orientation, ScreenSize};
use core::fmt;

/// Hardware keyboard attachment state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum KeyboardState {
    /// No hardware keyboard.
    #[default]
    None,
    /// Keyboard attached and usable.
    Attached,
    /// Keyboard attached but hidden (e.g. a folded slider).
    Hidden,
}

/// Day/night UI mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum UiMode {
    /// Light theme.
    #[default]
    Day,
    /// Dark theme.
    Night,
}

/// A snapshot of the device configuration — the inputs to resource
/// selection and the trigger of runtime changes.
///
/// # Examples
///
/// ```
/// use droidsim_config::{ConfigChanges, Configuration, Locale};
///
/// let base = Configuration::phone_portrait();
/// let translated = base.with_locale(Locale::zh_cn());
/// assert_eq!(base.diff(&translated), ConfigChanges::LOCALE);
/// ```
///
/// A configuration is plain data (its locale is two interned symbols),
/// so it is `Copy`: the handling paths copy it into records and
/// instances without allocating.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Configuration {
    /// Screen orientation.
    pub orientation: Orientation,
    /// Usable screen size in dp.
    pub screen: ScreenSize,
    /// System locale.
    pub locale: Locale,
    /// Hardware keyboard state.
    pub keyboard: KeyboardState,
    /// Font scale ×1000 (kept integral so `Configuration: Eq + Hash`).
    pub font_scale_milli: u32,
    /// Day/night mode.
    pub ui_mode: UiMode,
    /// Screen density in dpi.
    pub density_dpi: u32,
}

impl Configuration {
    /// The evaluation board's default: 1080×1920 portrait, en-US, 420 dpi.
    pub fn phone_portrait() -> Self {
        Configuration {
            orientation: Orientation::Portrait,
            screen: ScreenSize::new(1080, 1920),
            locale: Locale::en_us(),
            keyboard: KeyboardState::None,
            font_scale_milli: 1000,
            ui_mode: UiMode::Day,
            density_dpi: 420,
        }
    }

    /// The same device rotated 90°: `wm size 1920x1080` in the paper's
    /// experiment workflow (§A.5).
    pub fn phone_landscape() -> Self {
        Configuration::phone_portrait().rotated()
    }

    /// Returns this configuration rotated 90° (orientation flips, screen
    /// dimensions swap).
    pub fn rotated(&self) -> Configuration {
        let mut next = *self;
        next.screen = self.screen.swapped();
        next.orientation = next.screen.orientation();
        next
    }

    /// Returns this configuration with a different locale.
    pub fn with_locale(&self, locale: Locale) -> Configuration {
        let mut next = *self;
        next.locale = locale;
        next
    }

    /// Returns this configuration with a different keyboard state.
    pub fn with_keyboard(&self, keyboard: KeyboardState) -> Configuration {
        let mut next = *self;
        next.keyboard = keyboard;
        next
    }

    /// Returns this configuration with a different UI mode.
    pub fn with_ui_mode(&self, ui_mode: UiMode) -> Configuration {
        let mut next = *self;
        next.ui_mode = ui_mode;
        next
    }

    /// Returns this configuration with a different font scale (×1000).
    pub fn with_font_scale_milli(&self, font_scale_milli: u32) -> Configuration {
        let mut next = *self;
        next.font_scale_milli = font_scale_milli;
        next
    }

    /// Returns this configuration with an explicit screen size (the
    /// `wm size WxH` debug command used by the paper's workflow). The
    /// orientation is recomputed from the aspect ratio.
    pub fn with_screen(&self, screen: ScreenSize) -> Configuration {
        let mut next = *self;
        next.screen = screen;
        next.orientation = screen.orientation();
        next
    }

    /// Computes the change mask between `self` (old) and `new`.
    ///
    /// Returns [`ConfigChanges::NONE`] when the snapshots are identical.
    pub fn diff(&self, new: &Configuration) -> ConfigChanges {
        let mut mask = ConfigChanges::NONE;
        if self.orientation != new.orientation {
            mask |= ConfigChanges::ORIENTATION;
        }
        if self.screen != new.screen {
            mask |= ConfigChanges::SCREEN_SIZE;
            if self.screen.smallest_width_dp() != new.screen.smallest_width_dp() {
                mask |= ConfigChanges::SMALLEST_SCREEN_SIZE;
            }
        }
        if self.locale != new.locale {
            mask |= ConfigChanges::LOCALE;
        }
        if self.keyboard != new.keyboard {
            mask |= ConfigChanges::KEYBOARD;
            if matches!(self.keyboard, KeyboardState::Hidden)
                || matches!(new.keyboard, KeyboardState::Hidden)
            {
                mask |= ConfigChanges::KEYBOARD_HIDDEN;
            }
        }
        if self.font_scale_milli != new.font_scale_milli {
            mask |= ConfigChanges::FONT_SCALE;
        }
        if self.ui_mode != new.ui_mode {
            mask |= ConfigChanges::UI_MODE;
        }
        if self.density_dpi != new.density_dpi {
            mask |= ConfigChanges::DENSITY;
        }
        mask
    }

    /// Font scale as a float.
    pub fn font_scale(&self) -> f64 {
        self.font_scale_milli as f64 / 1000.0
    }
}

impl Default for Configuration {
    fn default() -> Self {
        Configuration::phone_portrait()
    }
}

impl fmt::Display for Configuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {} {:?}",
            self.orientation, self.screen, self.locale, self.ui_mode
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_configs_have_empty_diff() {
        let c = Configuration::phone_portrait();
        assert_eq!(c.diff(&c), ConfigChanges::NONE);
    }

    #[test]
    fn rotation_changes_orientation_and_size() {
        let p = Configuration::phone_portrait();
        let l = p.rotated();
        let diff = p.diff(&l);
        assert!(diff.contains(ConfigChanges::ORIENTATION));
        assert!(diff.contains(ConfigChanges::SCREEN_SIZE));
        // smallestWidth is rotation-invariant.
        assert!(!diff.contains(ConfigChanges::SMALLEST_SCREEN_SIZE));
    }

    #[test]
    fn double_rotation_is_identity() {
        let p = Configuration::phone_portrait();
        assert_eq!(p.rotated().rotated(), p);
    }

    #[test]
    fn wm_size_resize_without_rotation() {
        // `wm size 1080x2000`: same orientation, different size.
        let p = Configuration::phone_portrait();
        let resized = p.with_screen(ScreenSize::new(1080, 2000));
        let diff = p.diff(&resized);
        assert!(!diff.contains(ConfigChanges::ORIENTATION));
        assert!(diff.contains(ConfigChanges::SCREEN_SIZE));
    }

    #[test]
    fn locale_switch_sets_only_locale() {
        let p = Configuration::phone_portrait();
        let zh = p.with_locale(Locale::zh_cn());
        assert_eq!(p.diff(&zh), ConfigChanges::LOCALE);
    }

    #[test]
    fn keyboard_attach_flags_keyboard() {
        let p = Configuration::phone_portrait();
        let k = p.with_keyboard(KeyboardState::Attached);
        assert!(p.diff(&k).contains(ConfigChanges::KEYBOARD));
    }

    #[test]
    fn night_mode_flags_ui_mode() {
        let p = Configuration::phone_portrait();
        let n = p.with_ui_mode(UiMode::Night);
        assert_eq!(p.diff(&n), ConfigChanges::UI_MODE);
    }

    #[test]
    fn debug_text_is_stable() {
        assert_eq!(
            format!("{:?}", Configuration::phone_portrait()),
            "Configuration { orientation: Portrait, screen: ScreenSize { width_dp: 1080, \
             height_dp: 1920 }, locale: Locale { language: \"en\", region: \"US\" }, \
             keyboard: None, font_scale_milli: 1000, ui_mode: Day, density_dpi: 420 }"
        );
    }

    #[test]
    fn diff_is_symmetric() {
        let a = Configuration::phone_portrait();
        let b = a.rotated().with_locale(Locale::zh_cn());
        assert_eq!(a.diff(&b), b.diff(&a));
    }
}
