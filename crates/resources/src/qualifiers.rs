//! Configuration qualifiers and the Android matching/precedence rules.

use droidsim_config::{Configuration, Orientation, UiMode};

/// A partial predicate over configurations — the model of a resource
/// directory suffix such as `layout-land`, `values-zh-rCN` or
/// `layout-sw600dp-night`.
///
/// An empty qualifier set matches every configuration (the default
/// resource). Matching follows Android: *every* present qualifier must
/// match; among matching candidates the one with the highest-precedence
/// distinguishing qualifier wins (locale ≻ smallest-width ≻ orientation ≻
/// UI mode).
///
/// # Examples
///
/// ```
/// use droidsim_config::{Configuration, Orientation};
/// use droidsim_resources::Qualifiers;
///
/// let land = Qualifiers::any().with_orientation(Orientation::Landscape);
/// assert!(!land.matches(&Configuration::phone_portrait()));
/// assert!(land.matches(&Configuration::phone_landscape()));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Qualifiers {
    orientation: Option<Orientation>,
    language: Option<String>,
    min_smallest_width_dp: Option<u32>,
    ui_mode: Option<UiMode>,
}

impl Qualifiers {
    /// The empty qualifier set: matches everything.
    pub fn any() -> Self {
        Qualifiers::default()
    }

    /// Requires a screen orientation (`-land` / `-port`).
    pub fn with_orientation(mut self, orientation: Orientation) -> Self {
        self.orientation = Some(orientation);
        self
    }

    /// Requires a locale language (`values-zh`).
    pub fn with_language(mut self, language: &str) -> Self {
        self.language = Some(language.to_ascii_lowercase());
        self
    }

    /// Requires a minimum smallest-width (`-sw600dp`).
    pub fn with_min_smallest_width(mut self, dp: u32) -> Self {
        self.min_smallest_width_dp = Some(dp);
        self
    }

    /// Requires a UI mode (`-night`).
    pub fn with_ui_mode(mut self, ui_mode: UiMode) -> Self {
        self.ui_mode = Some(ui_mode);
        self
    }

    /// Whether every present qualifier is satisfied by `config`.
    pub fn matches(&self, config: &Configuration) -> bool {
        if let Some(o) = self.orientation {
            if o != config.orientation {
                return false;
            }
        }
        if let Some(lang) = &self.language {
            if lang != config.locale.language() {
                return false;
            }
        }
        if let Some(sw) = self.min_smallest_width_dp {
            if config.screen.smallest_width_dp() < sw {
                return false;
            }
        }
        if let Some(m) = self.ui_mode {
            if m != config.ui_mode {
                return false;
            }
        }
        true
    }

    /// Android-style precedence score: a candidate that matches on a
    /// higher-precedence axis beats any combination of lower axes, so the
    /// score is a bitfield ordered locale ≻ smallest-width ≻ orientation ≻
    /// UI mode. Larger smallest-width requirements score above smaller ones
    /// within the same axis.
    pub fn specificity(&self) -> u64 {
        let mut score = 0u64;
        if self.language.is_some() {
            score |= 1 << 40;
        }
        if let Some(sw) = self.min_smallest_width_dp {
            score |= 1 << 30;
            score += sw as u64; // larger buckets beat smaller within axis
        }
        if self.orientation.is_some() {
            score |= 1 << 20;
        }
        if self.ui_mode.is_some() {
            score |= 1 << 10;
        }
        score
    }

    /// Whether this is the default (unqualified) variant.
    pub fn is_default(&self) -> bool {
        *self == Qualifiers::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use droidsim_config::{Locale, ScreenSize};

    #[test]
    fn any_matches_everything() {
        assert!(Qualifiers::any().matches(&Configuration::phone_portrait()));
        assert!(Qualifiers::any().matches(&Configuration::phone_landscape()));
        assert!(Qualifiers::any().is_default());
    }

    #[test]
    fn orientation_qualifier_filters() {
        let land = Qualifiers::any().with_orientation(Orientation::Landscape);
        assert!(land.matches(&Configuration::phone_landscape()));
        assert!(!land.matches(&Configuration::phone_portrait()));
    }

    #[test]
    fn language_qualifier_filters() {
        let zh = Qualifiers::any().with_language("zh");
        let config = Configuration::phone_portrait();
        assert!(!zh.matches(&config));
        assert!(zh.matches(&config.with_locale(Locale::zh_cn())));
    }

    #[test]
    fn smallest_width_is_a_minimum() {
        let sw600 = Qualifiers::any().with_min_smallest_width(600);
        let phone = Configuration::phone_portrait(); // sw = 1080
        assert!(sw600.matches(&phone));
        let small = phone.with_screen(ScreenSize::new(480, 800));
        assert!(!sw600.matches(&small));
    }

    #[test]
    fn precedence_locale_beats_everything_else() {
        let locale_only = Qualifiers::any().with_language("zh");
        let all_others = Qualifiers::any()
            .with_orientation(Orientation::Landscape)
            .with_min_smallest_width(600)
            .with_ui_mode(UiMode::Night);
        assert!(locale_only.specificity() > all_others.specificity());
    }

    #[test]
    fn precedence_orientation_beats_ui_mode() {
        let land = Qualifiers::any().with_orientation(Orientation::Landscape);
        let night = Qualifiers::any().with_ui_mode(UiMode::Night);
        assert!(land.specificity() > night.specificity());
    }

    #[test]
    fn bigger_sw_bucket_wins_within_axis() {
        let sw600 = Qualifiers::any().with_min_smallest_width(600);
        let sw720 = Qualifiers::any().with_min_smallest_width(720);
        assert!(sw720.specificity() > sw600.specificity());
    }
}
