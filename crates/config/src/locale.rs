//! System locale.

use core::fmt;
use droidsim_kernel::Symbol;
use std::sync::OnceLock;

/// A BCP-47-ish locale tag (language + region), the unit of language
/// switching in the paper's motivation.
///
/// Both subtags are interned [`Symbol`]s, so a locale is two `u32`s:
/// it is `Copy`, and so is every [`Configuration`](crate::Configuration)
/// holding one. Locales come only from program code ([`Locale::en_us`],
/// [`Locale::zh_cn`] and tests), which keeps the symbol table bounded.
///
/// # Examples
///
/// ```
/// use droidsim_config::Locale;
///
/// let en = Locale::new("en", "US");
/// let zh = Locale::new("zh", "CN");
/// assert_ne!(en, zh);
/// assert_eq!(en.to_string(), "en-US");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Locale {
    language: Symbol,
    region: Symbol,
}

impl Locale {
    /// Creates a locale from language and region subtags. Subtags are
    /// normalised (language lowercased, region uppercased).
    pub fn new(language: &str, region: &str) -> Self {
        Locale {
            language: Symbol::intern(&language.to_ascii_lowercase()),
            region: Symbol::intern(&region.to_ascii_uppercase()),
        }
    }

    /// US English — the default system locale. Interned once per
    /// process, so booting a device interns nothing.
    pub fn en_us() -> Self {
        static EN_US: OnceLock<Locale> = OnceLock::new();
        *EN_US.get_or_init(|| Locale::new("en", "US"))
    }

    /// Simplified Chinese — used by the language-switch workloads.
    pub fn zh_cn() -> Self {
        static ZH_CN: OnceLock<Locale> = OnceLock::new();
        *ZH_CN.get_or_init(|| Locale::new("zh", "CN"))
    }

    /// The language subtag.
    pub fn language(&self) -> &'static str {
        self.language.as_str()
    }

    /// The region subtag.
    pub fn region(&self) -> &'static str {
        self.region.as_str()
    }
}

impl Default for Locale {
    fn default() -> Self {
        Locale::en_us()
    }
}

impl fmt::Debug for Locale {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Locale")
            .field("language", &self.language())
            .field("region", &self.region())
            .finish()
    }
}

impl fmt::Display for Locale {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-{}", self.language(), self.region())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalises_case() {
        let l = Locale::new("EN", "us");
        assert_eq!(l.language(), "en");
        assert_eq!(l.region(), "US");
        assert_eq!(l, Locale::en_us());
    }

    #[test]
    fn default_is_en_us() {
        assert_eq!(Locale::default(), Locale::en_us());
    }

    #[test]
    fn distinct_locales_differ() {
        assert_ne!(Locale::en_us(), Locale::zh_cn());
    }

    #[test]
    fn debug_and_display_show_the_subtags() {
        let zh = Locale::zh_cn();
        assert_eq!(
            format!("{zh:?}"),
            r#"Locale { language: "zh", region: "CN" }"#
        );
        assert_eq!(zh.to_string(), "zh-CN");
    }
}
