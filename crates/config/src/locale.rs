//! System locale.

use core::fmt;

/// A BCP-47-ish locale tag (language + region), the unit of language
/// switching in the paper's motivation.
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
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Locale {
    language: String,
    region: String,
}

impl Locale {
    /// Creates a locale from language and region subtags. Subtags are
    /// normalised (language lowercased, region uppercased).
    pub fn new(language: &str, region: &str) -> Self {
        Locale {
            language: language.to_ascii_lowercase(),
            region: region.to_ascii_uppercase(),
        }
    }

    /// US English — the default system locale.
    pub fn en_us() -> Self {
        Locale::new("en", "US")
    }

    /// Simplified Chinese — used by the language-switch workloads.
    pub fn zh_cn() -> Self {
        Locale::new("zh", "CN")
    }

    /// The language subtag.
    pub fn language(&self) -> &str {
        &self.language
    }

    /// The region subtag.
    pub fn region(&self) -> &str {
        &self.region
    }
}

impl Default for Locale {
    fn default() -> Self {
        Locale::en_us()
    }
}

impl fmt::Display for Locale {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-{}", self.language, self.region)
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
}
