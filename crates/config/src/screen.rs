//! Screen geometry: orientation and size in density-independent pixels.

use core::fmt;

/// Screen orientation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Orientation {
    /// Height ≥ width.
    #[default]
    Portrait,
    /// Width > height.
    Landscape,
}

impl Orientation {
    /// The opposite orientation.
    pub const fn flipped(self) -> Orientation {
        match self {
            Orientation::Portrait => Orientation::Landscape,
            Orientation::Landscape => Orientation::Portrait,
        }
    }
}

impl fmt::Display for Orientation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Orientation::Portrait => write!(f, "port"),
            Orientation::Landscape => write!(f, "land"),
        }
    }
}

/// Usable screen size in density-independent pixels.
///
/// # Examples
///
/// ```
/// use droidsim_config::{Orientation, ScreenSize};
///
/// let s = ScreenSize::new(1080, 1920);
/// assert_eq!(s.orientation(), Orientation::Portrait);
/// assert_eq!(s.swapped().orientation(), Orientation::Landscape);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ScreenSize {
    /// Width in dp.
    pub width_dp: u32,
    /// Height in dp.
    pub height_dp: u32,
}

impl ScreenSize {
    /// Creates a screen size.
    pub const fn new(width_dp: u32, height_dp: u32) -> Self {
        ScreenSize {
            width_dp,
            height_dp,
        }
    }

    /// The orientation implied by the aspect ratio (square counts as
    /// portrait, matching Android).
    pub const fn orientation(self) -> Orientation {
        if self.width_dp > self.height_dp {
            Orientation::Landscape
        } else {
            Orientation::Portrait
        }
    }

    /// The same physical screen rotated 90°.
    pub const fn swapped(self) -> ScreenSize {
        ScreenSize {
            width_dp: self.height_dp,
            height_dp: self.width_dp,
        }
    }

    /// The smaller of the two dimensions — Android's `smallestWidth`
    /// qualifier, which is rotation-invariant.
    pub const fn smallest_width_dp(self) -> u32 {
        if self.width_dp < self.height_dp {
            self.width_dp
        } else {
            self.height_dp
        }
    }

    /// Total area in dp² (used by the memory model for surface buffers).
    pub const fn area_dp2(self) -> u64 {
        self.width_dp as u64 * self.height_dp as u64
    }
}

impl Default for ScreenSize {
    fn default() -> Self {
        // The evaluation board's screen (1080x1920, §A.5 `wm size 1080x1920`).
        ScreenSize::new(1080, 1920)
    }
}

impl fmt::Display for ScreenSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}", self.width_dp, self.height_dp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orientation_follows_aspect() {
        assert_eq!(
            ScreenSize::new(1080, 1920).orientation(),
            Orientation::Portrait
        );
        assert_eq!(
            ScreenSize::new(1920, 1080).orientation(),
            Orientation::Landscape
        );
        assert_eq!(
            ScreenSize::new(500, 500).orientation(),
            Orientation::Portrait
        );
    }

    #[test]
    fn swap_flips_orientation_but_not_smallest_width() {
        let s = ScreenSize::new(1080, 1920);
        assert_eq!(s.swapped(), ScreenSize::new(1920, 1080));
        assert_eq!(s.smallest_width_dp(), s.swapped().smallest_width_dp());
        assert_eq!(s.orientation().flipped(), s.swapped().orientation());
    }

    #[test]
    fn display_matches_wm_size_syntax() {
        assert_eq!(ScreenSize::new(1080, 1920).to_string(), "1080x1920");
    }

    #[test]
    fn area_is_product() {
        assert_eq!(ScreenSize::new(10, 20).area_dp2(), 200);
    }
}
