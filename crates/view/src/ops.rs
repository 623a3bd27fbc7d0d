//! View mutations.
//!
//! App callbacks are black boxes to the framework; what the framework *can*
//! see is the stream of concrete mutations they apply to views. [`ViewOp`]
//! is that vocabulary. Applying an op updates the view's attributes and
//! triggers `invalidate` — the generic update step RCHDroid's lazy
//! migration intercepts.

use crate::kind::MigrationClass;
use droidsim_kernel::Symbol;
use serde::{Deserialize, Serialize};

/// A single mutation of one view.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ViewOp {
    /// Set displayed text (TextView family).
    SetText(String),
    /// Set the drawable: interned asset name + decoded byte size
    /// (ImageView).
    SetDrawable(Symbol, u64),
    /// Set the selector position (AbsListView family).
    SetSelection(i32),
    /// Mark an item checked/unchecked (AbsListView family).
    SetItemChecked(i32, bool),
    /// Scroll to a vertical offset.
    ScrollTo(i32),
    /// Set the video source (VideoView).
    SetVideoUri(String),
    /// Set progress (ProgressBar family).
    SetProgress(i32),
    /// Set the two-state checked flag (CheckBox).
    SetChecked(bool),
    /// Enable or disable the view.
    SetEnabled(bool),
    /// Show or hide the view.
    SetVisible(bool),
}

impl ViewOp {
    /// Short name used in traces and error messages.
    pub fn name(&self) -> &'static str {
        match self {
            ViewOp::SetText(_) => "setText",
            ViewOp::SetDrawable(..) => "setDrawable",
            ViewOp::SetSelection(_) => "positionSelector",
            ViewOp::SetItemChecked(..) => "setItemChecked",
            ViewOp::ScrollTo(_) => "scrollTo",
            ViewOp::SetVideoUri(_) => "setVideoURI",
            ViewOp::SetProgress(_) => "setProgress",
            ViewOp::SetChecked(_) => "setChecked",
            ViewOp::SetEnabled(_) => "setEnabled",
            ViewOp::SetVisible(_) => "setVisibility",
        }
    }

    /// Whether this mutation applies to a view of the given migration
    /// class — the paper's Table 1, as one predicate.
    ///
    /// [`crate::ViewTree::apply`] rejects an inapplicable op at runtime;
    /// the static analyzer uses the same predicate to flag async writes
    /// that lazy migration could never carry (its "Table-1 coverage"
    /// pass), so the two can never disagree.
    pub fn applies_to(&self, class: MigrationClass) -> bool {
        match (self, class) {
            (ViewOp::SetText(_), MigrationClass::TextView) => true,
            (ViewOp::SetChecked(_), MigrationClass::TextView) => true, // CheckBox
            (ViewOp::SetDrawable(..), MigrationClass::ImageView) => true,
            (ViewOp::SetSelection(_) | ViewOp::SetItemChecked(..), MigrationClass::AbsListView) => {
                true
            }
            (ViewOp::ScrollTo(_), MigrationClass::AbsListView | MigrationClass::Container) => true,
            (ViewOp::SetVideoUri(_), MigrationClass::VideoView) => true,
            (ViewOp::SetProgress(_), MigrationClass::ProgressBar) => true,
            (ViewOp::SetEnabled(_) | ViewOp::SetVisible(_), _) => true,
            _ => false,
        }
    }

    /// The dirty bit this mutation sets on its view.
    pub fn dirty_bit(&self) -> DirtyMask {
        match self {
            ViewOp::SetText(_) => DirtyMask::TEXT,
            ViewOp::SetDrawable(..) => DirtyMask::DRAWABLE,
            ViewOp::SetSelection(_) => DirtyMask::SELECTION,
            ViewOp::SetItemChecked(..) => DirtyMask::CHECKED_ITEMS,
            ViewOp::ScrollTo(_) => DirtyMask::SCROLL,
            ViewOp::SetVideoUri(_) => DirtyMask::VIDEO_URI,
            ViewOp::SetProgress(_) => DirtyMask::PROGRESS,
            ViewOp::SetChecked(_) => DirtyMask::CHECKED,
            ViewOp::SetEnabled(_) => DirtyMask::ENABLED,
            ViewOp::SetVisible(_) => DirtyMask::VISIBLE,
        }
    }
}

/// A bitset of view attributes touched since the last migration flush.
///
/// Each [`ViewOp`] variant maps to one bit ([`ViewOp::dirty_bit`]).
/// Repeated invalidations of the same view OR their bits together, which
/// is what lets the batched migration path coalesce a burst of updates
/// into a single essence copy while still reporting exactly which
/// attributes changed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct DirtyMask(u16);

impl DirtyMask {
    /// `text` changed.
    pub const TEXT: DirtyMask = DirtyMask(1 << 0);
    /// `drawable` changed.
    pub const DRAWABLE: DirtyMask = DirtyMask(1 << 1);
    /// `selector_position` changed.
    pub const SELECTION: DirtyMask = DirtyMask(1 << 2);
    /// `checked_items` changed.
    pub const CHECKED_ITEMS: DirtyMask = DirtyMask(1 << 3);
    /// `scroll_y` changed.
    pub const SCROLL: DirtyMask = DirtyMask(1 << 4);
    /// `video_uri` changed.
    pub const VIDEO_URI: DirtyMask = DirtyMask(1 << 5);
    /// `progress` changed.
    pub const PROGRESS: DirtyMask = DirtyMask(1 << 6);
    /// `checked` changed.
    pub const CHECKED: DirtyMask = DirtyMask(1 << 7);
    /// `enabled` changed.
    pub const ENABLED: DirtyMask = DirtyMask(1 << 8);
    /// `visible` changed.
    pub const VISIBLE: DirtyMask = DirtyMask(1 << 9);

    /// No attribute marked.
    pub const fn empty() -> DirtyMask {
        DirtyMask(0)
    }

    /// Every attribute marked — what a bare `invalidate()` implies, since
    /// it carries no information about *what* changed.
    pub const fn all() -> DirtyMask {
        DirtyMask((1 << 10) - 1)
    }

    /// Whether no bit is set.
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Whether every bit in `other` is also set in `self`.
    pub const fn contains(self, other: DirtyMask) -> bool {
        self.0 & other.0 == other.0
    }

    /// Number of distinct attributes marked dirty.
    pub const fn attr_count(self) -> u32 {
        self.0.count_ones()
    }

    /// Raw bit representation (stable across runs; used by metrics).
    pub const fn bits(self) -> u16 {
        self.0
    }
}

impl std::ops::BitOr for DirtyMask {
    type Output = DirtyMask;

    fn bitor(self, rhs: DirtyMask) -> DirtyMask {
        DirtyMask(self.0 | rhs.0)
    }
}

impl std::ops::BitOrAssign for DirtyMask {
    fn bitor_assign(&mut self, rhs: DirtyMask) {
        self.0 |= rhs.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_android_setters() {
        assert_eq!(ViewOp::SetText("x".into()).name(), "setText");
        assert_eq!(ViewOp::SetDrawable("d".into(), 1).name(), "setDrawable");
        assert_eq!(ViewOp::SetVideoUri("u".into()).name(), "setVideoURI");
        assert_eq!(ViewOp::SetProgress(5).name(), "setProgress");
    }

    #[test]
    fn each_op_sets_a_distinct_bit() {
        let ops = [
            ViewOp::SetText("x".into()),
            ViewOp::SetDrawable("d".into(), 1),
            ViewOp::SetSelection(0),
            ViewOp::SetItemChecked(0, true),
            ViewOp::ScrollTo(0),
            ViewOp::SetVideoUri("u".into()),
            ViewOp::SetProgress(0),
            ViewOp::SetChecked(true),
            ViewOp::SetEnabled(true),
            ViewOp::SetVisible(true),
        ];
        let mut union = DirtyMask::empty();
        for op in &ops {
            let bit = op.dirty_bit();
            assert_eq!(bit.attr_count(), 1);
            assert!(!union.contains(bit), "{} reuses a bit", op.name());
            union |= bit;
        }
        assert_eq!(union, DirtyMask::all());
    }

    #[test]
    fn masks_coalesce_with_bitor() {
        let mut m = DirtyMask::empty();
        assert!(m.is_empty());
        m |= DirtyMask::TEXT;
        m |= DirtyMask::TEXT;
        m |= DirtyMask::SCROLL;
        assert_eq!(m.attr_count(), 2);
        assert!(m.contains(DirtyMask::TEXT));
        assert!(!m.contains(DirtyMask::PROGRESS));
        assert!(DirtyMask::all().contains(m));
    }
}
