//! View mutations.
//!
//! App callbacks are black boxes to the framework; what the framework *can*
//! see is the stream of concrete mutations they apply to views. [`ViewOp`]
//! is that vocabulary. Applying an op updates the view's attributes and
//! triggers `invalidate` — the generic update step RCHDroid's lazy
//! migration intercepts.

use crate::kind::MigrationClass;
use droidsim_kernel::Symbol;

/// A single mutation of one view.
#[derive(Debug, Clone, PartialEq)]
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
}
