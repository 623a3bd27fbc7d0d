//! The view type hierarchy of Table 1.

use core::fmt;
use droidsim_kernel::Symbol;

/// The *basic* view classes the paper's migration policy dispatches on
/// (Table 1). Every concrete view kind maps to exactly one of these (or to
/// [`MigrationClass::Container`] / [`MigrationClass::Opaque`] for view
/// groups and unknown leaves).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MigrationClass {
    /// Displays text to the user → migrate via `setText`.
    TextView,
    /// Displays image resources → migrate via `setDrawable`.
    ImageView,
    /// Scrollable collection of views → migrate selector position and
    /// checked items (`positionSelector`, `setItemChecked`).
    AbsListView,
    /// Displays a video file → migrate via `setVideoURI`.
    VideoView,
    /// Indicates progress of an operation → migrate via `setProgress`.
    ProgressBar,
    /// A view group: migrated structurally (children handled individually).
    Container,
    /// A leaf with no migratable essence (e.g. a plain `View` divider).
    Opaque,
}

impl fmt::Display for MigrationClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            MigrationClass::TextView => "TextView",
            MigrationClass::ImageView => "ImageView",
            MigrationClass::AbsListView => "AbsListView",
            MigrationClass::VideoView => "VideoView",
            MigrationClass::ProgressBar => "ProgressBar",
            MigrationClass::Container => "Container",
            MigrationClass::Opaque => "Opaque",
        };
        write!(f, "{name}")
    }
}

/// A concrete view class.
///
/// The sub-typing mirrors Android: `EditText`/`Button`/`CheckBox` are
/// TextViews, `ListView`/`GridView`/`ScrollView` are AbsListViews (the
/// paper groups ScrollView there), `SeekBar` is a ProgressBar. User-defined
/// views carry the basic class they inherit from, which is how the paper
/// migrates them ("User-defined views … will also be migrated according to
/// the types they belong to").
///
/// `Copy`: a custom view's class name is the layout's interned symbol,
/// so making or cloning a view copies no text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ViewKind {
    /// Plain `android.view.View` (dividers, spacers).
    View,
    /// Static text display.
    TextView,
    /// Editable text input.
    EditText,
    /// A push button.
    Button,
    /// A two-state checkbox.
    CheckBox,
    /// An image display.
    ImageView,
    /// A vertically scrolling list.
    ListView,
    /// A grid of items.
    GridView,
    /// A scrollable single-child container.
    ScrollView,
    /// A video player surface.
    VideoView,
    /// A determinate progress indicator.
    ProgressBar,
    /// A draggable progress indicator.
    SeekBar,
    /// Vertical/horizontal box container.
    LinearLayout,
    /// Single-cell container.
    FrameLayout,
    /// Row/column container.
    GridLayout,
    /// Constraint-based container.
    ConstraintLayout,
    /// The window root view group.
    DecorView,
    /// An app-defined view inheriting from a basic class.
    Custom {
        /// The app's class name (diagnostics only), interned: class
        /// names come from layouts and app code, never from users.
        class_name: Symbol,
        /// The basic class it inherits from.
        base: MigrationClass,
    },
}

impl ViewKind {
    /// The basic class used to choose a migration policy (Table 1).
    pub fn migration_class(&self) -> MigrationClass {
        match self {
            ViewKind::TextView | ViewKind::EditText | ViewKind::Button | ViewKind::CheckBox => {
                MigrationClass::TextView
            }
            ViewKind::ImageView => MigrationClass::ImageView,
            ViewKind::ListView | ViewKind::GridView | ViewKind::ScrollView => {
                MigrationClass::AbsListView
            }
            ViewKind::VideoView => MigrationClass::VideoView,
            ViewKind::ProgressBar | ViewKind::SeekBar => MigrationClass::ProgressBar,
            ViewKind::LinearLayout
            | ViewKind::FrameLayout
            | ViewKind::GridLayout
            | ViewKind::ConstraintLayout
            | ViewKind::DecorView => MigrationClass::Container,
            ViewKind::View => MigrationClass::Opaque,
            ViewKind::Custom { base, .. } => *base,
        }
    }

    /// Whether the view's text is *user input* rather than content set by
    /// the app/resources — Android's `freezesText` behaviour: `EditText`
    /// persists its text across save/restore, plain labels do not.
    pub fn is_editable(&self) -> bool {
        match self {
            ViewKind::EditText | ViewKind::CheckBox | ViewKind::SeekBar => true,
            ViewKind::Custom { class_name, .. } => class_name.as_str().ends_with("EditText"),
            _ => false,
        }
    }

    /// Whether this kind can hold children.
    pub fn is_container(&self) -> bool {
        self.migration_class() == MigrationClass::Container
            // ScrollView is a container in Android even though the paper
            // migrates it with the AbsListView policy.
            || matches!(self, ViewKind::ScrollView | ViewKind::ListView | ViewKind::GridView)
    }

    /// Resolves an XML class name to a kind, as the inflater does: the
    /// text form of [`ViewKind::from_class`] for callers that hold text.
    /// The name is interned, so pass only class names from program code.
    pub fn from_class_name(name: &str) -> ViewKind {
        ViewKind::from_class(Symbol::intern(name))
    }

    /// Resolves a layout's interned class name to a kind. Unrecognised
    /// names become [`ViewKind::Custom`] with an
    /// [`MigrationClass::Opaque`] base unless a known suffix identifies the
    /// parent class (e.g. `com.app.FancyTextView` → TextView base).
    pub fn from_class(class: Symbol) -> ViewKind {
        match class.as_str() {
            "View" => ViewKind::View,
            "TextView" => ViewKind::TextView,
            "EditText" => ViewKind::EditText,
            "Button" => ViewKind::Button,
            "CheckBox" => ViewKind::CheckBox,
            "ImageView" => ViewKind::ImageView,
            "ListView" => ViewKind::ListView,
            "GridView" => ViewKind::GridView,
            "ScrollView" => ViewKind::ScrollView,
            "VideoView" => ViewKind::VideoView,
            "ProgressBar" => ViewKind::ProgressBar,
            "SeekBar" => ViewKind::SeekBar,
            "LinearLayout" => ViewKind::LinearLayout,
            "FrameLayout" => ViewKind::FrameLayout,
            "GridLayout" => ViewKind::GridLayout,
            "ConstraintLayout" => ViewKind::ConstraintLayout,
            other => {
                let base = if other.ends_with("TextView")
                    || other.ends_with("EditText")
                    || other.ends_with("Button")
                    || other.ends_with("CheckBox")
                {
                    MigrationClass::TextView
                } else if other.ends_with("ImageView") {
                    MigrationClass::ImageView
                } else if other.ends_with("ListView") || other.ends_with("GridView") {
                    MigrationClass::AbsListView
                } else if other.ends_with("VideoView") {
                    MigrationClass::VideoView
                } else if other.ends_with("ProgressBar") || other.ends_with("SeekBar") {
                    MigrationClass::ProgressBar
                } else if other.ends_with("Layout") {
                    MigrationClass::Container
                } else {
                    MigrationClass::Opaque
                };
                ViewKind::Custom {
                    class_name: class,
                    base,
                }
            }
        }
    }

    /// Short class name (for `Display` and traces).
    pub fn class_name(&self) -> &'static str {
        match self {
            ViewKind::View => "View",
            ViewKind::TextView => "TextView",
            ViewKind::EditText => "EditText",
            ViewKind::Button => "Button",
            ViewKind::CheckBox => "CheckBox",
            ViewKind::ImageView => "ImageView",
            ViewKind::ListView => "ListView",
            ViewKind::GridView => "GridView",
            ViewKind::ScrollView => "ScrollView",
            ViewKind::VideoView => "VideoView",
            ViewKind::ProgressBar => "ProgressBar",
            ViewKind::SeekBar => "SeekBar",
            ViewKind::LinearLayout => "LinearLayout",
            ViewKind::FrameLayout => "FrameLayout",
            ViewKind::GridLayout => "GridLayout",
            ViewKind::ConstraintLayout => "ConstraintLayout",
            ViewKind::DecorView => "DecorView",
            ViewKind::Custom { class_name, .. } => class_name.as_str(),
        }
    }
}

impl fmt::Display for ViewKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.class_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_policy_dispatch() {
        assert_eq!(
            ViewKind::EditText.migration_class(),
            MigrationClass::TextView
        );
        assert_eq!(ViewKind::Button.migration_class(), MigrationClass::TextView);
        assert_eq!(
            ViewKind::ImageView.migration_class(),
            MigrationClass::ImageView
        );
        assert_eq!(
            ViewKind::ScrollView.migration_class(),
            MigrationClass::AbsListView
        );
        assert_eq!(
            ViewKind::GridView.migration_class(),
            MigrationClass::AbsListView
        );
        assert_eq!(
            ViewKind::VideoView.migration_class(),
            MigrationClass::VideoView
        );
        assert_eq!(
            ViewKind::SeekBar.migration_class(),
            MigrationClass::ProgressBar
        );
    }

    #[test]
    fn containers_are_containers() {
        assert!(ViewKind::LinearLayout.is_container());
        assert!(ViewKind::DecorView.is_container());
        assert!(ViewKind::ScrollView.is_container());
        assert!(!ViewKind::TextView.is_container());
    }

    #[test]
    fn class_name_resolution_known() {
        assert_eq!(ViewKind::from_class_name("Button"), ViewKind::Button);
        assert_eq!(
            ViewKind::from_class_name("GridLayout"),
            ViewKind::GridLayout
        );
    }

    #[test]
    fn custom_views_inherit_base_class() {
        let fancy = ViewKind::from_class_name("com.app.FancyTextView");
        assert_eq!(fancy.migration_class(), MigrationClass::TextView);
        let grid = ViewKind::from_class_name("com.app.PhotoGridView");
        assert_eq!(grid.migration_class(), MigrationClass::AbsListView);
        let unknown = ViewKind::from_class_name("com.app.Sparkline");
        assert_eq!(unknown.migration_class(), MigrationClass::Opaque);
    }

    #[test]
    fn custom_layout_is_container() {
        let k = ViewKind::from_class_name("com.app.FlowLayout");
        assert_eq!(k.migration_class(), MigrationClass::Container);
        assert!(k.is_container());
    }

    #[test]
    fn the_symbol_and_text_forms_agree() {
        for name in [
            "Button",
            "LinearLayout",
            "com.app.FancyTextView",
            "com.app.X",
        ] {
            let kind = ViewKind::from_class(Symbol::intern(name));
            assert_eq!(kind, ViewKind::from_class_name(name));
            assert_eq!(kind.class_name(), name);
        }
        assert_eq!(
            ViewKind::from_class_name("com.app.MyEditText"),
            ViewKind::Custom {
                class_name: Symbol::intern("com.app.MyEditText"),
                base: MigrationClass::TextView,
            }
        );
    }

    #[test]
    fn display_prints_class_name() {
        assert_eq!(ViewKind::TextView.to_string(), "TextView");
        let custom = ViewKind::from_class_name("com.app.X");
        assert_eq!(custom.to_string(), "com.app.X");
    }
}
