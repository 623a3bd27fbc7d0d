//! The view system: trees of typed views with Android semantics.
//!
//! This crate models the part of the Android UI toolkit that RCHDroid's
//! view-tree migration (§3.3) manipulates:
//!
//! * [`ViewKind`] — the type hierarchy of Table 1 (TextView, ImageView,
//!   AbsListView, VideoView, ProgressBar and their subtypes), including
//!   user-defined views that inherit from a basic type,
//! * [`ViewTree`] — an arena of views rooted at a decor view, with
//!   parent/child structure, per-view attributes, and the `invalidate`
//!   mechanism (invalidations are *recorded* so a change handler can catch
//!   the generic update step, exactly the hook the paper adds); once
//!   [`ViewTree::share`]d, clones share its views and a write copies one
//!   chunk,
//! * hierarchy state save/restore ([`ViewTree::save_hierarchy_state`] /
//!   [`ViewTree::restore_hierarchy_state`]) keyed by `android:id` names —
//!   views without ids silently lose state, the classic Android pitfall,
//! * an [`inflate`](crate::inflate::inflate) function that instantiates a
//!   [`LayoutTemplate`](droidsim_resources::LayoutTemplate) for a
//!   configuration, resolving `@string/…` and `@drawable/…` references,
//! * the shadow/sunny hook points the paper's 348-LoC patch adds to `View`
//!   and `ViewGroup` (the sunny peer, looked up by name in the coupled
//!   tree, and state-dispatch helpers).
//!
//! # Examples
//!
//! ```
//! use droidsim_view::{ViewKind, ViewOp, ViewTree};
//!
//! let mut tree = ViewTree::new();
//! let text = tree.add_view(tree.root(), ViewKind::TextView, Some("title")).unwrap();
//! tree.apply(text, ViewOp::SetText("hello".into())).unwrap();
//! assert_eq!(tree.view(text).unwrap().attrs.text.as_deref(), Some("hello"));
//! // The mutation was recorded as an invalidation — the hook RCHDroid uses.
//! assert_eq!(tree.drain_invalidations(), vec![text]);
//! ```

mod arena;
pub mod attrs;
pub mod error;
pub mod inflate;
pub mod kind;
pub mod layout;
pub mod ops;
pub mod tree;

pub use attrs::ViewAttrs;
pub use error::ViewError;
pub use inflate::{check_nesting, inflate, inflate_weighed, try_inflate, InflateStats};
pub use kind::{MigrationClass, ViewKind};
pub use layout::{layout, LayoutResult, Rect};
pub use ops::ViewOp;
pub use tree::{views_visited, NameIndex, ViewId, ViewNode, ViewTree};
