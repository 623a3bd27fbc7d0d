//! Per-view attributes: the migratable "essence" of a view.
//!
//! Every view carries text, a drawable, enablement and visibility in
//! line. The six attributes few views hold (a list's selector position
//! and checked items, a scroll offset, a video URI, a progress value and
//! a checked flag) sit behind one box that only a view holding one of
//! them allocates, so every other view's attributes fit in 56 bytes:
//! what an inflation writes and a drop frees per view.

use droidsim_bundle::Bundle;
use droidsim_kernel::Symbol;
use std::fmt;

/// A view's attribute set.
///
/// The fields cover what Table 1's migration policies move between trees
/// (text, drawable, selector position, checked items, video URI, progress)
/// plus scroll offset and checked state, which Android's view hierarchy
/// state saves. Fields irrelevant to a given view kind simply stay `None`.
/// The six rarely held ones are read and written through accessors;
/// equality is content equality, so a view whose boxed attributes went
/// back to their defaults equals one that never had them.
#[derive(Clone, Default)]
pub struct ViewAttrs {
    /// Displayed or entered text (TextView family).
    pub text: Option<String>,
    /// Drawable asset name and decoded byte size (ImageView). The name
    /// is an interned resource name shared by every view that shows the
    /// drawable, so a view owns none of it.
    pub drawable: Option<(Symbol, u64)>,
    /// The rarely held attributes, allocated by the first write of a
    /// value other than their default.
    extra: Option<Box<ExtraAttrs>>,
    /// Whether the view is enabled.
    pub enabled: bool,
    /// Whether the view is visible.
    pub visible: bool,
}

/// The attributes few views hold, boxed out of [`ViewAttrs`].
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct ExtraAttrs {
    /// Selector position (AbsListView family).
    pub(crate) selector_position: Option<i32>,
    /// Checked item positions (AbsListView family).
    pub(crate) checked_items: Vec<i32>,
    /// Scroll offset in px (scrolling views).
    pub(crate) scroll_y: i32,
    /// Video URI (VideoView).
    pub(crate) video_uri: Option<String>,
    /// Progress in `[0, max]` (ProgressBar family).
    pub(crate) progress: Option<i32>,
    /// Two-state checked flag (CheckBox).
    pub(crate) checked: Option<bool>,
}

/// What a view without the box reads.
static NO_EXTRA: ExtraAttrs = ExtraAttrs {
    selector_position: None,
    checked_items: Vec::new(),
    scroll_y: 0,
    video_uri: None,
    progress: None,
    checked: None,
};

impl ExtraAttrs {
    /// Whether any attribute here is user state (all but the video URI).
    fn holds_state(&self) -> bool {
        self.selector_position.is_some()
            || !self.checked_items.is_empty()
            || self.scroll_y != 0
            || self.progress.is_some()
            || self.checked.is_some()
    }
}

impl ViewAttrs {
    /// Attributes of a freshly constructed view.
    pub fn new() -> Self {
        ViewAttrs {
            enabled: true,
            visible: true,
            ..ViewAttrs::default()
        }
    }

    /// The attributes of a view the inflater made: enabled, visible and
    /// holding what its layout attributes resolved to.
    #[inline]
    pub(crate) fn inflated(
        text: Option<String>,
        drawable: Option<(Symbol, u64)>,
        extra: Option<Box<ExtraAttrs>>,
    ) -> Self {
        ViewAttrs {
            text,
            drawable,
            extra,
            enabled: true,
            visible: true,
        }
    }

    /// The boxed attributes, or their defaults for a view without them.
    #[inline]
    fn extra(&self) -> &ExtraAttrs {
        self.extra.as_deref().unwrap_or(&NO_EXTRA)
    }

    /// Writes the boxed attributes with `write`. A view without the box
    /// allocates it only when `default` is false, that is when the write
    /// stores something other than a default: writing a default to a
    /// view that never held the attribute changes nothing.
    fn write_extra(&mut self, default: bool, write: impl FnOnce(&mut ExtraAttrs)) {
        match &mut self.extra {
            Some(extra) => write(extra),
            None if default => {}
            None => write(self.extra.insert(Box::default())),
        }
    }

    /// Selector position (AbsListView family).
    pub fn selector_position(&self) -> Option<i32> {
        self.extra().selector_position
    }

    /// Checked item positions (AbsListView family).
    pub fn checked_items(&self) -> &[i32] {
        &self.extra().checked_items
    }

    /// Scroll offset in px (scrolling views).
    pub fn scroll_y(&self) -> i32 {
        self.extra().scroll_y
    }

    /// Video URI (VideoView).
    pub fn video_uri(&self) -> Option<&str> {
        self.extra().video_uri.as_deref()
    }

    /// Progress in `[0, max]` (ProgressBar family).
    pub fn progress(&self) -> Option<i32> {
        self.extra().progress
    }

    /// Two-state checked flag (CheckBox).
    pub fn checked(&self) -> Option<bool> {
        self.extra().checked
    }

    /// Sets the selector position.
    pub fn set_selector_position(&mut self, position: Option<i32>) {
        self.write_extra(position.is_none(), |e| e.selector_position = position);
    }

    /// Checks one item position (added once, the list re-sorted) or
    /// unchecks it (every occurrence removed).
    pub fn set_item_checked(&mut self, item: i32, checked: bool) {
        self.write_extra(!checked, |e| {
            let items = &mut e.checked_items;
            if !checked {
                items.retain(|&i| i != item);
            } else if !items.contains(&item) {
                items.push(item);
                items.sort_unstable();
            }
        });
    }

    /// Sets the scroll offset.
    pub fn set_scroll_y(&mut self, y: i32) {
        self.write_extra(y == 0, |e| e.scroll_y = y);
    }

    /// Sets the video URI.
    pub fn set_video_uri(&mut self, uri: Option<String>) {
        self.write_extra(uri.is_none(), |e| e.video_uri = uri);
    }

    /// Sets the progress.
    pub fn set_progress(&mut self, progress: Option<i32>) {
        self.write_extra(progress.is_none(), |e| e.progress = progress);
    }

    /// Sets the checked flag.
    pub fn set_checked(&mut self, checked: Option<bool>) {
        self.write_extra(checked.is_none(), |e| e.checked = checked);
    }

    /// Approximate heap footprint of this attribute set in bytes — the
    /// memory model charges drawables at their decoded size.
    pub fn heap_bytes(&self) -> u64 {
        let mut bytes = 64; // object header + scalar fields
        if let Some(t) = &self.text {
            bytes += t.len() as u64;
        }
        if let Some((name, decoded)) = &self.drawable {
            bytes += name.as_str().len() as u64 + decoded;
        }
        if let Some(u) = self.video_uri() {
            bytes += u.len() as u64;
        }
        bytes += self.checked_items().len() as u64 * 4;
        bytes
    }

    /// Bytes this attribute set owns on the process heap: its text, and
    /// the box of rarely held attributes with its video URI and
    /// checked-item list. Unlike [`ViewAttrs::heap_bytes`] nothing is
    /// charged for a drawable: its name is interned and its decoded
    /// pixels are never allocated.
    pub(crate) fn owned_bytes(&self) -> u64 {
        let text = self.text.as_ref().map_or(0, String::capacity);
        let extra = self.extra.as_deref().map_or(0, |e| {
            std::mem::size_of::<ExtraAttrs>()
                + e.video_uri.as_ref().map_or(0, String::capacity)
                + e.checked_items.capacity() * std::mem::size_of::<i32>()
        });
        (text + extra) as u64
    }

    /// Whether [`ViewAttrs::user_state`] would return a bundle: a few
    /// field checks, no allocation. The view tree re-asks this after
    /// every write to a view, to keep its set of stateful views.
    #[inline]
    pub fn has_user_state(&self, freezes_text: bool) -> bool {
        (freezes_text && self.text.is_some())
            || self.extra.as_deref().is_some_and(ExtraAttrs::holds_state)
    }

    /// The *user state* (what `View.onSaveInstanceState` persists:
    /// entered text, scroll, selection, checked state, progress — not
    /// static content like drawables) as a bundle, or `None` when the view
    /// holds none. `freezes_text` is Android's `freezesText`: without it
    /// the text is content (a label set by the app or from resources), so
    /// it is left out. Every user-state copy — hierarchy save, RCHDroid's
    /// seeding, RuntimeDroid's hot reload — goes through here, so a
    /// stateless view costs a few field checks and no allocation.
    pub fn user_state(&self, freezes_text: bool) -> Option<Bundle> {
        if !self.has_user_state(freezes_text) {
            return None;
        }
        let text = self.text.as_deref().filter(|_| freezes_text);
        let extra = self.extra();
        let mut b = Bundle::new();
        if let Some(t) = text {
            b.put_string("text", t);
        }
        if let Some(p) = extra.selector_position {
            b.put_i32("selector_position", p);
        }
        if !extra.checked_items.is_empty() {
            b.put("checked_items", extra.checked_items.clone());
        }
        if extra.scroll_y != 0 {
            b.put_i32("scroll_y", extra.scroll_y);
        }
        if let Some(p) = extra.progress {
            b.put_i32("progress", p);
        }
        if let Some(c) = extra.checked {
            b.put_bool("checked", c);
        }
        Some(b)
    }

    /// Restores user state produced by [`ViewAttrs::user_state`].
    /// Missing keys leave the current value untouched.
    pub fn restore_user_state(&mut self, state: &Bundle) {
        if let Some(t) = state.string("text") {
            self.text = Some(t.to_owned());
        }
        if let Some(p) = state.i32("selector_position") {
            self.set_selector_position(Some(p));
        }
        if let Some(droidsim_bundle::Value::I32List(items)) = state.get("checked_items") {
            self.write_extra(items.is_empty(), |e| e.checked_items.clone_from(items));
        }
        if let Some(s) = state.i32("scroll_y") {
            self.set_scroll_y(s);
        }
        if let Some(p) = state.i32("progress") {
            self.set_progress(Some(p));
        }
        if let Some(c) = state.bool("checked") {
            self.set_checked(Some(c));
        }
    }
}

impl PartialEq for ViewAttrs {
    fn eq(&self, other: &Self) -> bool {
        self.text == other.text
            && self.drawable == other.drawable
            && self.enabled == other.enabled
            && self.visible == other.visible
            && self.extra() == other.extra()
    }
}

/// Prints every attribute by name, boxed or not, so a view prints the
/// same whether or not it ever held a boxed attribute.
impl fmt::Debug for ViewAttrs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let extra = self.extra();
        f.debug_struct("ViewAttrs")
            .field("text", &self.text)
            .field("drawable", &self.drawable)
            .field("selector_position", &extra.selector_position)
            .field("checked_items", &extra.checked_items)
            .field("scroll_y", &extra.scroll_y)
            .field("video_uri", &extra.video_uri)
            .field("progress", &extra.progress)
            .field("checked", &extra.checked)
            .field("enabled", &self.enabled)
            .field("visible", &self.visible)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rich_attrs() -> ViewAttrs {
        let mut a = ViewAttrs::new();
        a.text = Some("draft".to_owned());
        a.set_selector_position(Some(3));
        a.set_item_checked(2, true);
        a.set_item_checked(1, true);
        a.set_scroll_y(480);
        a.set_progress(Some(66));
        a.set_checked(Some(true));
        a
    }

    #[test]
    fn save_restore_round_trips_user_state() {
        let original = rich_attrs();
        let saved = original.user_state(true).unwrap();
        let mut restored = ViewAttrs::new();
        restored.restore_user_state(&saved);
        assert_eq!(restored.text, original.text);
        assert_eq!(restored.selector_position(), original.selector_position());
        assert_eq!(restored.checked_items(), original.checked_items());
        assert_eq!(restored.scroll_y(), original.scroll_y());
        assert_eq!(restored.progress(), original.progress());
        assert_eq!(restored.checked(), original.checked());
        assert_eq!(restored, original);
    }

    #[test]
    fn drawables_are_content_not_user_state() {
        let mut a = ViewAttrs::new();
        a.drawable = Some(("hero.png".into(), 10_000));
        assert_eq!(a.user_state(true), None);
    }

    #[test]
    fn label_text_is_left_out_without_freezes_text() {
        let mut label = ViewAttrs::new();
        label.text = Some("Load".to_owned());
        assert_eq!(label.user_state(false), None, "text alone is content");
        assert!(label.user_state(true).unwrap().contains_key("text"));

        let mut scrolled = rich_attrs();
        scrolled.set_scroll_y(9);
        let state = scrolled.user_state(false).unwrap();
        assert!(!state.contains_key("text"));
        assert_eq!(state.i32("scroll_y"), Some(9));
    }

    #[test]
    fn has_user_state_answers_whether_user_state_is_some() {
        let mut single: Vec<ViewAttrs> = vec![ViewAttrs::new(); 8];
        single[1].text = Some("draft".to_owned());
        single[2].set_selector_position(Some(0));
        single[3].set_item_checked(0, true);
        single[4].set_scroll_y(-1);
        single[5].set_progress(Some(0));
        single[6].set_checked(Some(false));
        single[7].drawable = Some(("x.png".into(), 1));
        single.push(rich_attrs());
        for attrs in &single {
            for freezes_text in [false, true] {
                assert_eq!(
                    attrs.has_user_state(freezes_text),
                    attrs.user_state(freezes_text).is_some(),
                    "{attrs:?} freezes_text={freezes_text}"
                );
            }
        }
    }

    #[test]
    fn owned_bytes_ignore_decoded_drawable_size() {
        // Neither the decoded pixels nor the interned asset name belong
        // to the view.
        let mut a = ViewAttrs::new();
        a.drawable = Some(("x.png".into(), 1_000_000));
        assert_eq!(a.owned_bytes(), 0);
    }

    #[test]
    fn restore_leaves_unsaved_fields_alone() {
        let mut target = ViewAttrs::new();
        target.text = Some("keep me".to_owned());
        target.restore_user_state(&Bundle::new());
        assert_eq!(target.text.as_deref(), Some("keep me"));
    }

    #[test]
    fn heap_accounts_for_drawable_bytes() {
        let mut a = ViewAttrs::new();
        let base = a.heap_bytes();
        a.drawable = Some(("x.png".into(), 1_000_000));
        assert!(a.heap_bytes() >= base + 1_000_000);
    }

    #[test]
    fn new_is_enabled_and_visible() {
        let a = ViewAttrs::new();
        assert!(a.enabled);
        assert!(a.visible);
        assert_eq!(a.scroll_y(), 0);
    }

    #[test]
    fn boxed_attributes_back_at_their_defaults_equal_none_held() {
        let never = ViewAttrs::new();
        let mut returned = rich_attrs();
        returned.text = None;
        returned.set_selector_position(None);
        returned.set_item_checked(1, false);
        returned.set_item_checked(2, false);
        returned.set_scroll_y(0);
        returned.set_video_uri(Some("clip.mp4".to_owned()));
        returned.set_video_uri(None);
        returned.set_progress(None);
        returned.set_checked(None);
        assert!(returned.extra.is_some(), "the box stays allocated");
        assert_eq!(returned, never);
        assert_eq!(never, returned);
        assert_eq!(format!("{returned:?}"), format!("{never:?}"));
        assert!(!returned.has_user_state(true));
        assert_eq!(returned.heap_bytes(), never.heap_bytes());
        // One attribute apart is unequal either way round.
        returned.set_progress(Some(0));
        assert_ne!(returned, never);
        assert_ne!(never, returned);
    }

    #[test]
    fn writing_a_default_allocates_no_box() {
        let mut a = ViewAttrs::new();
        a.set_selector_position(None);
        a.set_item_checked(3, false);
        a.set_scroll_y(0);
        a.set_video_uri(None);
        a.set_progress(None);
        a.set_checked(None);
        a.restore_user_state(&Bundle::new());
        assert!(a.extra.is_none());
        assert_eq!(a.owned_bytes(), 0);
        a.set_scroll_y(1);
        assert_eq!(a.owned_bytes(), std::mem::size_of::<ExtraAttrs>() as u64);
    }
}
