//! Per-view attributes: the migratable "essence" of a view.

use droidsim_bundle::Bundle;
use droidsim_kernel::Symbol;

/// A view's attribute set.
///
/// The fields cover what Table 1's migration policies move between trees
/// (text, drawable, selector position, checked items, video URI, progress)
/// plus scroll offset and checked state, which Android's view hierarchy
/// state saves. Fields irrelevant to a given view kind simply stay `None`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ViewAttrs {
    /// Displayed or entered text (TextView family).
    pub text: Option<String>,
    /// Drawable asset name and decoded byte size (ImageView). The name
    /// is an interned resource name shared by every view that shows the
    /// drawable, so a view owns none of it.
    pub drawable: Option<(Symbol, u64)>,
    /// Selector position (AbsListView family).
    pub selector_position: Option<i32>,
    /// Checked item positions (AbsListView family).
    pub checked_items: Vec<i32>,
    /// Scroll offset in px (scrolling views).
    pub scroll_y: i32,
    /// Video URI (VideoView).
    pub video_uri: Option<String>,
    /// Progress in `[0, max]` (ProgressBar family).
    pub progress: Option<i32>,
    /// Two-state checked flag (CheckBox).
    pub checked: Option<bool>,
    /// Whether the view is enabled.
    pub enabled: bool,
    /// Whether the view is visible.
    pub visible: bool,
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
        if let Some(u) = &self.video_uri {
            bytes += u.len() as u64;
        }
        bytes += self.checked_items.len() as u64 * 4;
        bytes
    }

    /// Bytes this attribute set owns on the process heap: its text, its
    /// video URI and its checked-item list. Unlike
    /// [`ViewAttrs::heap_bytes`] nothing is charged for a drawable: its
    /// name is interned and its decoded pixels are never allocated.
    pub(crate) fn owned_bytes(&self) -> u64 {
        let strings = self.text.as_ref().map_or(0, String::capacity)
            + self.video_uri.as_ref().map_or(0, String::capacity);
        (strings + self.checked_items.capacity() * std::mem::size_of::<i32>()) as u64
    }

    /// Whether [`ViewAttrs::user_state`] would return a bundle: a few
    /// field checks, no allocation. The view tree re-asks this after
    /// every write to a view, to keep its set of stateful views.
    pub fn has_user_state(&self, freezes_text: bool) -> bool {
        (freezes_text && self.text.is_some())
            || self.selector_position.is_some()
            || !self.checked_items.is_empty()
            || self.scroll_y != 0
            || self.progress.is_some()
            || self.checked.is_some()
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
        let mut b = Bundle::new();
        if let Some(t) = text {
            b.put_string("text", t);
        }
        if let Some(p) = self.selector_position {
            b.put_i32("selector_position", p);
        }
        if !self.checked_items.is_empty() {
            b.put("checked_items", self.checked_items.clone());
        }
        if self.scroll_y != 0 {
            b.put_i32("scroll_y", self.scroll_y);
        }
        if let Some(p) = self.progress {
            b.put_i32("progress", p);
        }
        if let Some(c) = self.checked {
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
            self.selector_position = Some(p);
        }
        if let Some(droidsim_bundle::Value::I32List(items)) = state.get("checked_items") {
            self.checked_items = items.clone();
        }
        if let Some(s) = state.i32("scroll_y") {
            self.scroll_y = s;
        }
        if let Some(p) = state.i32("progress") {
            self.progress = Some(p);
        }
        if let Some(c) = state.bool("checked") {
            self.checked = Some(c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rich_attrs() -> ViewAttrs {
        let mut a = ViewAttrs::new();
        a.text = Some("draft".to_owned());
        a.selector_position = Some(3);
        a.checked_items = vec![1, 2];
        a.scroll_y = 480;
        a.progress = Some(66);
        a.checked = Some(true);
        a
    }

    #[test]
    fn save_restore_round_trips_user_state() {
        let original = rich_attrs();
        let saved = original.user_state(true).unwrap();
        let mut restored = ViewAttrs::new();
        restored.restore_user_state(&saved);
        assert_eq!(restored.text, original.text);
        assert_eq!(restored.selector_position, original.selector_position);
        assert_eq!(restored.checked_items, original.checked_items);
        assert_eq!(restored.scroll_y, original.scroll_y);
        assert_eq!(restored.progress, original.progress);
        assert_eq!(restored.checked, original.checked);
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
        scrolled.scroll_y = 9;
        let state = scrolled.user_state(false).unwrap();
        assert!(!state.contains_key("text"));
        assert_eq!(state.i32("scroll_y"), Some(9));
    }

    #[test]
    fn has_user_state_answers_whether_user_state_is_some() {
        let mut single: Vec<ViewAttrs> = vec![ViewAttrs::new(); 8];
        single[1].text = Some("draft".to_owned());
        single[2].selector_position = Some(0);
        single[3].checked_items = vec![0];
        single[4].scroll_y = -1;
        single[5].progress = Some(0);
        single[6].checked = Some(false);
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
        assert_eq!(a.scroll_y, 0);
    }
}
