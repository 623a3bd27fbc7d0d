//! The measure/layout pass: computing view geometry for a screen size.
//!
//! Runtime changes exist because geometry depends on the configuration:
//! after a rotation, every view must be re-measured and re-positioned for
//! the new screen. The paper's motivation calls the failure mode "mess up
//! the display" — views laid out for the old screen drawn on the new one.
//! This module computes concrete rectangles so that staleness is
//! observable: a tree laid out for portrait and shown on landscape has
//! views outside the screen bounds, which tests can assert.
//!
//! The algorithm is a simplified Android pass:
//!
//! * `LinearLayout` stacks children vertically, each child getting the
//!   full width and an equal share of the remaining height,
//! * `GridLayout` arranges children in rows of `ceil(sqrt(n))` columns,
//! * `FrameLayout`/`ConstraintLayout`/`DecorView` give every child the
//!   full content box,
//! * scrolling containers translate children by the scroll offset,
//! * leaves fill whatever box their parent assigned.

use crate::kind::ViewKind;
use crate::tree::{ViewId, ViewTree};
use droidsim_config::ScreenSize;
use std::collections::HashMap;

/// A view's computed rectangle, in px relative to the screen origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rect {
    /// Left edge.
    pub x: i32,
    /// Top edge.
    pub y: i32,
    /// Width.
    pub width: u32,
    /// Height.
    pub height: u32,
}

impl Rect {
    /// A rectangle at the origin with the given size.
    pub const fn sized(width: u32, height: u32) -> Rect {
        Rect {
            x: 0,
            y: 0,
            width,
            height,
        }
    }

    /// Whether `self` lies fully inside `outer`.
    pub fn fits_inside(&self, outer: &Rect) -> bool {
        self.x >= outer.x
            && self.y >= outer.y
            && self.x + self.width as i32 <= outer.x + outer.width as i32
            && self.y + self.height as i32 <= outer.y + outer.height as i32
    }

    /// The rectangle's area.
    pub fn area(&self) -> u64 {
        self.width as u64 * self.height as u64
    }
}

/// The result of one layout pass.
#[derive(Debug, Clone, PartialEq)]
pub struct LayoutResult {
    /// The screen the pass was computed for.
    pub screen: ScreenSize,
    rects: HashMap<ViewId, Rect>,
}

impl LayoutResult {
    /// The rectangle assigned to a view (visible views only).
    pub fn rect(&self, view: ViewId) -> Option<Rect> {
        self.rects.get(&view).copied()
    }

    /// Number of views positioned.
    pub fn len(&self) -> usize {
        self.rects.len()
    }

    /// Whether no views were positioned.
    pub fn is_empty(&self) -> bool {
        self.rects.is_empty()
    }

    /// Views whose rectangles stick out of the screen — the observable
    /// "messed up display" signal. Scrolled-out content is expected;
    /// callers interested in scroll effects filter on containers.
    pub fn out_of_bounds(&self) -> Vec<ViewId> {
        let screen = Rect::sized(self.screen.width_dp, self.screen.height_dp);
        let mut out: Vec<ViewId> = self
            .rects
            .iter()
            .filter(|(_, r)| !r.fits_inside(&screen))
            .map(|(id, _)| *id)
            .collect();
        out.sort_unstable();
        out
    }
}

/// Runs a measure/layout pass over `tree` for `screen`.
///
/// Invisible views (and their subtrees) are skipped, like Android's
/// `GONE`. Returns the rectangle of every laid-out view.
pub fn layout(tree: &ViewTree, screen: ScreenSize) -> LayoutResult {
    let mut result = LayoutResult {
        screen,
        rects: HashMap::with_capacity(tree.view_count()),
    };
    let root_rect = Rect::sized(screen.width_dp, screen.height_dp);
    if tree.view(tree.root()).is_ok() {
        place(tree, tree.root(), root_rect, &mut result);
    }
    result
}

fn place(tree: &ViewTree, id: ViewId, rect: Rect, result: &mut LayoutResult) {
    let Ok(node) = tree.view(id) else { return };
    if !node.attrs.visible {
        return;
    }
    result.rects.insert(id, rect);
    let children: Vec<ViewId> = node
        .children
        .iter()
        .copied()
        .filter(|&c| tree.view(c).is_ok_and(|n| n.attrs.visible))
        .collect();
    if children.is_empty() {
        return;
    }
    let scroll = node.attrs.scroll_y();
    match &node.kind {
        ViewKind::LinearLayout | ViewKind::ListView => {
            let slice = (rect.height / children.len() as u32).max(1);
            for (i, child) in children.iter().enumerate() {
                let child_rect = Rect {
                    x: rect.x,
                    y: rect.y + (i as u32 * slice) as i32 - scroll,
                    width: rect.width,
                    height: slice,
                };
                place(tree, *child, child_rect, result);
            }
        }
        ViewKind::GridLayout | ViewKind::GridView => {
            let cols = (children.len() as f64).sqrt().ceil().max(1.0) as u32;
            let n = children.len() as u32;
            let rows = n / cols + u32::from(!n.is_multiple_of(cols));
            let cell_w = (rect.width / cols).max(1);
            let cell_h = (rect.height / rows.max(1)).max(1);
            for (i, child) in children.iter().enumerate() {
                let (row, col) = (i as u32 / cols, i as u32 % cols);
                let child_rect = Rect {
                    x: rect.x + (col * cell_w) as i32,
                    y: rect.y + (row * cell_h) as i32 - scroll,
                    width: cell_w,
                    height: cell_h,
                };
                place(tree, *child, child_rect, result);
            }
        }
        _ => {
            // Frame-like containers: every child gets the content box.
            for child in children {
                let child_rect = Rect {
                    x: rect.x,
                    y: rect.y - scroll,
                    width: rect.width,
                    height: rect.height,
                };
                place(tree, child, child_rect, result);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::ViewOp;

    fn column_tree(n: usize) -> (ViewTree, Vec<ViewId>) {
        let mut t = ViewTree::new();
        let root = t
            .add_view(t.root(), ViewKind::LinearLayout, Some("root"))
            .unwrap();
        let children: Vec<ViewId> = (0..n)
            .map(|i| {
                t.add_view(root, ViewKind::ImageView, Some(&format!("v{i}")))
                    .unwrap()
            })
            .collect();
        (t, children)
    }

    #[test]
    fn linear_layout_stacks_vertically() {
        let (t, children) = column_tree(4);
        let result = layout(&t, ScreenSize::new(1080, 1920));
        let rects: Vec<Rect> = children.iter().map(|&c| result.rect(c).unwrap()).collect();
        for r in &rects {
            assert_eq!(r.width, 1080, "children get full width");
            assert_eq!(r.height, 480, "equal shares of the height");
        }
        assert!(rects.windows(2).all(|w| w[1].y == w[0].y + 480), "stacked");
        assert!(result.out_of_bounds().is_empty());
    }

    #[test]
    fn grid_layout_tiles() {
        let mut t = ViewTree::new();
        let root = t
            .add_view(t.root(), ViewKind::GridLayout, Some("root"))
            .unwrap();
        let children: Vec<ViewId> = (0..4)
            .map(|i| {
                t.add_view(root, ViewKind::ImageView, Some(&format!("v{i}")))
                    .unwrap()
            })
            .collect();
        let result = layout(&t, ScreenSize::new(1000, 1000));
        // 4 children → 2×2 grid of 500×500 cells.
        let rects: Vec<Rect> = children.iter().map(|&c| result.rect(c).unwrap()).collect();
        assert!(rects.iter().all(|r| r.width == 500 && r.height == 500));
        let positions: std::collections::HashSet<(i32, i32)> =
            rects.iter().map(|r| (r.x, r.y)).collect();
        assert_eq!(positions.len(), 4, "no overlap");
    }

    #[test]
    fn relayout_for_the_new_screen_fits_again() {
        // The runtime-change essence: portrait geometry does not fit the
        // landscape screen; a fresh pass for the new screen does.
        let (t, _) = column_tree(3);
        let portrait = layout(&t, ScreenSize::new(1080, 1920));
        assert!(portrait.out_of_bounds().is_empty());

        // Stale: portrait rects checked against the landscape screen.
        let stale = LayoutResult {
            screen: ScreenSize::new(1920, 1080),
            ..portrait.clone()
        };
        assert!(!stale.out_of_bounds().is_empty(), "the messed-up display");

        let fresh = layout(&t, ScreenSize::new(1920, 1080));
        assert!(fresh.out_of_bounds().is_empty());
    }

    #[test]
    fn invisible_subtrees_are_skipped() {
        let (mut t, children) = column_tree(3);
        t.apply(children[1], ViewOp::SetVisible(false)).unwrap();
        let result = layout(&t, ScreenSize::new(1080, 1920));
        assert!(result.rect(children[1]).is_none());
        // The remaining two children split the space.
        assert_eq!(result.rect(children[0]).unwrap().height, 960);
    }

    #[test]
    fn scroll_translates_children() {
        let (mut t, children) = column_tree(4);
        let root = t.find_by_id_name("root").unwrap();
        t.apply(root, ViewOp::ScrollTo(480)).unwrap();
        let result = layout(&t, ScreenSize::new(1080, 1920));
        // The first child scrolled off the top.
        assert_eq!(result.rect(children[0]).unwrap().y, -480);
        assert!(result.out_of_bounds().contains(&children[0]));
    }

    #[test]
    fn rect_geometry_helpers() {
        let outer = Rect::sized(100, 100);
        assert!(Rect {
            x: 10,
            y: 10,
            width: 50,
            height: 50
        }
        .fits_inside(&outer));
        assert!(!Rect {
            x: 60,
            y: 60,
            width: 50,
            height: 50
        }
        .fits_inside(&outer));
        assert_eq!(outer.area(), 10_000);
    }

    #[test]
    fn empty_tree_lays_out_just_the_decor() {
        let t = ViewTree::new();
        let result = layout(&t, ScreenSize::new(500, 500));
        assert_eq!(result.len(), 1);
        assert_eq!(result.rect(t.root()).unwrap(), Rect::sized(500, 500));
    }
}
