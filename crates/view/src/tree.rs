//! The view-tree arena.
//!
//! A [`ViewTree`] is the per-activity hierarchy rooted at a decor view.
//! Besides the stock Android behaviour (structure, attribute mutation via
//! [`ViewOp`], hierarchy state save/restore, invalidation), the tree also
//! carries the *hook points* the paper's patch adds to `View`/`ViewGroup`
//! (Table 2): a per-view **sunny peer pointer** (81+79 LoC of the patch)
//! and shadow/sunny dispatch along the tree (12 LoC in `ViewGroup`).
//! The hooks are inert unless a change handler uses them, so with no
//! handler installed the tree behaves exactly like stock Android 10.
//!
//! # Writes go through the tree
//!
//! Views are read through [`ViewTree::view`], but nothing outside this
//! crate gets a `&mut ViewNode`: a view's attributes and save flags
//! change only through [`ViewTree::apply`], [`ViewTree::edit_attrs`],
//! [`ViewTree::set_saves_state`], [`ViewTree::set_freezes_text`] and the
//! restore paths, and its name, parent, children and sunny peer only
//! through the structural ops. Every write re-checks the one view it
//! touched against the saved-state predicate, so the tree always knows
//! its *stateful* views — the live views whose hierarchy state is
//! non-empty — without looking. [`ViewTree::save_hierarchy_state`]
//! visits only those, which makes the snapshot every configuration
//! change takes (the coin flip included) cost the stateful views, not
//! the tree. The set is a function of the tree's content, so the derived
//! `PartialEq` is still content equality.
//!
//! # Panic policy
//!
//! Production code in this module is panic-free: every fallible lookup
//! returns [`ViewError`] (or `Option`), and the arena is append-only with
//! ids handed out by [`ViewTree::add_view`], so an id obtained from this
//! tree cannot dangle — until [`ViewTree::release`] drops the whole arena,
//! after which every lookup fails with [`ViewError::NullPointer`] before
//! touching it. The `unwrap`/`expect` calls below all live in
//! `#[cfg(test)]` code or doc examples, where a panic *is* the failure
//! report; keep it that way when adding code here.

use crate::attrs::ViewAttrs;
use crate::error::ViewError;
use crate::kind::ViewKind;
use crate::ops::{DirtyMask, ViewOp};
use droidsim_bundle::{Bundle, Value};
use droidsim_kernel::{alloc_track, Symbol};
use serde::{Deserialize, Serialize};
use std::cell::{Cell, RefCell};
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap};
use std::sync::OnceLock;

thread_local! {
    /// Reusable DFS stack for [`ViewTree::for_each_id`]-style traversals:
    /// the coupling and migration paths walk the tree many times per
    /// configuration change, and each walk used to allocate a fresh id
    /// vector.
    static SCRATCH_STACK: RefCell<Vec<ViewId>> = const { RefCell::new(Vec::new()) };
    /// Views touched by traversals on this thread; see [`views_visited`].
    static VISITS: Cell<u64> = const { Cell::new(0) };
}

/// Adds one traversal's visits to this thread's count.
fn note_visits(views: usize) {
    VISITS.with(|v| v.set(v.get() + views as u64));
}

/// Views visited by tree traversals on this thread so far: the shared
/// pre-order walk ([`ViewTree::for_each_id`] and everything built on
/// it), [`ViewTree::set_sunny_peers`], and the hierarchy save's pass over
/// its stateful views (with the ancestor chains it climbs to break a
/// tie). Snapshot before and after a region and subtract: the
/// difference counts work, not time, so a test can pin how a path
/// scales. Like `alloc_track`, the count is diagnostic and enters no
/// fingerprint.
pub fn views_visited() -> u64 {
    VISITS.with(Cell::get)
}

/// Puts `id` into a tree's stateful set or takes it out.
fn mark_stateful(set: &mut BTreeSet<ViewId>, id: ViewId, stateful: bool) {
    if stateful {
        set.insert(id);
    } else {
        set.remove(&id);
    }
}

/// Runs `f` with this thread's reusable traversal stack (cleared first).
/// Falls back to a fresh stack — counted as an allocation event — when
/// the scratch is already held by an outer traversal on this thread.
fn with_scratch_stack<R>(f: impl FnOnce(&mut Vec<ViewId>) -> R) -> R {
    SCRATCH_STACK.with(|cell| match cell.try_borrow_mut() {
        Ok(mut stack) => {
            stack.clear();
            f(&mut stack)
        }
        Err(_) => {
            alloc_track::note(1);
            f(&mut Vec::new())
        }
    })
}

droidsim_kernel::define_id! {
    /// Identifies one view *instance* within a tree.
    ///
    /// Not to be confused with the `android:id` resource name
    /// ([`ViewNode::id_name`]), which is what survives re-inflation and
    /// keys both hierarchy state and RCHDroid's essence-based mapping.
    pub struct ViewId
}

/// One view in the arena.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ViewNode {
    /// Instance id within the tree.
    pub id: ViewId,
    /// The `android:id` name, if declared, interned as a [`Symbol`].
    ///
    /// Fixed by [`ViewTree::add_view`]: no tree method renames a view, so
    /// the tree's cached name→view index changes on structural ops only.
    pub id_name: Option<Symbol>,
    /// Concrete class.
    pub kind: ViewKind,
    /// Attribute set. Written only through tree methods
    /// ([`ViewTree::apply`], [`ViewTree::edit_attrs`] and the restores),
    /// each of which re-checks the view's saved state.
    pub attrs: ViewAttrs,
    /// Parent instance (`None` only for the decor view).
    pub parent: Option<ViewId>,
    /// Children in order.
    pub children: Vec<ViewId>,
    /// RCHDroid hook: pointer to the corresponding view in the coupled
    /// sunny-state tree. `None` by default (stock behaviour).
    pub sunny_peer: Option<ViewId>,
    /// Whether the view participates in hierarchy state save/restore.
    /// Framework views do (`true`); a user-defined view that fails to
    /// implement `onSaveInstanceState` — the most common cause of the
    /// paper's state-loss bugs — does not. RCHDroid's essence migration
    /// copies *live attributes* and therefore fixes these views anyway.
    /// Written only through [`ViewTree::set_saves_state`].
    pub saves_state: bool,
    /// Android's `freezesText`: whether the view's text is user input
    /// that persists across save/restore (true for editable kinds).
    /// Label text set by the app or from resources is content, not state.
    /// Written only through [`ViewTree::set_freezes_text`].
    pub freezes_text: bool,
}

impl ViewNode {
    /// Approximate heap footprint in bytes (object + attrs).
    pub fn heap_bytes(&self) -> u64 {
        // Rough per-View object cost on ART; dominated by attrs/drawables.
        512 + self.attrs.heap_bytes()
    }

    /// The `android:id` name as text, if declared.
    pub fn id_name_str(&self) -> Option<&'static str> {
        self.id_name.map(Symbol::as_str)
    }

    /// What `onSaveInstanceState` writes for this view: its name and its
    /// user state. `None` for a view that skips the protocol, has no id,
    /// or holds no user state; `Some` exactly when
    /// [`ViewNode::has_saved_state`] holds.
    fn saved_state(&self) -> Option<(Symbol, Bundle)> {
        if !self.saves_state {
            return None; // custom view without onSaveInstanceState
        }
        let name = self.id_name?;
        Some((name, self.attrs.user_state(self.freezes_text)?))
    }

    /// Whether the hierarchy save writes an entry for this view, decided
    /// by field checks alone: the predicate of the tree's stateful set.
    fn has_saved_state(&self) -> bool {
        self.saves_state && self.id_name.is_some() && self.attrs.has_user_state(self.freezes_text)
    }
}

/// A per-activity view hierarchy.
///
/// # Examples
///
/// ```
/// use droidsim_view::{ViewKind, ViewOp, ViewTree};
///
/// let mut tree = ViewTree::new();
/// let field = tree.add_view(tree.root(), ViewKind::EditText, Some("name")).unwrap();
/// tree.apply(field, ViewOp::SetText("alice".into())).unwrap();
/// let state = tree.save_hierarchy_state();
/// assert!(state.bundle("view:name").is_some());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ViewTree {
    nodes: Vec<Option<ViewNode>>,
    /// Live views in `nodes`, kept by add, remove and release so
    /// [`ViewTree::view_count`] never scans the arena.
    live: usize,
    root: ViewId,
    released: bool,
    /// Pending invalidations, coalesced *at insert time*: one entry per
    /// dirty view in first-invalidation order, carrying the OR-ed dirty
    /// mask and the raw invalidation count that folded into it. Draining
    /// is a linear sweep over this vector — no per-drain hash map.
    pending: Vec<(ViewId, DirtyMask, usize)>,
    /// View → position in `pending`, so a repeat invalidation is an O(1)
    /// in-place OR instead of a new entry.
    pending_pos: HashMap<ViewId, usize>,
    /// Raw (uncoalesced) invalidations since the last drain.
    raw_pending: usize,
    /// RCHDroid hook: when true the tree is in the Shadow state — it is
    /// invisible but alive, and its invalidations are what lazy migration
    /// consumes.
    shadow: bool,
    /// RCHDroid hook: when true the tree belongs to the Sunny (foreground)
    /// activity.
    sunny: bool,
    /// Cached `android:id` name → view id index, maintained incrementally
    /// on the structural ops ([`ViewTree::add_view`] /
    /// [`ViewTree::remove_view`]) instead of being rebuilt on every
    /// coupling build or flush. Invariant: always equal to
    /// [`ViewTree::rebuild_id_name_index`] (lowest live view id wins for
    /// duplicate names).
    id_name_index: HashMap<Symbol, ViewId>,
    /// Live duplicate-name bearers *not* currently in the index, per
    /// name, in ascending id order (appends stay sorted because view ids
    /// only grow). Removal promotes the front entry instead of rescanning
    /// the arena, making index maintenance O(shadowed) per removed name.
    shadowed_ids: HashMap<Symbol, Vec<ViewId>>,
    /// The live views whose saved state is non-empty
    /// ([`ViewNode::has_saved_state`]): the only views the hierarchy save
    /// visits. A new view holds no state, so adding one leaves it alone.
    stateful: BTreeSet<ViewId>,
}

impl ViewTree {
    /// Creates a tree containing only a decor view.
    pub fn new() -> Self {
        static DECOR: OnceLock<Symbol> = OnceLock::new();
        let root = ViewId::new(0);
        let decor_name = *DECOR.get_or_init(|| Symbol::intern("decor"));
        let decor = ViewNode {
            id: root,
            id_name: Some(decor_name),
            kind: ViewKind::DecorView,
            attrs: ViewAttrs::new(),
            parent: None,
            children: Vec::new(),
            sunny_peer: None,
            saves_state: true,
            freezes_text: false,
        };
        alloc_track::note(1);
        ViewTree {
            nodes: vec![Some(decor)],
            live: 1,
            root,
            released: false,
            pending: Vec::new(),
            pending_pos: HashMap::new(),
            raw_pending: 0,
            shadow: false,
            sunny: false,
            id_name_index: HashMap::from([(decor_name, root)]),
            shadowed_ids: HashMap::new(),
            stateful: BTreeSet::new(),
        }
    }

    /// The decor view's id.
    pub fn root(&self) -> ViewId {
        self.root
    }

    /// Whether the tree has been released (its activity destroyed).
    pub fn is_released(&self) -> bool {
        self.released
    }

    /// Releases the tree: every subsequent access raises
    /// [`ViewError::NullPointer`] — the stock-Android crash scenario.
    ///
    /// The views themselves are freed: the arena, the id-name index, the
    /// shadowed-duplicate lists, the stateful set and the pending
    /// invalidations are all dropped, so a released tree holds no views
    /// ([`ViewTree::view_count`] and [`ViewTree::heap_bytes`] read 0,
    /// [`ViewTree::find_by_id_name`] finds nothing). Only the decor id
    /// survives, for
    /// [`ViewTree::root`]: a callback captured before the release still
    /// names the view its `NullPointer` is about.
    pub fn release(&mut self) {
        self.released = true;
        self.nodes = Vec::new();
        self.live = 0;
        self.id_name_index = HashMap::new();
        self.shadowed_ids = HashMap::new();
        self.stateful = BTreeSet::new();
        self.pending = Vec::new();
        self.pending_pos = HashMap::new();
        self.raw_pending = 0;
    }

    fn check_alive(&self, view: ViewId) -> Result<(), ViewError> {
        if self.released {
            return Err(ViewError::NullPointer { view });
        }
        Ok(())
    }

    /// Looks up a view.
    ///
    /// # Errors
    ///
    /// [`ViewError::NullPointer`] if the tree is released,
    /// [`ViewError::UnknownView`] if the id is stale.
    pub fn view(&self, id: ViewId) -> Result<&ViewNode, ViewError> {
        self.check_alive(id)?;
        self.node(id).ok_or(ViewError::UnknownView(id))
    }

    /// A live view, or `None` (no liveness error: released trees have an
    /// empty arena).
    fn node(&self, id: ViewId) -> Option<&ViewNode> {
        self.nodes.get(id.raw() as usize).and_then(Option::as_ref)
    }

    /// Mutable lookup for this crate's structural bookkeeping and the
    /// inflater; same errors as [`ViewTree::view`]. A caller that writes
    /// attributes or save flags through it must call
    /// [`ViewTree::refresh_stateful`] afterwards.
    pub(crate) fn node_mut(&mut self, id: ViewId) -> Result<&mut ViewNode, ViewError> {
        self.check_alive(id)?;
        self.nodes
            .get_mut(id.raw() as usize)
            .and_then(Option::as_mut)
            .ok_or(ViewError::UnknownView(id))
    }

    /// Re-checks one view against the saved-state predicate and updates
    /// the stateful set. Every write to a view's attributes or save flags
    /// ends here.
    pub(crate) fn refresh_stateful(&mut self, id: ViewId) {
        let stateful = self.node(id).is_some_and(ViewNode::has_saved_state);
        mark_stateful(&mut self.stateful, id, stateful);
    }

    /// Rewrites a view's attributes with `edit` and records **no**
    /// invalidation: the write path for restores and copies, which must
    /// not look like an app update to lazy migration. App-visible updates
    /// go through [`ViewTree::apply`] instead.
    ///
    /// # Errors
    ///
    /// The liveness errors of [`ViewTree::view`]; `edit` does not run.
    pub fn edit_attrs(
        &mut self,
        id: ViewId,
        edit: impl FnOnce(&mut ViewAttrs),
    ) -> Result<(), ViewError> {
        edit(&mut self.node_mut(id)?.attrs);
        self.refresh_stateful(id);
        Ok(())
    }

    /// Sets whether a view takes part in hierarchy save/restore: `false`
    /// models a custom view that does not implement
    /// `onSaveInstanceState` (see [`ViewNode::saves_state`]).
    ///
    /// # Errors
    ///
    /// The liveness errors of [`ViewTree::view`].
    pub fn set_saves_state(&mut self, id: ViewId, saves_state: bool) -> Result<(), ViewError> {
        self.node_mut(id)?.saves_state = saves_state;
        self.refresh_stateful(id);
        Ok(())
    }

    /// Sets Android's `freezesText` on a view: whether its text is user
    /// state (see [`ViewNode::freezes_text`]).
    ///
    /// # Errors
    ///
    /// The liveness errors of [`ViewTree::view`].
    pub fn set_freezes_text(&mut self, id: ViewId, freezes_text: bool) -> Result<(), ViewError> {
        self.node_mut(id)?.freezes_text = freezes_text;
        self.refresh_stateful(id);
        Ok(())
    }

    /// Adds a view under `parent`.
    ///
    /// # Errors
    ///
    /// [`ViewError::NotAContainer`] if `parent` cannot hold children, plus
    /// the usual liveness errors.
    pub fn add_view(
        &mut self,
        parent: ViewId,
        kind: ViewKind,
        id_name: Option<&str>,
    ) -> Result<ViewId, ViewError> {
        self.add_interned_view(parent, kind, id_name.map(Symbol::intern))
    }

    /// [`ViewTree::add_view`] with the id name already interned: the
    /// inflater passes each layout node's symbol straight through.
    pub(crate) fn add_interned_view(
        &mut self,
        parent: ViewId,
        kind: ViewKind,
        id_name: Option<Symbol>,
    ) -> Result<ViewId, ViewError> {
        let parent_node = self.view(parent)?;
        if !parent_node.kind.is_container() {
            return Err(ViewError::NotAContainer { parent });
        }
        let id = ViewId::new(self.nodes.len() as u64);
        let freezes_text = kind.is_editable();
        self.nodes.push(Some(ViewNode {
            id,
            id_name,
            kind,
            attrs: ViewAttrs::new(),
            parent: Some(parent),
            children: Vec::new(),
            sunny_peer: None,
            saves_state: true,
            freezes_text,
        }));
        self.live += 1;
        if let Some(name) = id_name {
            // New ids are strictly increasing, so the first bearer stays
            // the lowest; later bearers queue in the shadowed list, which
            // stays sorted because appends only ever add larger ids.
            match self.id_name_index.entry(name) {
                Entry::Vacant(e) => {
                    e.insert(id);
                }
                Entry::Occupied(_) => self.shadowed_ids.entry(name).or_default().push(id),
            }
        }
        self.node_mut(parent)?.children.push(id);
        Ok(id)
    }

    /// Removes a view and its whole subtree. Removing the decor view is
    /// not allowed.
    ///
    /// # Errors
    ///
    /// Liveness errors; [`ViewError::InapplicableOp`] when targeting the
    /// decor view.
    pub fn remove_view(&mut self, id: ViewId) -> Result<(), ViewError> {
        if id == self.root {
            return Err(ViewError::InapplicableOp {
                view: id,
                op: "removeView(decor)",
            });
        }
        let parent = self.view(id)?.parent;
        let mut stack = vec![id];
        let mut removed_names: Vec<(Symbol, ViewId)> = Vec::new();
        while let Some(current) = stack.pop() {
            if let Some(node) = self
                .nodes
                .get_mut(current.raw() as usize)
                .and_then(Option::take)
            {
                self.live -= 1;
                self.stateful.remove(&current);
                if let Some(name) = node.id_name {
                    removed_names.push((name, node.id));
                }
                stack.extend(node.children);
            }
        }
        for (name, removed_id) in removed_names {
            if self.id_name_index.get(&name) == Some(&removed_id) {
                // The indexed occurrence left the tree; promote the
                // lowest shadowed bearer — O(shadowed) bookkeeping
                // instead of the old full arena rescan.
                match self.shadowed_ids.get_mut(&name) {
                    Some(shadowed) if !shadowed.is_empty() => {
                        let next = shadowed.remove(0);
                        if shadowed.is_empty() {
                            self.shadowed_ids.remove(&name);
                        }
                        self.id_name_index.insert(name, next);
                    }
                    _ => {
                        self.shadowed_ids.remove(&name);
                        self.id_name_index.remove(&name);
                    }
                }
            } else if let Some(shadowed) = self.shadowed_ids.get_mut(&name) {
                if let Some(pos) = shadowed.iter().position(|&v| v == removed_id) {
                    shadowed.remove(pos);
                }
                if shadowed.is_empty() {
                    self.shadowed_ids.remove(&name);
                }
            }
        }
        if let Some(parent) = parent {
            if let Ok(p) = self.node_mut(parent) {
                p.children.retain(|&c| c != id);
            }
        }
        Ok(())
    }

    /// Number of live duplicate-name bearers currently shadowed by a
    /// lower-id view. Exposed so the property tests can check the
    /// removal bookkeeping against the arena.
    pub fn shadowed_duplicate_count(&self) -> usize {
        self.shadowed_ids.values().map(Vec::len).sum()
    }

    /// Applies a mutation and records an invalidation (the generic update
    /// step that any view change funnels through), then re-checks the
    /// view's saved state.
    ///
    /// # Errors
    ///
    /// Liveness errors; [`ViewError::InapplicableOp`] when the op does not
    /// fit the view's migration class.
    pub fn apply(&mut self, id: ViewId, op: ViewOp) -> Result<(), ViewError> {
        let dirty = op.dirty_bit();
        let node = self.node_mut(id)?;
        let class = node.kind.migration_class();
        if !op.applies_to(class) {
            return Err(ViewError::InapplicableOp {
                view: id,
                op: op.name(),
            });
        }
        match op {
            ViewOp::SetText(t) => node.attrs.text = Some(t),
            ViewOp::SetDrawable(name, bytes) => node.attrs.drawable = Some((name, bytes)),
            ViewOp::SetSelection(p) => node.attrs.selector_position = Some(p),
            ViewOp::SetItemChecked(item, checked) => {
                if checked {
                    if !node.attrs.checked_items.contains(&item) {
                        node.attrs.checked_items.push(item);
                        node.attrs.checked_items.sort_unstable();
                    }
                } else {
                    node.attrs.checked_items.retain(|&i| i != item);
                }
            }
            ViewOp::ScrollTo(y) => node.attrs.scroll_y = y,
            ViewOp::SetVideoUri(u) => node.attrs.video_uri = Some(u),
            ViewOp::SetProgress(p) => node.attrs.progress = Some(p),
            ViewOp::SetChecked(c) => node.attrs.checked = Some(c),
            ViewOp::SetEnabled(e) => node.attrs.enabled = e,
            ViewOp::SetVisible(v) => node.attrs.visible = v,
        }
        self.refresh_stateful(id);
        self.invalidate_attrs(id, dirty)?;
        Ok(())
    }

    /// Marks a view dirty. In stock Android this schedules a redraw; the
    /// paper's patch modifies exactly this function to catch updates for
    /// lazy migration, so the simulator records each invalidation for a
    /// change handler to drain.
    ///
    /// A bare `invalidate` carries no information about *what* changed,
    /// so it conservatively marks every attribute dirty. Mutations routed
    /// through [`ViewTree::apply`] record the precise bit instead.
    pub fn invalidate(&mut self, id: ViewId) -> Result<(), ViewError> {
        self.invalidate_attrs(id, DirtyMask::all())
    }

    /// Marks a view dirty for a known set of attributes. Coalescing
    /// happens here, at insert time: a repeat invalidation ORs into the
    /// view's existing entry, so draining is a plain sweep.
    pub fn invalidate_attrs(&mut self, id: ViewId, dirty: DirtyMask) -> Result<(), ViewError> {
        self.view(id)?;
        self.raw_pending += 1;
        match self.pending_pos.entry(id) {
            Entry::Occupied(e) => {
                let entry = &mut self.pending[*e.get()];
                entry.1 |= dirty;
                entry.2 += 1;
            }
            Entry::Vacant(e) => {
                e.insert(self.pending.len());
                self.pending.push((id, dirty, 1));
            }
        }
        Ok(())
    }

    /// Drains the invalidations recorded since the last drain, in order,
    /// de-duplicated (a view invalidated twice migrates once).
    pub fn drain_invalidations(&mut self) -> Vec<ViewId> {
        self.drain_dirty().into_iter().map(|(id, _)| id).collect()
    }

    /// Drains pending invalidations together with the coalesced dirty
    /// mask of each view: first-invalidation order, one entry per view,
    /// masks OR-ed across all of the view's invalidations.
    pub fn drain_dirty(&mut self) -> Vec<(ViewId, DirtyMask)> {
        self.drain_dirty_counted()
            .into_iter()
            .map(|(id, mask, _)| (id, mask))
            .collect()
    }

    /// Like [`ViewTree::drain_dirty`], but each entry also carries the
    /// number of raw invalidations that coalesced into it — what the
    /// migration engine's coalesce-ratio accounting counts.
    pub fn drain_dirty_counted(&mut self) -> Vec<(ViewId, DirtyMask, usize)> {
        alloc_track::note(1);
        self.pending_pos.clear();
        self.raw_pending = 0;
        self.pending.drain(..).collect()
    }

    /// Zero-allocation drain: streams each coalesced `(view, mask, raw
    /// count)` entry into `f` in first-invalidation order and resets the
    /// pending state, keeping buffer capacity for the next frame. This
    /// is the migration engine's hot path;
    /// [`ViewTree::drain_dirty_counted`] is the allocating convenience
    /// wrapper.
    pub fn drain_dirty_with(&mut self, mut f: impl FnMut(ViewId, DirtyMask, usize)) {
        self.pending_pos.clear();
        self.raw_pending = 0;
        for (id, mask, count) in self.pending.drain(..) {
            f(id, mask, count);
        }
    }

    /// Raw (uncoalesced) number of invalidations recorded since the last
    /// drain.
    pub fn pending_invalidation_count(&self) -> usize {
        self.raw_pending
    }

    /// Number of distinct views with pending invalidations — the size a
    /// drained batch would have.
    pub fn pending_dirty_views(&self) -> usize {
        self.pending.len()
    }

    /// Pre-order traversal of live view ids, materialised as a vector.
    /// Allocates; hot paths use [`ViewTree::for_each_id`] instead.
    pub fn iter_ids(&self) -> Vec<ViewId> {
        alloc_track::note(1);
        let mut out = Vec::with_capacity(self.nodes.len());
        self.for_each_id(|id| out.push(id));
        out
    }

    /// Pre-order traversal of live view ids without materialising an id
    /// list: the ids stream through `f` while the DFS runs on this
    /// thread's reusable scratch stack.
    pub fn for_each_id(&self, mut f: impl FnMut(ViewId)) {
        self.for_each_node(|node| f(node.id));
    }

    /// Pre-order traversal of live views, like [`ViewTree::for_each_id`]
    /// but handing out each node the walk already resolved, so a visitor
    /// that reads attributes pays no second lookup.
    fn for_each_node(&self, mut f: impl FnMut(&ViewNode)) {
        let mut visited = 0;
        with_scratch_stack(|stack| {
            stack.push(self.root);
            while let Some(id) = stack.pop() {
                if let Some(node) = self.node(id) {
                    visited += 1;
                    f(node);
                    for &child in node.children.iter().rev() {
                        stack.push(child);
                    }
                }
            }
        });
        note_visits(visited);
    }

    /// Number of live views (0 once released). O(1): a counter kept by
    /// add, remove and release.
    pub fn view_count(&self) -> usize {
        self.live
    }

    /// Finds a view by its `android:id` name — an O(1) lookup against the
    /// cached index (lowest live view id wins for duplicate names).
    pub fn find_by_id_name(&self, id_name: &str) -> Option<ViewId> {
        // `lookup` (not `intern`) so probing with arbitrary strings never
        // grows the global symbol table.
        let sym = Symbol::lookup(id_name)?;
        self.id_name_index.get(&sym).copied()
    }

    /// Total *simulated* heap footprint of the hierarchy in bytes: the ART
    /// cost model, which charges every drawable at its decoded size.
    pub fn heap_bytes(&self) -> u64 {
        self.nodes.iter().flatten().map(ViewNode::heap_bytes).sum()
    }

    /// What the tree really occupies in this process's memory: the arena
    /// at its capacity, plus the strings and child lists the live views
    /// own. Caches weigh trees with this; [`ViewTree::heap_bytes`] is the
    /// simulated device heap and overstates a tree with drawables by
    /// orders of magnitude.
    pub fn resident_bytes(&self) -> u64 {
        let arena = self.nodes.capacity() * std::mem::size_of::<Option<ViewNode>>();
        let owned: u64 = self
            .nodes
            .iter()
            .flatten()
            .map(|n| {
                (n.children.capacity() * std::mem::size_of::<ViewId>()) as u64
                    + n.attrs.owned_bytes()
            })
            .sum();
        arena as u64 + owned
    }

    /// Saves the hierarchy state: for every view *with an id name*, its
    /// user state goes into the bundle under `view:{id_name}`. Views
    /// without ids are skipped — exactly Android's (lossy) contract — and
    /// so are views that skip the protocol or hold no user state. When
    /// several views share a name, the last one in pre-order that has
    /// state wins.
    ///
    /// The save visits only the tree's stateful views, the ones those
    /// rules keep, so it costs the views that hold state and not the
    /// tree. The bundle is a sorted map, so the visiting order matters
    /// only for a name with several live bearers: there the stateful
    /// bearers are ranked in pre-order by their ancestor chains, with no
    /// walk.
    pub fn save_hierarchy_state(&self) -> Bundle {
        let mut out = Bundle::new();
        // Names with several live bearers, each with the stateful bearer
        // that comes last in pre-order so far.
        let mut contested: Vec<(Symbol, ViewId)> = Vec::new();
        for &id in &self.stateful {
            let Some(node) = self.node(id) else { continue };
            match node.id_name {
                Some(name) if self.shadowed_ids.contains_key(&name) => {
                    match contested.iter_mut().find(|(n, _)| *n == name) {
                        Some((_, last)) if self.precedes(*last, id) => *last = id,
                        Some(_) => {}
                        None => contested.push((name, id)),
                    }
                }
                _ => {
                    if let Some((name, state)) = node.saved_state() {
                        out.put_bundle(name.hierarchy_key(), state);
                    }
                }
            }
        }
        for (_, id) in contested {
            if let Some((name, state)) = self.node(id).and_then(ViewNode::saved_state) {
                out.put_bundle(name.hierarchy_key(), state);
            }
        }
        note_visits(self.stateful.len());
        out
    }

    /// Whether live view `a` comes before live view `b` in pre-order,
    /// read off their ancestor chains instead of a walk: an ancestor
    /// precedes its descendants, and otherwise the one under the earlier
    /// child of the deepest shared ancestor comes first.
    fn precedes(&self, a: ViewId, b: ViewId) -> bool {
        let (path_a, path_b) = (self.root_path(a), self.root_path(b));
        let shared = path_a
            .iter()
            .zip(&path_b)
            .take_while(|(x, y)| x == y)
            .count();
        match (path_a.get(shared), path_b.get(shared)) {
            (Some(child_a), Some(child_b)) => {
                let siblings = shared
                    .checked_sub(1)
                    .and_then(|i| self.node(path_a[i]))
                    .map_or(&[][..], |n| n.children.as_slice());
                let rank = |child: &ViewId| siblings.iter().position(|c| c == child);
                rank(child_a) < rank(child_b)
            }
            // One chain is a prefix of the other: the shorter one ends at
            // the ancestor.
            (first_a, _) => first_a.is_none(),
        }
    }

    /// The chain of views from the decor view down to `id`.
    fn root_path(&self, id: ViewId) -> Vec<ViewId> {
        let mut path = vec![id];
        while let Some(parent) = path
            .last()
            .and_then(|&v| self.node(v))
            .and_then(|n| n.parent)
        {
            path.push(parent);
        }
        path.reverse();
        note_visits(path.len());
        path
    }

    /// Restores state previously produced by
    /// [`ViewTree::save_hierarchy_state`], matching views by id name.
    /// Unknown names are ignored (the new layout may not contain them).
    ///
    /// Driven by the saved entries, not by the tree: each `view:{name}`
    /// entry goes to [`ViewTree::restore_user_state_of`], so the cost
    /// follows the number of saved views rather than the size of the
    /// tree.
    pub fn restore_hierarchy_state(&mut self, state: &Bundle) {
        if self.released {
            return;
        }
        for (key, value) in state.iter() {
            let Value::Nested(saved) = value else {
                continue;
            };
            if let Some(name) = Symbol::from_hierarchy_key(key) {
                self.restore_user_state_of(name, saved);
            }
        }
    }

    /// Restores a [`ViewAttrs::user_state`] bundle onto every live view
    /// named `name`: the indexed bearer and each shadowed duplicate, found
    /// through the id-name index without walking the tree. An unknown name
    /// (or a released tree) is a no-op.
    pub fn restore_user_state_of(&mut self, name: Symbol, state: &Bundle) {
        let Some(&first) = self.id_name_index.get(&name) else {
            return;
        };
        let shadowed = self.shadowed_ids.get(&name).map_or(&[][..], Vec::as_slice);
        for id in std::iter::once(first).chain(shadowed.iter().copied()) {
            if let Some(node) = self
                .nodes
                .get_mut(id.raw() as usize)
                .and_then(Option::as_mut)
            {
                node.attrs.restore_user_state(state);
                mark_stateful(&mut self.stateful, id, node.has_saved_state());
            }
        }
    }

    // ---- RCHDroid hook points (Table 2 patch surface) ----

    /// Whether the tree is in the Shadow state.
    pub fn is_shadow(&self) -> bool {
        self.shadow
    }

    /// Whether the tree is in the Sunny state.
    pub fn is_sunny(&self) -> bool {
        self.sunny
    }

    /// `ViewGroup.dispatchShadowStateChanged`: flips the shadow flag for
    /// the whole tree.
    pub fn dispatch_shadow_state_changed(&mut self, shadow: bool) {
        self.shadow = shadow;
        if shadow {
            self.sunny = false;
        }
    }

    /// `ViewGroup.dispatchSunnyStateChanged`: flips the sunny flag for the
    /// whole tree.
    pub fn dispatch_sunny_state_changed(&mut self, sunny: bool) {
        self.sunny = sunny;
        if sunny {
            self.shadow = false;
        }
    }

    /// `Activity.getAllSunnyViews`: the hash table of id name → view id
    /// for this tree (the first half of the essence-based mapping).
    ///
    /// The index is cached and maintained incrementally on structural ops,
    /// so a coupling build or flush no longer re-traverses the tree or
    /// clones any strings. For duplicate names the lowest live view id
    /// wins, matching [`ViewTree::find_by_id_name`].
    pub fn id_name_index(&self) -> &HashMap<Symbol, ViewId> {
        &self.id_name_index
    }

    /// Rebuilds the id-name index from scratch by scanning the arena.
    /// The cached [`ViewTree::id_name_index`] must always equal this;
    /// exposed so tests can check the invariant.
    pub fn rebuild_id_name_index(&self) -> HashMap<Symbol, ViewId> {
        let mut index = HashMap::new();
        for node in self.nodes.iter().flatten() {
            if let Some(name) = node.id_name {
                index.entry(name).or_insert(node.id);
            }
        }
        index
    }

    /// `Activity.setSunnyViews`: stores sunny-peer pointers on this
    /// (shadow) tree by looking up each view's id name in a sunny tree's
    /// index. Returns how many views were mapped.
    pub fn set_sunny_peers(&mut self, sunny_index: &HashMap<Symbol, ViewId>) -> usize {
        if self.released {
            return 0;
        }
        let (mut visited, mut mapped) = (0, 0);
        with_scratch_stack(|stack| {
            stack.push(self.root);
            while let Some(id) = stack.pop() {
                let Some(node) = self
                    .nodes
                    .get_mut(id.raw() as usize)
                    .and_then(Option::as_mut)
                else {
                    continue;
                };
                visited += 1;
                for &child in node.children.iter().rev() {
                    stack.push(child);
                }
                node.sunny_peer = node.id_name.and_then(|n| sunny_index.get(&n)).copied();
                if node.sunny_peer.is_some() {
                    mapped += 1;
                }
            }
        });
        note_visits(visited);
        mapped
    }

    /// Clears every sunny-peer pointer (used when the coupling is broken,
    /// e.g. the shadow activity is garbage collected).
    pub fn clear_sunny_peers(&mut self) {
        for node in self.nodes.iter_mut().flatten() {
            node.sunny_peer = None;
        }
    }
}

impl Default for ViewTree {
    fn default() -> Self {
        ViewTree::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree_with_views() -> (ViewTree, ViewId, ViewId, ViewId) {
        let mut t = ViewTree::new();
        let panel = t
            .add_view(t.root(), ViewKind::LinearLayout, Some("panel"))
            .unwrap();
        let text = t.add_view(panel, ViewKind::EditText, Some("name")).unwrap();
        let image = t.add_view(panel, ViewKind::ImageView, None).unwrap();
        (t, panel, text, image)
    }

    #[test]
    fn structure_is_navigable() {
        let (t, panel, text, image) = tree_with_views();
        assert_eq!(t.view_count(), 4);
        assert_eq!(t.view(text).unwrap().parent, Some(panel));
        assert_eq!(t.view(panel).unwrap().children, vec![text, image]);
        assert_eq!(t.iter_ids(), vec![t.root(), panel, text, image]);
    }

    #[test]
    fn leaf_views_reject_children() {
        let (mut t, _, text, _) = tree_with_views();
        let err = t.add_view(text, ViewKind::TextView, None).unwrap_err();
        assert_eq!(err, ViewError::NotAContainer { parent: text });
        assert_eq!(t.view_count(), 4, "a failed add leaves the count alone");
    }

    #[test]
    fn remove_view_drops_subtree() {
        let (mut t, panel, _, _) = tree_with_views();
        t.remove_view(panel).unwrap();
        assert_eq!(t.view_count(), 1);
        assert!(t.view(panel).is_err());
    }

    #[test]
    fn decor_view_cannot_be_removed() {
        let (mut t, ..) = tree_with_views();
        assert!(t.remove_view(t.root()).is_err());
    }

    #[test]
    fn apply_updates_attrs_and_invalidates() {
        let (mut t, _, text, _) = tree_with_views();
        t.apply(text, ViewOp::SetText("alice".into())).unwrap();
        assert_eq!(t.view(text).unwrap().attrs.text.as_deref(), Some("alice"));
        assert_eq!(t.drain_invalidations(), vec![text]);
        assert!(t.drain_invalidations().is_empty(), "drain consumes");
    }

    #[test]
    fn duplicate_invalidations_dedupe() {
        let (mut t, _, text, image) = tree_with_views();
        t.apply(text, ViewOp::SetText("a".into())).unwrap();
        t.apply(image, ViewOp::SetDrawable("x.png".into(), 10))
            .unwrap();
        t.apply(text, ViewOp::SetText("b".into())).unwrap();
        assert_eq!(t.drain_invalidations(), vec![text, image]);
    }

    #[test]
    fn drain_dirty_coalesces_masks_per_view() {
        let (mut t, _, text, image) = tree_with_views();
        t.apply(text, ViewOp::SetText("a".into())).unwrap();
        t.apply(text, ViewOp::SetEnabled(false)).unwrap();
        t.apply(image, ViewOp::SetDrawable("x.png".into(), 10))
            .unwrap();
        t.apply(text, ViewOp::SetText("b".into())).unwrap();
        assert_eq!(t.pending_invalidation_count(), 4);
        assert_eq!(t.pending_dirty_views(), 2);
        let drained = t.drain_dirty();
        assert_eq!(
            drained,
            vec![
                (text, DirtyMask::TEXT | DirtyMask::ENABLED),
                (image, DirtyMask::DRAWABLE),
            ]
        );
        assert!(t.drain_dirty().is_empty(), "drain consumes");
        assert_eq!(t.pending_invalidation_count(), 0);
    }

    #[test]
    fn bare_invalidate_marks_all_attrs() {
        let (mut t, _, text, _) = tree_with_views();
        t.invalidate(text).unwrap();
        assert_eq!(t.drain_dirty(), vec![(text, DirtyMask::all())]);
    }

    #[test]
    fn release_discards_pending_dirty_state() {
        let (mut t, _, text, _) = tree_with_views();
        t.apply(text, ViewOp::SetText("a".into())).unwrap();
        t.release();
        assert_eq!(t.pending_dirty_views(), 0);
        assert_eq!(t.pending_invalidation_count(), 0);
    }

    #[test]
    fn inapplicable_op_is_rejected() {
        let (mut t, _, text, _) = tree_with_views();
        let err = t.apply(text, ViewOp::SetProgress(10)).unwrap_err();
        assert_eq!(
            err,
            ViewError::InapplicableOp {
                view: text,
                op: "setProgress"
            }
        );
    }

    #[test]
    fn released_tree_raises_null_pointer() {
        let (mut t, _, text, _) = tree_with_views();
        t.release();
        let err = t.apply(text, ViewOp::SetText("boom".into())).unwrap_err();
        assert!(err.is_crash());
        assert!(t.view(text).is_err());
    }

    #[test]
    fn release_frees_the_arena() {
        let (mut t, panel, ..) = tree_with_views();
        t.add_view(panel, ViewKind::EditText, Some("name")).unwrap();
        let root = t.root();
        t.release();
        assert_eq!(t.root(), root, "the decor id survives for crash reports");
        assert_eq!(t.view_count(), 0);
        assert_eq!(t.heap_bytes(), 0);
        assert_eq!(t.resident_bytes(), 0);
        assert_eq!(t.find_by_id_name("name"), None);
        assert!(t.id_name_index().is_empty());
        assert_eq!(t.shadowed_duplicate_count(), 0);
        assert!(t.iter_ids().is_empty());
        assert!(t.save_hierarchy_state().is_empty());
    }

    #[test]
    fn duplicate_names_save_the_last_bearer_in_pre_order() {
        let mut t = ViewTree::new();
        let first = t.add_view(t.root(), ViewKind::LinearLayout, None).unwrap();
        let second = t.add_view(t.root(), ViewKind::LinearLayout, None).unwrap();
        // Ids run against pre-order: the later id comes first in the walk.
        let late = t.add_view(second, ViewKind::EditText, Some("dup")).unwrap();
        let early = t.add_view(first, ViewKind::EditText, Some("dup")).unwrap();
        t.apply(late, ViewOp::SetText("last in pre-order".into()))
            .unwrap();
        t.apply(early, ViewOp::SetText("first in pre-order".into()))
            .unwrap();
        let saved = t.save_hierarchy_state();
        let dup = saved.bundle("view:dup").unwrap();
        assert_eq!(dup.string("text"), Some("last in pre-order"));
    }

    #[test]
    fn an_ancestor_loses_a_duplicate_name_to_its_descendant() {
        let mut t = ViewTree::new();
        let outer = t
            .add_view(t.root(), ViewKind::ScrollView, Some("dup"))
            .unwrap();
        let inner = t.add_view(outer, ViewKind::ListView, Some("dup")).unwrap();
        let field = t.add_view(inner, ViewKind::EditText, Some("dup")).unwrap();
        t.apply(field, ViewOp::SetText("leaf".into())).unwrap();
        t.apply(inner, ViewOp::ScrollTo(3)).unwrap();
        t.apply(outer, ViewOp::ScrollTo(7)).unwrap();
        let dup = t.save_hierarchy_state();
        assert_eq!(dup.bundle("view:dup").unwrap().string("text"), Some("leaf"));
        // The leaf goes stateless: its parent is the last stateful bearer.
        t.set_freezes_text(field, false).unwrap();
        let dup = t.save_hierarchy_state();
        assert_eq!(dup.bundle("view:dup").unwrap().i32("scroll_y"), Some(3));
    }

    #[test]
    fn the_save_visits_only_stateful_views() {
        let mut t = ViewTree::new();
        let list = t
            .add_view(t.root(), ViewKind::LinearLayout, Some("list"))
            .unwrap();
        for i in 0..500 {
            t.add_view(list, ViewKind::ImageView, Some(&format!("img{i}")))
                .unwrap();
        }
        let field = t.add_view(list, ViewKind::EditText, Some("field")).unwrap();
        let visits = |t: &ViewTree| {
            let before = views_visited();
            let saved = t.save_hierarchy_state();
            (views_visited() - before, saved.len())
        };
        assert_eq!(visits(&t), (0, 0));
        t.apply(field, ViewOp::SetText("typed".into())).unwrap();
        assert_eq!(visits(&t), (1, 1));
        t.set_saves_state(field, false).unwrap();
        assert_eq!(visits(&t), (0, 0));
        t.set_saves_state(field, true).unwrap();
        t.remove_view(field).unwrap();
        assert_eq!(visits(&t), (0, 0));
        // A walk counts every live view it reaches.
        let before = views_visited();
        t.for_each_id(|_| {});
        assert_eq!(views_visited() - before, 502);
    }

    #[test]
    fn restore_reaches_every_bearer_of_a_duplicate_name() {
        let (mut t, panel, text, _) = tree_with_views();
        let dup = t.add_view(panel, ViewKind::EditText, Some("name")).unwrap();
        let mut state = Bundle::new();
        state.put_string("text", "restored");
        let mut saved = Bundle::new();
        saved.put_bundle("view:name", state);
        saved.put_i32("view:panel", 7); // not a view bundle: ignored
        t.restore_hierarchy_state(&saved);
        for id in [text, dup] {
            assert_eq!(t.view(id).unwrap().attrs.text.as_deref(), Some("restored"));
        }
        assert_eq!(t.view(panel).unwrap().attrs, ViewAttrs::new());
    }

    #[test]
    fn resident_bytes_weigh_the_arena_not_decoded_drawables() {
        let mut t = ViewTree::new();
        let root = t
            .add_view(t.root(), ViewKind::LinearLayout, Some("root"))
            .unwrap();
        for i in 0..2046 {
            let v = t
                .add_view(root, ViewKind::ImageView, Some(&format!("v{i}")))
                .unwrap();
            t.apply(
                v,
                ViewOp::SetDrawable(Symbol::intern(&format!("img_{i}.png")), 1 << 20),
            )
            .unwrap();
        }
        let views = t.view_count() as u64;
        assert_eq!(views, 2048);
        let node = std::mem::size_of::<Option<ViewNode>>() as u64;
        let resident = t.resident_bytes();
        // The arena alone, at most doubled by growth, plus the root's
        // child list and a short asset name per view.
        assert!(resident >= views * node, "{resident}");
        assert!(
            resident <= 2 * views * (node + 8) + views * 32,
            "{resident}"
        );
        // The simulated heap charges every drawable at 1 MiB decoded.
        assert!(t.heap_bytes() > 2046 << 20);
        assert!(resident * 100 < t.heap_bytes());
    }

    #[test]
    fn hierarchy_state_round_trips_by_id_name() {
        let (mut t, ..) = tree_with_views();
        let text = t.find_by_id_name("name").unwrap();
        t.apply(text, ViewOp::SetText("draft".into())).unwrap();
        let state = t.save_hierarchy_state();

        // Fresh inflation of "the same layout" (same id names).
        let (mut t2, ..) = tree_with_views();
        t2.restore_hierarchy_state(&state);
        let text2 = t2.find_by_id_name("name").unwrap();
        assert_eq!(t2.view(text2).unwrap().attrs.text.as_deref(), Some("draft"));
    }

    #[test]
    fn custom_views_without_save_impl_lose_state() {
        let mut t = ViewTree::new();
        let broken = t
            .add_view(
                t.root(),
                ViewKind::from_class_name("com.app.BrokenEditText"),
                Some("field"),
            )
            .unwrap();
        t.set_saves_state(broken, false).unwrap();
        t.apply(broken, ViewOp::SetText("typed".into())).unwrap();
        let state = t.save_hierarchy_state();
        assert!(
            state.bundle("view:field").is_none(),
            "skipped from the bundle"
        );
    }

    #[test]
    fn views_without_ids_lose_state() {
        let (mut t, _, _, image) = tree_with_views();
        t.apply(image, ViewOp::SetDrawable("hero.png".into(), 100))
            .unwrap();
        // ImageView has no id and its drawable is content anyway: nothing
        // saved under any anonymous key.
        let state = t.save_hierarchy_state();
        assert!(
            state.iter().all(|(k, _)| k != "view:"),
            "no anonymous entries"
        );
    }

    #[test]
    fn sunny_peer_mapping_by_id_name() {
        let (mut shadow, ..) = tree_with_views();
        let (sunny, ..) = tree_with_views();
        let index = sunny.id_name_index();
        let mapped = shadow.set_sunny_peers(index);
        // decor + panel + name have ids → 3 mapped; anonymous image not.
        assert_eq!(mapped, 3);
        let name_view = shadow.find_by_id_name("name").unwrap();
        let peer = shadow.view(name_view).unwrap().sunny_peer.unwrap();
        assert_eq!(peer, sunny.find_by_id_name("name").unwrap());
        shadow.clear_sunny_peers();
        assert!(shadow.view(name_view).unwrap().sunny_peer.is_none());
    }

    #[test]
    fn shadow_sunny_dispatch_is_exclusive() {
        let (mut t, ..) = tree_with_views();
        t.dispatch_sunny_state_changed(true);
        assert!(t.is_sunny() && !t.is_shadow());
        t.dispatch_shadow_state_changed(true);
        assert!(t.is_shadow() && !t.is_sunny());
    }

    #[test]
    fn heap_grows_with_drawables() {
        let (mut t, _, _, image) = tree_with_views();
        let before = t.heap_bytes();
        t.apply(image, ViewOp::SetDrawable("big.png".into(), 1 << 20))
            .unwrap();
        assert!(t.heap_bytes() > before + (1 << 20) - 1);
    }

    #[test]
    fn cached_index_tracks_structural_ops() {
        let (mut t, panel, text, _) = tree_with_views();
        assert_eq!(*t.id_name_index(), t.rebuild_id_name_index());
        assert_eq!(t.id_name_index().len(), 3); // decor, panel, name

        // A duplicate name indexes the lowest id; removing it falls back
        // to the survivor.
        let dup = t.add_view(panel, ViewKind::TextView, Some("name")).unwrap();
        assert_eq!(t.find_by_id_name("name"), Some(text));
        assert_eq!(*t.id_name_index(), t.rebuild_id_name_index());
        t.remove_view(text).unwrap();
        assert_eq!(t.find_by_id_name("name"), Some(dup));
        assert_eq!(*t.id_name_index(), t.rebuild_id_name_index());

        // Subtree removal drops every indexed name underneath.
        t.remove_view(panel).unwrap();
        assert_eq!(t.find_by_id_name("name"), None);
        assert_eq!(t.find_by_id_name("panel"), None);
        assert_eq!(*t.id_name_index(), t.rebuild_id_name_index());
        assert_eq!(t.id_name_index().len(), 1); // decor remains
    }

    #[test]
    fn checked_items_toggle() {
        let mut t = ViewTree::new();
        let list = t
            .add_view(t.root(), ViewKind::ListView, Some("list"))
            .unwrap();
        t.apply(list, ViewOp::SetItemChecked(4, true)).unwrap();
        t.apply(list, ViewOp::SetItemChecked(2, true)).unwrap();
        t.apply(list, ViewOp::SetItemChecked(4, true)).unwrap();
        assert_eq!(t.view(list).unwrap().attrs.checked_items, vec![2, 4]);
        t.apply(list, ViewOp::SetItemChecked(2, false)).unwrap();
        assert_eq!(t.view(list).unwrap().attrs.checked_items, vec![4]);
    }
}
