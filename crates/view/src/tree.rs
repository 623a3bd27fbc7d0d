//! The view-tree arena.
//!
//! A [`ViewTree`] is the per-activity hierarchy rooted at a decor view.
//! Besides the stock Android behaviour (structure, attribute mutation via
//! [`ViewOp`], hierarchy state save/restore, invalidation), the tree also
//! carries the *hook points* the paper's patch adds to `View`/`ViewGroup`
//! (Table 2): each view's **sunny peer** (81+79 LoC of the patch), read
//! off the coupled tree's id-name index ([`ViewTree::peer_in`]), and
//! shadow/sunny dispatch along the tree (12 LoC in `ViewGroup`).
//! The hooks are inert unless a change handler uses them, so with no
//! handler installed the tree behaves exactly like stock Android 10.
//!
//! # Writes go through the tree
//!
//! Views are read through [`ViewTree::view`], but nothing outside this
//! crate gets a `&mut ViewNode`: a view's attributes and save flags
//! change only through [`ViewTree::apply`], [`ViewTree::edit_attrs`],
//! [`ViewTree::set_saves_state`], [`ViewTree::set_freezes_text`] and the
//! restore paths, and its name, parent and children only through the
//! structural ops. Every write re-checks the one view it touched
//! against the saved-state predicate, so the tree always knows its
//! *stateful* views — the live views whose hierarchy state is non-empty
//! — without looking. [`ViewTree::save_hierarchy_state`] visits only
//! those, which makes the snapshot every configuration change takes
//! (the coin flip included) cost the stateful views, not the tree. The
//! set is a function of the tree's content, so the derived `PartialEq`
//! is still content equality.
//!
//! A write also unshares the view's chunk. After [`ViewTree::share`]
//! the views sit behind a reference count that every clone shares, and
//! the first write to a view through any tree method copies that view's
//! chunk of 32 views for the tree it wrote (the `arena` module has the
//! layout). Because nothing else holds a `&mut ViewNode`, no caller can
//! write into a chunk another tree still reads, and a clone of a shared
//! tree costs its chunks, not its views. A sunny peer is looked up, not
//! stored, so RCHDroid's mapping writes no view.
//!
//! # Kept structures
//!
//! Clones share the id-name index as they share the views
//! ([`NameIndex`]): while another tree still holds the same map, the
//! names a tree adds go to an owned overlay, so an add never copies the
//! shared map, and a removal copies the part it changes. That index is
//! the paper's essence mapping (§3.3), as it stands when a flush or the
//! init's seeding reads it: an init stores no peer, and a view removed
//! or added after it loses or gains its peer at once.
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

use crate::arena::Arena;
use crate::attrs::ViewAttrs;
use crate::error::ViewError;
use crate::kind::ViewKind;
use crate::ops::ViewOp;
use droidsim_bundle::{Bundle, Value};
use droidsim_kernel::id::IdMap;
use droidsim_kernel::{alloc_track, Symbol};
use std::cell::{Cell, RefCell};
use std::collections::hash_map::{self, Entry};
use std::collections::BTreeSet;
use std::fmt;
use std::rc::Rc;
use std::sync::OnceLock;

thread_local! {
    /// Reusable DFS stack for [`ViewTree::for_each_id`]-style traversals:
    /// each walk used to allocate a fresh id vector.
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
/// it), and the passes of the hierarchy save and of
/// [`ViewTree::state_holders`] over the stateful views (with the
/// ancestor chains they climb to rank a repeated name). A peer lookup
/// ([`ViewTree::peer_in`]) visits none. Snapshot before and after a
/// region and subtract: the difference counts work, not time, so a test
/// can pin how a path scales. Like `alloc_track`, the count is
/// diagnostic and enters no fingerprint.
pub fn views_visited() -> u64 {
    VISITS.with(Cell::get)
}

/// Puts `id` into a tree's set of views holding state or takes it out.
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
#[derive(Debug, Clone, PartialEq)]
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
    /// or holds no user state.
    fn saved_state(&self) -> Option<(Symbol, Bundle)> {
        if !self.saves_state {
            return None; // custom view without onSaveInstanceState
        }
        let name = self.id_name?;
        Some((name, self.attrs.user_state(self.freezes_text)?))
    }

    /// Whether the view has an id name and user state, whether or not it
    /// saves that state, decided by field checks alone: the predicate of
    /// the tree's stateful set. The hierarchy save writes an entry for
    /// exactly the members that save their state.
    fn holds_state(&self) -> bool {
        self.id_name.is_some() && self.attrs.has_user_state(self.freezes_text)
    }
}

/// A tree's `android:id` name index: each name's lowest live bearer.
///
/// A tree's index is shared by its clones. While another tree still
/// holds the same base map, the tree puts the names it adds into an
/// owned overlay instead of copying the base; the two never hold the
/// same name, and lookups read both. A tree that holds its base alone
/// writes it in place. Equality is that of the merged map, whichever
/// part holds a name.
#[derive(Clone, Default)]
pub struct NameIndex {
    /// The map clones share: the whole index of a tree that has no
    /// overlay.
    base: Rc<IdMap<Symbol, ViewId>>,
    /// Names added while `base` was shared that `base` lacks.
    added: IdMap<Symbol, ViewId>,
}

impl NameIndex {
    /// The lowest live bearer of `name`.
    #[inline]
    pub fn get(&self, name: &Symbol) -> Option<&ViewId> {
        match self.base.get(name) {
            Some(id) => Some(id),
            None if self.added.is_empty() => None,
            None => self.added.get(name),
        }
    }

    /// Names indexed.
    pub fn len(&self) -> usize {
        self.base.len() + self.added.len()
    }

    /// Whether no name is indexed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every (name, lowest bearer), in no particular order.
    pub fn iter(&self) -> std::iter::Chain<IndexIter<'_>, IndexIter<'_>> {
        self.base.iter().chain(self.added.iter())
    }

    /// The map that holds `name`, for a removal to update: the overlay
    /// if it has the name, else the base (copied first if shared).
    fn holder_mut(&mut self, name: &Symbol) -> &mut IdMap<Symbol, ViewId> {
        if self.added.contains_key(name) {
            &mut self.added
        } else {
            Rc::make_mut(&mut self.base)
        }
    }
}

/// An iterator over one part of a [`NameIndex`].
pub type IndexIter<'a> = hash_map::Iter<'a, Symbol, ViewId>;

impl<'a> IntoIterator for &'a NameIndex {
    type Item = (&'a Symbol, &'a ViewId);
    type IntoIter = std::iter::Chain<IndexIter<'a>, IndexIter<'a>>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl PartialEq<IdMap<Symbol, ViewId>> for NameIndex {
    fn eq(&self, map: &IdMap<Symbol, ViewId>) -> bool {
        self.len() == map.len() && self.iter().all(|(name, id)| map.get(name) == Some(id))
    }
}

impl PartialEq for NameIndex {
    fn eq(&self, other: &NameIndex) -> bool {
        self.len() == other.len() && self.iter().all(|(name, id)| other.get(name) == Some(id))
    }
}

impl fmt::Debug for NameIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
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
#[derive(Debug, Clone, PartialEq)]
pub struct ViewTree {
    /// The views by id, copy-on-write once [`ViewTree::share`] ran.
    arena: Arena,
    /// Live views in the arena, kept by add, remove and release so
    /// [`ViewTree::view_count`] never scans the arena.
    live: usize,
    root: ViewId,
    released: bool,
    /// Pending invalidations, coalesced *at insert time*: one entry per
    /// dirty view in first-invalidation order, carrying the raw
    /// invalidation count that folded into it. Draining is a linear sweep
    /// over this vector — no per-drain hash map.
    pending: Vec<(ViewId, usize)>,
    /// View → position in `pending`, so a repeat invalidation is an O(1)
    /// in-place count instead of a new entry.
    pending_pos: IdMap<ViewId, usize>,
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
    /// [`ViewTree::remove_view`]) instead of being rebuilt for every
    /// peer lookup. Invariant: always equal to
    /// [`ViewTree::rebuild_id_name_index`] (lowest live view id wins for
    /// duplicate names). Like every map here it is made of [`IdMap`]s:
    /// its keys are interned program names and arena ids, so one
    /// multiply hashes them, and nothing reads its iteration order into
    /// an output. Like the views it is shared by clones; while it is
    /// shared a tree adds names to its overlay, and a removal copies the
    /// shared part.
    id_name_index: NameIndex,
    /// Live duplicate-name bearers *not* currently in the index, per
    /// name, in ascending id order (appends stay sorted because view ids
    /// only grow). Removal promotes the front entry instead of rescanning
    /// the arena, making index maintenance O(shadowed) per removed name.
    shadowed_ids: IdMap<Symbol, Vec<ViewId>>,
    /// The live views with an id name and user state, whether or not
    /// they save it ([`ViewNode::holds_state`]): the only views the
    /// hierarchy save and RCHDroid's seeding visit. A view
    /// [`ViewTree::add_view`] adds holds no state; one the inflater adds
    /// joins the set if its layout attributes give it state.
    stateful: BTreeSet<ViewId>,
}

impl ViewTree {
    /// Creates a tree containing only a decor view.
    pub fn new() -> Self {
        ViewTree::with_capacity(1)
    }

    /// A tree containing only a decor view, with its arena and id-name
    /// index reserved for `views` views (the decor included): the
    /// inflater sizes a tree from its template's node count, so filling
    /// it never reallocates. Capacity is not content: the tree equals
    /// [`ViewTree::new`] given the same adds.
    pub(crate) fn with_capacity(views: usize) -> Self {
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
            saves_state: true,
            freezes_text: false,
        };
        alloc_track::note(1);
        let mut arena = Arena::with_capacity(views.max(1));
        arena.push(decor);
        let mut names = IdMap::default();
        names.reserve(views.max(1));
        names.insert(decor_name, root);
        ViewTree {
            arena,
            live: 1,
            root,
            released: false,
            pending: Vec::new(),
            pending_pos: IdMap::default(),
            raw_pending: 0,
            shadow: false,
            sunny: false,
            id_name_index: NameIndex {
                base: Rc::new(names),
                added: IdMap::default(),
            },
            shadowed_ids: IdMap::default(),
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
    /// invalidations are all dropped (a chunk another tree shares only
    /// loses a reference), so a released tree holds no views
    /// ([`ViewTree::view_count`] and [`ViewTree::heap_bytes`] read 0,
    /// [`ViewTree::find_by_id_name`] finds nothing). Only the decor id
    /// survives, for
    /// [`ViewTree::root`]: a callback captured before the release still
    /// names the view its `NullPointer` is about.
    pub fn release(&mut self) {
        self.released = true;
        self.arena = Arena::default();
        self.live = 0;
        self.id_name_index = NameIndex::default();
        self.shadowed_ids = IdMap::default();
        self.stateful = BTreeSet::new();
        self.pending = Vec::new();
        self.pending_pos = IdMap::default();
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
    #[inline]
    pub fn view(&self, id: ViewId) -> Result<&ViewNode, ViewError> {
        self.check_alive(id)?;
        self.node(id).ok_or(ViewError::UnknownView(id))
    }

    /// A live view, or `None` (no liveness error: released trees have an
    /// empty arena). Inlined by hand, with [`ViewTree::view`] and
    /// [`ViewTree::node_mut`]: the arena's out-of-line path for shared
    /// views keeps the compiler from inlining them into other crates,
    /// and every walk and lookup goes through them.
    #[inline]
    fn node(&self, id: ViewId) -> Option<&ViewNode> {
        self.arena.get(id.raw() as usize)
    }

    /// Mutable lookup for this crate's structural bookkeeping and the
    /// inflater; same errors as [`ViewTree::view`]. It unshares the
    /// view's chunk. A caller that writes attributes or save flags
    /// through it must call [`ViewTree::refresh_stateful`] afterwards.
    #[inline]
    pub(crate) fn node_mut(&mut self, id: ViewId) -> Result<&mut ViewNode, ViewError> {
        self.check_alive(id)?;
        self.arena
            .get_mut(id.raw() as usize)
            .ok_or(ViewError::UnknownView(id))
    }

    /// Shares the tree's views with every clone made from now on: they
    /// move behind a reference count, a clone shares them, and the first
    /// write to a view through any of the trees copies only that view's
    /// chunk of 32 views. The views move as they are, at a cost in
    /// chunks rather than views. Only the first share of a tree does
    /// anything: views added after it stay the tree's own, and a clone
    /// copies them. Sharing changes no content: the tree equals what it
    /// was.
    ///
    /// A process keeps its pristine inflations shared, so re-creating an
    /// activity costs the views the creation writes, not the tree.
    pub fn share(&mut self) {
        self.arena.share();
    }

    /// Re-checks one view against the stateful predicate and updates the
    /// stateful set. Every write to a view's attributes or save flags
    /// ends here.
    pub(crate) fn refresh_stateful(&mut self, id: ViewId) {
        let stateful = self.node(id).is_some_and(ViewNode::holds_state);
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
        if !self.view(parent)?.kind.is_container() {
            return Err(ViewError::NotAContainer { parent });
        }
        let id = self.next_id();
        self.push(ViewNode {
            id,
            id_name: id_name.map(Symbol::intern),
            kind,
            attrs: ViewAttrs::new(),
            parent: Some(parent),
            children: Vec::new(),
            saves_state: true,
            freezes_text: kind.is_editable(),
        });
        self.node_mut(parent)?.children.push(id);
        Ok(id)
    }

    /// The id the next view added gets.
    #[inline]
    pub(crate) fn next_id(&self) -> ViewId {
        ViewId::new(self.arena.len() as u64)
    }

    /// Appends `node`, whose id is [`ViewTree::next_id`] and whose parent
    /// is a live container, indexing its name and, if it holds user
    /// state, putting it into the stateful set. Nothing is checked: the
    /// caller guarantees both, and writes the id into the parent's child
    /// list. [`ViewTree::add_view`] checks first; the inflater needs no
    /// check, since it descends only into the containers it pushed.
    #[inline]
    pub(crate) fn push(&mut self, node: ViewNode) {
        let id = node.id;
        if node.holds_state() {
            self.stateful.insert(id);
        }
        if let Some(name) = node.id_name {
            self.index_added(name, id);
        }
        self.arena.push(node);
        self.live += 1;
    }

    /// Indexes `name` for the view `id` just added. New ids are strictly
    /// increasing, so the first bearer stays the lowest; later bearers
    /// queue in the shadowed list, which stays sorted because appends
    /// only ever add larger ids. While another tree shares the base map
    /// a new name goes to the overlay, so an add never copies it.
    fn index_added(&mut self, name: Symbol, id: ViewId) {
        let index = &mut self.id_name_index;
        let (fresh, other) = match Rc::get_mut(&mut index.base) {
            Some(base) => (base, &index.added),
            None => (&mut index.added, &*index.base),
        };
        let taken = !other.is_empty() && other.contains_key(&name);
        match fresh.entry(name) {
            Entry::Vacant(e) if !taken => {
                e.insert(id);
            }
            _ => self.shadowed_ids.entry(name).or_default().push(id),
        }
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
            if let Some(node) = self.arena.take(current.raw() as usize) {
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
                let holder = self.id_name_index.holder_mut(&name);
                match self.shadowed_ids.get_mut(&name) {
                    Some(shadowed) if !shadowed.is_empty() => {
                        let next = shadowed.remove(0);
                        if shadowed.is_empty() {
                            self.shadowed_ids.remove(&name);
                        }
                        holder.insert(name, next);
                    }
                    _ => {
                        self.shadowed_ids.remove(&name);
                        holder.remove(&name);
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

    /// Every name two or more live views bear, in no particular order,
    /// with its bearers in pre-order: the indexed bearer and its shadowed
    /// duplicates, ranked by their ancestor chains, so the query costs
    /// the repeated names, not the tree.
    pub fn repeated_names(&self) -> Vec<(Symbol, Vec<ViewId>)> {
        // Less when `a` comes first; Equal only for a view and itself.
        let pre_order = |a: &ViewId, b: &ViewId| self.precedes(*b, *a).cmp(&self.precedes(*a, *b));
        let bearers = |(&name, shadowed): (&Symbol, &Vec<ViewId>)| {
            let mut ids = shadowed.clone();
            ids.extend(self.id_name_index.get(&name));
            ids.sort_by(pre_order);
            (name, ids)
        };
        self.shadowed_ids.iter().map(bearers).collect()
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
        // Checked on a read, so a refused op unshares nothing.
        let class = self.view(id)?.kind.migration_class();
        if !op.applies_to(class) {
            return Err(ViewError::InapplicableOp {
                view: id,
                op: op.name(),
            });
        }
        let node = self.node_mut(id)?;
        match op {
            ViewOp::SetText(t) => node.attrs.text = Some(t),
            ViewOp::SetDrawable(name, bytes) => node.attrs.drawable = Some((name, bytes)),
            ViewOp::SetSelection(p) => node.attrs.set_selector_position(Some(p)),
            ViewOp::SetItemChecked(item, checked) => node.attrs.set_item_checked(item, checked),
            ViewOp::ScrollTo(y) => node.attrs.set_scroll_y(y),
            ViewOp::SetVideoUri(u) => node.attrs.set_video_uri(Some(u)),
            ViewOp::SetProgress(p) => node.attrs.set_progress(Some(p)),
            ViewOp::SetChecked(c) => node.attrs.set_checked(Some(c)),
            ViewOp::SetEnabled(e) => node.attrs.enabled = e,
            ViewOp::SetVisible(v) => node.attrs.visible = v,
        }
        self.refresh_stateful(id);
        self.invalidate(id)
    }

    /// Marks a view dirty. In stock Android this schedules a redraw; the
    /// paper's patch modifies exactly this function to catch updates for
    /// lazy migration, so the simulator records each invalidation for a
    /// change handler to drain. Coalescing happens here, at insert time: a
    /// repeat invalidation counts into the view's existing entry, so
    /// draining is a plain sweep.
    pub fn invalidate(&mut self, id: ViewId) -> Result<(), ViewError> {
        self.view(id)?;
        self.raw_pending += 1;
        match self.pending_pos.entry(id) {
            Entry::Occupied(e) => self.pending[*e.get()].1 += 1,
            Entry::Vacant(e) => {
                e.insert(self.pending.len());
                self.pending.push((id, 1));
            }
        }
        Ok(())
    }

    /// Drains the invalidations recorded since the last drain, in order,
    /// de-duplicated (a view invalidated twice migrates once).
    pub fn drain_invalidations(&mut self) -> Vec<ViewId> {
        alloc_track::note(1);
        let mut drained = Vec::with_capacity(self.pending.len());
        self.drain_dirty_with(|id, _| drained.push(id));
        drained
    }

    /// Zero-allocation drain: streams each coalesced `(view, raw count)`
    /// entry into `f` in first-invalidation order and resets the pending
    /// state, keeping buffer capacity for the next frame. This is the
    /// migration engine's hot path; [`ViewTree::drain_invalidations`] is
    /// the allocating convenience wrapper.
    pub fn drain_dirty_with(&mut self, mut f: impl FnMut(ViewId, usize)) {
        self.pending_pos.clear();
        self.raw_pending = 0;
        for (id, count) in self.pending.drain(..) {
            f(id, count);
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
        let mut out = Vec::with_capacity(self.live);
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
        self.arena.iter().map(ViewNode::heap_bytes).sum()
    }

    /// What the tree really occupies in this process's memory: the arena
    /// at its capacity, plus the strings, boxes of rarely held attributes
    /// and child lists the live views own. A chunk shared with another
    /// tree counts in full for each. Caches weigh trees with this;
    /// [`ViewTree::heap_bytes`] is the simulated device heap and
    /// overstates a tree with drawables by orders of magnitude.
    pub fn resident_bytes(&self) -> u64 {
        let arena = self.arena.slot_bytes();
        let owned: u64 = self
            .arena
            .iter()
            .map(|n| {
                (n.children.capacity() * std::mem::size_of::<ViewId>()) as u64
                    + n.attrs.owned_bytes()
            })
            .sum();
        arena as u64 + owned
    }

    /// [`ViewTree::resident_bytes`] of a tree the inflater just filled,
    /// from what it counted while filling: the child-list slots it
    /// reserved and the heap bytes it gave the views (strings and
    /// attribute boxes). Reads the arena's capacity and the decor view,
    /// not the other views.
    pub(crate) fn inflated_bytes(&self, reserved_children: usize, owned_bytes: u64) -> u64 {
        let decor = self.node(self.root).map_or(0, |d| d.children.capacity());
        let lists = (reserved_children + decor) * std::mem::size_of::<ViewId>();
        (self.arena.slot_bytes() + lists) as u64 + owned_bytes
    }

    /// Saves the hierarchy state: for every view *with an id name*, its
    /// user state goes into the bundle under `view:{id_name}`. Views
    /// without ids are skipped — exactly Android's (lossy) contract — and
    /// so are views that skip the protocol or hold no user state. When
    /// several views share a name, the last one in pre-order that has
    /// state wins.
    ///
    /// The save visits only the tree's stateful views, a superset of
    /// the ones those rules keep (it also holds the views that skip the
    /// protocol), so it costs the views that hold state and not the
    /// tree. The bundle is a sorted map, so the visiting order matters
    /// only for a name with several live bearers: there the saving
    /// bearers are ranked in pre-order by their ancestor chains, with no
    /// walk.
    pub fn save_hierarchy_state(&self) -> Bundle {
        let mut out = Bundle::new();
        // Names with several live bearers, each with the saving bearer
        // that comes last in pre-order so far.
        let mut contested: Vec<(Symbol, ViewId)> = Vec::new();
        for &id in &self.stateful {
            let Some(node) = self.node(id).filter(|n| n.saves_state) else {
                continue;
            };
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
            if let Some(node) = self.arena.get_mut(id.raw() as usize) {
                node.attrs.restore_user_state(state);
                mark_stateful(&mut self.stateful, id, node.holds_state());
            }
        }
    }

    /// The live views with an id name and user state, whether or not
    /// they save it: the views RCHDroid's seeding copies. In id order,
    /// except that the bearers of a name several live views bear come
    /// last, in pre-order, so copying them in turn leaves each name's
    /// state as a pre-order walk leaves it. Costs those views (and a
    /// repeated name's ancestor chains), not the tree.
    pub fn state_holders(&self) -> Vec<ViewId> {
        alloc_track::note(1);
        let mut out = Vec::with_capacity(self.stateful.len());
        let mut repeated = Vec::new();
        for &id in &self.stateful {
            match self.node(id).and_then(|n| n.id_name) {
                Some(name) if self.shadowed_ids.contains_key(&name) => repeated.push(id),
                _ => out.push(id),
            }
        }
        note_visits(self.stateful.len());
        repeated.sort_by(|a, b| self.precedes(*b, *a).cmp(&self.precedes(*a, *b)));
        out.extend(repeated);
        out
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
    /// for this tree, which is the essence-based mapping itself: a
    /// view's sunny peer is its name's entry here ([`ViewTree::peer_in`]).
    ///
    /// The index is cached and maintained incrementally on structural ops,
    /// so a lookup never traverses the tree or clones a string. For
    /// duplicate names the lowest live view id wins, matching
    /// [`ViewTree::find_by_id_name`].
    pub fn id_name_index(&self) -> &NameIndex {
        &self.id_name_index
    }

    /// Rebuilds the id-name index from scratch by scanning the arena.
    /// The cached [`ViewTree::id_name_index`] must always equal this;
    /// exposed so tests can check the invariant.
    pub fn rebuild_id_name_index(&self) -> IdMap<Symbol, ViewId> {
        let mut index = IdMap::default();
        for node in self.arena.iter() {
            if let Some(name) = node.id_name {
                index.entry(name).or_insert(node.id);
            }
        }
        index
    }

    /// The sunny peer of view `id` in `other`, the tree it is coupled
    /// with: the lowest live bearer of `id`'s name in `other`'s index,
    /// as both trees stand now. The patch's `setSunnyViews` stores this
    /// pointer on each view at init; looking it up instead stores
    /// nothing, works in both directions, so a coin flip rebuilds
    /// nothing, and never names a removed view. `None` for an anonymous
    /// or removed view, a name `other` lacks, or a released tree on
    /// either side.
    #[inline]
    pub fn peer_in(&self, id: ViewId, other: &ViewTree) -> Option<ViewId> {
        let name = self.node(id)?.id_name?;
        other.id_name_index.get(&name).copied()
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
    fn a_view_fits_in_two_cache_lines() {
        use std::mem::size_of;
        assert!(size_of::<ViewNode>() <= 128, "{}", size_of::<ViewNode>());
        assert!(size_of::<ViewAttrs>() <= 64, "{}", size_of::<ViewAttrs>());
        // The exact layout DESIGN.md gives: a field that moves either
        // size fails here until the document is updated with it.
        #[cfg(target_pointer_width = "64")]
        assert_eq!(
            (
                size_of::<ViewNode>(),
                size_of::<ViewAttrs>(),
                size_of::<crate::attrs::ExtraAttrs>(),
                size_of::<Option<ViewNode>>(),
            ),
            (120, 56, 72, 120)
        );
    }

    #[test]
    fn a_presized_tree_equals_a_grown_one() {
        let mut grown = ViewTree::new();
        let mut sized = ViewTree::with_capacity(64);
        for tree in [&mut grown, &mut sized] {
            let root = tree.root();
            let panel = tree
                .add_view(root, ViewKind::LinearLayout, Some("panel"))
                .unwrap();
            for i in 0..40 {
                let kind = if i % 3 == 0 {
                    ViewKind::EditText
                } else {
                    ViewKind::ImageView
                };
                tree.add_view(panel, kind, Some(&format!("v{}", i % 30)))
                    .unwrap();
            }
        }
        assert_eq!(sized, grown);
        assert_eq!(sized.id_name_index(), grown.id_name_index());
        assert_eq!(sized.repeated_names().len(), 10);
        assert_eq!(sized.iter_ids(), grown.iter_ids());
    }

    #[test]
    fn a_clone_shares_every_chunk_until_a_write_copies_one() {
        let mut kept = ViewTree::new();
        let list = kept
            .add_view(kept.root(), ViewKind::LinearLayout, Some("list"))
            .unwrap();
        for i in 0..200 {
            kept.add_view(list, ViewKind::EditText, Some(&format!("f{i}")))
                .unwrap();
        }
        let flat = kept.clone();
        kept.share();
        assert_eq!(kept, flat, "sharing changes no content");
        let chunks = kept.arena.chunks();
        assert_eq!(chunks, 202usize.div_ceil(crate::arena::CHUNK));

        let mut instance = kept.clone();
        let all: Vec<usize> = (0..chunks).collect();
        assert_eq!(instance.arena.chunks_shared_with(&kept.arena), all);
        let field = instance.find_by_id_name("f100").unwrap();
        let chunk = field.raw() as usize / crate::arena::CHUNK;
        instance
            .apply(field, ViewOp::SetText("typed".into()))
            .unwrap();
        let rest: Vec<usize> = all.iter().copied().filter(|&k| k != chunk).collect();
        assert_eq!(instance.arena.chunks_shared_with(&kept.arena), rest);
        assert_eq!(kept, flat, "the write never reached the kept tree");
        assert_eq!(
            instance.view(field).unwrap().attrs.text.as_deref(),
            Some("typed")
        );
        // A refused op and a read copy nothing more.
        assert!(instance.apply(field, ViewOp::SetProgress(1)).is_err());
        instance.save_hierarchy_state();
        assert_eq!(instance.arena.chunks_shared_with(&kept.arena), rest);
        // A released clone drops its references; the kept tree reads on.
        instance.release();
        assert_eq!(kept, flat);
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
    fn drain_dirty_coalesces_counts_per_view() {
        let (mut t, _, text, image) = tree_with_views();
        t.apply(text, ViewOp::SetText("a".into())).unwrap();
        t.apply(text, ViewOp::SetEnabled(false)).unwrap();
        t.apply(image, ViewOp::SetDrawable("x.png".into(), 10))
            .unwrap();
        t.invalidate(text).unwrap();
        assert_eq!(t.pending_invalidation_count(), 4);
        assert_eq!(t.pending_dirty_views(), 2);
        let mut drained = Vec::new();
        t.drain_dirty_with(|id, count| drained.push((id, count)));
        assert_eq!(drained, vec![(text, 3), (image, 1)]);
        assert!(t.drain_invalidations().is_empty(), "drain consumes");
        assert_eq!(t.pending_invalidation_count(), 0);
        assert_eq!(t.pending_dirty_views(), 0);
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
        assert!(t.repeated_names().is_empty());
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
        // A view that skips the protocol still holds its state, which
        // RCHDroid's seeding copies: the save visits it and writes
        // nothing for it.
        t.set_saves_state(field, false).unwrap();
        assert_eq!(visits(&t), (1, 0));
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
    fn a_peer_is_the_bearer_of_its_name_in_the_other_tree() {
        let (shadow, _, name_view, image) = tree_with_views();
        let (mut sunny, ..) = tree_with_views();
        let peer = sunny.find_by_id_name("name").unwrap();
        assert_eq!(shadow.peer_in(name_view, &sunny), Some(peer));
        assert_eq!(sunny.peer_in(peer, &shadow), Some(name_view));
        // decor + panel + name have ids → 3 mapped; anonymous image not.
        let ids = shadow.iter_ids();
        let mapped = ids
            .iter()
            .filter(|&&id| shadow.peer_in(id, &sunny).is_some());
        assert_eq!(mapped.count(), 3);
        assert_eq!(shadow.peer_in(image, &sunny), None);
        sunny.release();
        assert_eq!(shadow.peer_in(name_view, &sunny), None);
    }

    #[test]
    fn an_add_into_a_shared_clone_leaves_the_shared_index_alone() {
        let (mut kept, panel, ..) = tree_with_views();
        kept.share();
        let mut clone = kept.clone();
        let added = clone
            .add_view(panel, ViewKind::TextView, Some("extra"))
            .unwrap();
        let (a, b) = (&kept.id_name_index, &clone.id_name_index);
        assert!(Rc::ptr_eq(&a.base, &b.base), "the add copied the index");
        assert_eq!(clone.find_by_id_name("extra"), Some(added));
        assert_eq!(kept.find_by_id_name("extra"), None);
        // Alone with its base, a tree writes it in place.
        drop(kept);
        clone
            .add_view(panel, ViewKind::TextView, Some("more"))
            .unwrap();
        assert_eq!(clone.id_name_index.added.len(), 1);
        assert_eq!(*clone.id_name_index(), clone.rebuild_id_name_index());
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
        assert_eq!(t.view(list).unwrap().attrs.checked_items(), [2, 4]);
        t.apply(list, ViewOp::SetItemChecked(2, false)).unwrap();
        assert_eq!(t.view(list).unwrap().attrs.checked_items(), [4]);
    }
}
