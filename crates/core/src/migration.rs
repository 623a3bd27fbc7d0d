//! View-tree migration (§3.3): essence-based mapping + lazy migration.
//!
//! The key observation of the paper: no matter what an app's async
//! callback does internally, its effect always ends as attribute updates
//! on views, funnelled through the generic `invalidate` step. RCHDroid
//! therefore (a) builds, once per coupling, a mapping between the shadow
//! and sunny trees keyed by view id, and (b) copies the *essence* of an
//! invalidated shadow view to its sunny peer with a per-type policy
//! (Table 1).
//!
//! Two paths do the copying:
//!
//! * **eager** ([`FlushPolicy::Eager`], the default): every drained
//!   invalidation migrates immediately — the paper's behaviour,
//! * **batched** ([`FlushPolicy::Batched`]): drained invalidations land
//!   in a coalescing [`DirtyQueue`] and migrate
//!   as one batch when a count or deadline trigger fires; peers resolve
//!   through the engine's [`ShardedEssenceMap`]. Because the essence copy
//!   reads the *current* shadow attributes, flushing once after N
//!   invalidations produces the same sunny tree as migrating each one
//!   eagerly — a debug-mode checker replays the eager path on a clone and
//!   asserts exactly that after every flush.

use crate::batch::{DirtyEntry, DirtyQueue, FlushPolicy, ShardedEssenceMap};
use crate::supervise::{FaultLog, FaultRecord, MigrationError, MigrationWatchdog};
use droidsim_faults::{FaultPlan, FaultSite};
use droidsim_kernel::SimTime;
use droidsim_metrics::MigrationMetrics;
use droidsim_view::{MigrationClass, ViewError, ViewId, ViewOp, ViewTree};
use std::panic::{self, AssertUnwindSafe};

/// The result of one lazy-migration pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MigrationReport {
    /// Invalidated shadow views examined.
    pub examined: usize,
    /// Views whose essence was copied to a sunny peer.
    pub migrated: usize,
    /// Invalidated views with no peer in the sunny tree (e.g. anonymous
    /// or removed in the new layout).
    pub unmapped: usize,
    /// Raw invalidations that coalesced into an already-pending entry —
    /// essence copies the batched path skipped relative to eager (always
    /// 0 under [`FlushPolicy::Eager`] for single-delivery drains, where
    /// the per-delivery dedup happens in the tree itself).
    pub coalesced: usize,
    /// Views whose migration faulted and was contained per-view (rung 1
    /// of the degradation ladder): the view was skipped and marked
    /// stale, the rest of the batch migrated.
    pub contained: usize,
}

impl MigrationReport {
    /// Merges two reports.
    pub fn merge(self, other: MigrationReport) -> MigrationReport {
        MigrationReport {
            examined: self.examined + other.examined,
            migrated: self.migrated + other.migrated,
            unmapped: self.unmapped + other.unmapped,
            coalesced: self.coalesced + other.coalesced,
            contained: self.contained + other.contained,
        }
    }
}

/// Copies the migratable essence of `shadow_view` (in `shadow`) onto its
/// sunny peer (in `sunny`), per the Table 1 policy for the view's basic
/// class. Returns `true` if a peer existed and was updated.
///
/// # Errors
///
/// Propagates [`ViewError`]s from the sunny tree (released tree, stale
/// ids). The shadow view not existing is reported as `UnknownView`.
pub fn migrate_view(
    shadow: &ViewTree,
    sunny: &mut ViewTree,
    shadow_view: ViewId,
) -> Result<bool, ViewError> {
    let Some(peer) = shadow.view(shadow_view)?.sunny_peer else {
        return Ok(false);
    };
    copy_essence(shadow, sunny, shadow_view, peer)?;
    Ok(true)
}

/// The Table-1 essence copy itself, with the peer already resolved (the
/// eager path resolves through the per-view pointer, the batched path
/// through the engine's sharded map).
fn copy_essence(
    shadow: &ViewTree,
    sunny: &mut ViewTree,
    shadow_view: ViewId,
    peer: ViewId,
) -> Result<(), ViewError> {
    let node = shadow.view(shadow_view)?;
    let class = node.kind.migration_class();
    let attrs = node.attrs.clone();

    // Per-type policies of Table 1. Ops go through ViewTree::apply so the
    // sunny tree invalidates (and redraws) exactly as if the app had
    // updated it directly.
    match class {
        MigrationClass::TextView => {
            if let Some(text) = attrs.text {
                sunny.apply(peer, ViewOp::SetText(text))?;
            }
            if let Some(checked) = attrs.checked {
                sunny.apply(peer, ViewOp::SetChecked(checked))?;
            }
        }
        MigrationClass::ImageView => {
            if let Some((name, bytes)) = attrs.drawable {
                sunny.apply(peer, ViewOp::SetDrawable(name, bytes))?;
            }
        }
        MigrationClass::AbsListView => {
            if let Some(pos) = attrs.selector_position {
                sunny.apply(peer, ViewOp::SetSelection(pos))?;
            }
            for item in attrs.checked_items {
                sunny.apply(peer, ViewOp::SetItemChecked(item, true))?;
            }
            if attrs.scroll_y != 0 {
                sunny.apply(peer, ViewOp::ScrollTo(attrs.scroll_y))?;
            }
        }
        MigrationClass::VideoView => {
            if let Some(uri) = attrs.video_uri {
                sunny.apply(peer, ViewOp::SetVideoUri(uri))?;
            }
        }
        MigrationClass::ProgressBar => {
            if let Some(p) = attrs.progress {
                sunny.apply(peer, ViewOp::SetProgress(p))?;
            }
        }
        MigrationClass::Container => {
            if attrs.scroll_y != 0 {
                sunny.apply(peer, ViewOp::ScrollTo(attrs.scroll_y))?;
            }
        }
        MigrationClass::Opaque => {}
    }
    // Visibility and enablement migrate for every class.
    sunny.apply(peer, ViewOp::SetEnabled(attrs.enabled))?;
    sunny.apply(peer, ViewOp::SetVisible(attrs.visible))?;
    Ok(())
}

/// The coupling between a shadow tree and a sunny tree.
///
/// Holds the sharded essence map (one per coupling side, so coin flips
/// keep resolving without a rebuild), the coalescing dirty queue, the
/// [`FlushPolicy`] that decides when the queue drains, and lifetime
/// [`MigrationMetrics`].
#[derive(Debug, Clone)]
pub struct MigrationEngine {
    mapped_views: usize,
    policy: FlushPolicy,
    queue: DirtyQueue,
    /// `peers[side]` maps a view of coupling side `side` to its peer on
    /// the other side. Side 0 is the tree that was shadow when the
    /// mapping was built; a coin flip swaps *roles* but not *sides*.
    peers: [ShardedEssenceMap; 2],
    metrics: MigrationMetrics,
    check_equivalence: bool,
    /// Fault schedule probed on the flush path (sites
    /// `essence-mapping-miss`, `attribute-copy`,
    /// `flush-deadline-overrun`). Disarmed by default.
    faults: FaultPlan,
    watchdog: MigrationWatchdog,
    fault_log: FaultLog,
    /// Views skipped by rung-1 containment since the last mapping build.
    stale_views: Vec<ViewId>,
    /// Reusable flush-batch buffer: the queue drains into it and the
    /// emptied vector returns after the flush, so steady-state flushing
    /// allocates nothing per call.
    flush_scratch: Vec<DirtyEntry>,
}

impl Default for MigrationEngine {
    fn default() -> Self {
        MigrationEngine::new()
    }
}

impl MigrationEngine {
    /// Creates an engine with no coupling built and the paper's eager
    /// flush policy.
    pub fn new() -> Self {
        MigrationEngine::with_flush_policy(FlushPolicy::Eager)
    }

    /// Creates an engine with an explicit flush policy. The debug-mode
    /// batched≡eager equivalence checker is on in debug builds.
    pub fn with_flush_policy(policy: FlushPolicy) -> Self {
        MigrationEngine {
            mapped_views: 0,
            policy,
            queue: DirtyQueue::new(),
            peers: [ShardedEssenceMap::default(), ShardedEssenceMap::default()],
            metrics: MigrationMetrics::new(),
            check_equivalence: cfg!(debug_assertions),
            faults: FaultPlan::disarmed(),
            watchdog: MigrationWatchdog::default(),
            fault_log: FaultLog::default(),
            stale_views: Vec::new(),
            flush_scratch: Vec::new(),
        }
    }

    /// Arms (or disarms) the fault schedule probed during flushes.
    pub fn arm_faults(&mut self, plan: FaultPlan) {
        self.faults = plan;
    }

    /// Replaces the per-flush watchdog budget.
    pub fn set_watchdog(&mut self, watchdog: MigrationWatchdog) {
        self.watchdog = watchdog;
    }

    /// The per-flush watchdog budget in force.
    pub fn watchdog(&self) -> MigrationWatchdog {
        self.watchdog
    }

    /// Views skipped by rung-1 containment since the last mapping build:
    /// their sunny copy may be stale and must not be trusted.
    pub fn stale_views(&self) -> &[ViewId] {
        &self.stale_views
    }

    /// Lifetime fault metrics for the flush path.
    pub(crate) fn fault_metrics(&self) -> &droidsim_metrics::FaultMetrics {
        self.fault_log.metrics()
    }

    /// Drains the recent fault records (device layer → logcat).
    pub(crate) fn take_fault_records(&mut self) -> Vec<FaultRecord> {
        self.fault_log.drain()
    }

    /// Tears the coupling down entirely: pending queue, both sharded peer
    /// maps, the stale set and the mapped count. Called when a fallback
    /// restart abandons shadow/sunny handling so nothing can migrate
    /// toward a destroyed tree.
    pub fn reset_coupling(&mut self) {
        self.queue.clear();
        self.peers[0].clear();
        self.peers[1].clear();
        self.stale_views.clear();
        self.mapped_views = 0;
    }

    /// The flush policy in force.
    pub fn flush_policy(&self) -> FlushPolicy {
        self.policy
    }

    /// Changes the flush policy. Pending entries stay queued; a switch to
    /// [`FlushPolicy::Eager`] drains them on the next delivery.
    pub fn set_flush_policy(&mut self, policy: FlushPolicy) {
        self.policy = policy;
    }

    /// Enables/disables the debug-mode equivalence checker (it is a
    /// no-op in release builds regardless).
    pub fn set_equivalence_checking(&mut self, on: bool) {
        self.check_equivalence = on;
    }

    /// Lifetime flush/coalescing metrics.
    pub fn metrics(&self) -> &MigrationMetrics {
        &self.metrics
    }

    /// Builds the essence-based mapping **both ways**: each tree's views
    /// store peers into the other, so a coin flip swaps roles without
    /// rebuilding (the paper: the flip "avoids … the building of the
    /// essence-based mapping"). The same pairs are loaded into the
    /// engine's sharded maps — the structure the batched flush resolves
    /// through — and any stale queue is dropped. Returns the number of
    /// shadow views mapped.
    pub fn build_mapping(&mut self, shadow: &mut ViewTree, sunny: &mut ViewTree) -> usize {
        // The id-name indexes are cached on the trees (maintained
        // incrementally on structural ops), so no index is rebuilt here.
        let mapped = shadow.set_sunny_peers(sunny.id_name_index());
        sunny.set_sunny_peers(shadow.id_name_index());
        shadow.set_coupling_side(Some(0));
        sunny.set_coupling_side(Some(1));
        self.peers[0].clear();
        self.peers[1].clear();
        let peers = &mut self.peers;
        shadow.for_each_id(|id| {
            if let Some(peer) = shadow.view(id).ok().and_then(|n| n.sunny_peer) {
                peers[0].insert(id, peer);
                peers[1].insert(peer, id);
            }
        });
        self.queue.clear();
        self.stale_views.clear();
        self.mapped_views = mapped;
        mapped
    }

    /// Views mapped by the last [`MigrationEngine::build_mapping`].
    pub fn mapped_views(&self) -> usize {
        self.mapped_views
    }

    /// Coalesced entries waiting for a flush.
    pub fn pending_entries(&self) -> usize {
        self.queue.len()
    }

    /// Raw invalidations absorbed into the pending queue.
    pub fn pending_raw(&self) -> usize {
        self.queue.raw_pending()
    }

    /// Whether the flush policy says the pending queue should drain now.
    pub fn flush_due(&self, now: SimTime) -> bool {
        if self.queue.is_empty() {
            return false;
        }
        match self.policy {
            FlushPolicy::Eager => true,
            FlushPolicy::Batched {
                max_pending,
                max_delay,
            } => self.queue.len() >= max_pending || self.queue.deadline_due(now, max_delay),
        }
    }

    /// Drops the pending queue without migrating (the coupling is gone —
    /// e.g. the sunny instance died with the app).
    pub fn discard_pending(&mut self) {
        self.queue.clear();
    }

    /// Resolves a shadow view's sunny peer. Coupled trees resolve through
    /// the sharded essence map of their side; uncoupled trees fall back
    /// to the per-view pointer (the stock hook).
    fn resolve_peer(&self, shadow: &ViewTree, view: ViewId) -> Option<ViewId> {
        match shadow.coupling_side() {
            Some(side) => self.peers[side as usize].get(view),
            None => shadow.view(view).ok().and_then(|n| n.sunny_peer),
        }
    }

    /// Lazy migration: drains the shadow tree's recorded invalidations
    /// into the coalescing queue and, when the flush policy fires (always,
    /// for [`FlushPolicy::Eager`]), migrates each queued view's essence to
    /// its sunny peer. Returns the report of what *this call* flushed — an
    /// empty report means the updates are queued, not lost.
    ///
    /// # Errors
    ///
    /// Returns a [`MigrationError`] when the flush aborts: an injected
    /// uncontainable fault, a watchdog overrun, or an app-crashing
    /// sunny-tree error. Per-view faults never error — they are contained
    /// and counted in [`MigrationReport::contained`].
    pub fn migrate_invalidations(
        &mut self,
        shadow: &mut ViewTree,
        sunny: &mut ViewTree,
        now: SimTime,
    ) -> Result<MigrationReport, MigrationError> {
        let queue = &mut self.queue;
        shadow.drain_dirty_with(|view, mask, raw| {
            queue.enqueue(view, mask, raw, now);
        });
        if self.flush_due(now) {
            self.flush(shadow, sunny)
        } else {
            Ok(MigrationReport::default())
        }
    }

    /// Unconditionally drains the pending queue to the sunny tree (the
    /// handler calls this before any shadow/sunny role change so queued
    /// updates can never migrate in a stale direction).
    ///
    /// Rung 1 of the degradation ladder lives here: a fault touching one
    /// view (injected essence-map miss or attribute-copy error, a panic
    /// inside the Table-1 copy, a benign tree rejection) skips that view,
    /// marks it stale and keeps migrating the rest of the batch.
    ///
    /// # Errors
    ///
    /// Returns a [`MigrationError`] only for faults that poison the whole
    /// flush: an injected `flush-deadline-overrun`, a watchdog budget
    /// overrun, or an app-crashing sunny-tree error (released tree,
    /// leaked window) that stock Android would die on too.
    pub fn flush(
        &mut self,
        shadow: &mut ViewTree,
        sunny: &mut ViewTree,
    ) -> Result<MigrationReport, MigrationError> {
        if self.queue.is_empty() {
            return Ok(MigrationReport::default());
        }
        if self.faults.should_inject(FaultSite::FlushDeadlineOverrun) {
            self.queue.clear();
            return Err(MigrationError::Injected {
                site: FaultSite::FlushDeadlineOverrun,
            });
        }
        if let Some(needed) = self.watchdog.exceeded(self.queue.len()) {
            self.queue.clear();
            return Err(MigrationError::DeadlineExceeded {
                budget: self.watchdog.budget,
                needed,
            });
        }
        // Drain into the engine's reusable batch buffer; it is handed
        // back (emptied, capacity kept) whichever way the flush ends.
        let mut batch = std::mem::take(&mut self.flush_scratch);
        self.queue.drain_into(&mut batch);
        let result = self.flush_batch(shadow, sunny, &batch);
        batch.clear();
        self.flush_scratch = batch;
        result
    }

    /// The body of [`MigrationEngine::flush`] over an already-drained
    /// batch.
    fn flush_batch(
        &mut self,
        shadow: &mut ViewTree,
        sunny: &mut ViewTree,
        batch: &[DirtyEntry],
    ) -> Result<MigrationReport, MigrationError> {
        let raw: usize = batch.iter().map(|e| e.raw).sum();

        #[cfg(debug_assertions)]
        let reference = if self.check_equivalence {
            Some(eager_reference(shadow, sunny, batch))
        } else {
            None
        };

        let started = std::time::Instant::now();
        let mut report = MigrationReport::default();
        for entry in batch {
            report.examined += 1;
            let peer = if self.faults.should_inject(FaultSite::EssenceMappingMiss) {
                None
            } else {
                self.resolve_peer(shadow, entry.view)
            };
            let Some(peer) = peer else {
                // A genuinely anonymous view is business as usual; a view
                // that *was* mapped losing its peer is a contained fault.
                if self.peers_contain(shadow, entry.view) {
                    self.contain(entry.view, FaultSite::EssenceMappingMiss, &mut report);
                } else {
                    report.unmapped += 1;
                }
                continue;
            };
            if self.faults.should_inject(FaultSite::AttributeCopy) {
                self.contain(entry.view, FaultSite::AttributeCopy, &mut report);
                continue;
            }
            match panic::catch_unwind(AssertUnwindSafe(|| {
                copy_essence(shadow, sunny, entry.view, peer)
            })) {
                Ok(Ok(())) => report.migrated += 1,
                Ok(Err(e)) if e.is_crash() => return Err(MigrationError::Tree(e)),
                Ok(Err(_)) => self.contain(entry.view, FaultSite::AttributeCopy, &mut report),
                Err(_) => self.contain(entry.view, FaultSite::AttributeCopy, &mut report),
            }
        }
        report.coalesced = raw.saturating_sub(report.examined);
        self.metrics
            .record_flush(report.examined, raw, started.elapsed().as_nanos() as u64);

        #[cfg(debug_assertions)]
        if let Some(reference) = reference {
            // A contained fault intentionally diverges from the eager
            // replay (the skipped view keeps its old sunny state), so the
            // equivalence invariant only holds for fault-free flushes.
            if report.contained == 0 {
                assert_equivalent_to_eager(sunny, &reference);
            }
        }
        Ok(report)
    }

    /// Whether the coupling (sharded map or per-view pointer) knows a
    /// peer for `view` — distinguishes "anonymous by design" from "the
    /// mapping lost an entry".
    fn peers_contain(&self, shadow: &ViewTree, view: ViewId) -> bool {
        match shadow.coupling_side() {
            Some(side) => self.peers[side as usize].get(view).is_some(),
            None => shadow.view(view).ok().and_then(|n| n.sunny_peer).is_some(),
        }
    }

    /// Rung-1 containment bookkeeping for one skipped view.
    fn contain(&mut self, view: ViewId, site: FaultSite, report: &mut MigrationReport) {
        self.stale_views.push(view);
        self.fault_log.contained(site.name());
        report.contained += 1;
    }

    /// Seeds the sunny tree with the shadow tree's *user state* right
    /// after coupling — direct object access, so it also covers views
    /// that skip the save/restore protocol (the paper's custom-view
    /// state-loss class). Unlike full essence migration, seeding never
    /// copies *content* (label text, drawables): the sunny tree just
    /// loaded the correct resources for the new configuration and stale
    /// old-configuration content must not overwrite them.
    ///
    /// # Errors
    ///
    /// Propagates sunny-tree [`ViewError`]s.
    pub fn seed_user_state(
        &self,
        shadow: &ViewTree,
        sunny: &mut ViewTree,
    ) -> Result<MigrationReport, ViewError> {
        let mut report = MigrationReport::default();
        let mut failure: Option<ViewError> = None;
        shadow.for_each_id(|view| {
            if failure.is_some() {
                return;
            }
            let node = match shadow.view(view) {
                Ok(n) => n,
                Err(e) => {
                    failure = Some(e);
                    return;
                }
            };
            report.examined += 1;
            let Some(peer) = node.sunny_peer else {
                report.unmapped += 1;
                return;
            };
            // A stale peer fails even when there is nothing to copy.
            let copied = match node.attrs.user_state(node.freezes_text) {
                Some(state) => sunny.edit_attrs(peer, |target| target.restore_user_state(&state)),
                None => sunny.view(peer).map(drop),
            };
            match copied {
                Ok(()) => report.migrated += 1,
                Err(e) => failure = Some(e),
            }
        });
        match failure {
            Some(e) => Err(e),
            None => Ok(report),
        }
    }

    /// Full-tree migration (used right after coupling to seed the sunny
    /// tree with any shadow-side state that the bundle restore may have
    /// missed, e.g. attributes set after the snapshot).
    ///
    /// # Errors
    ///
    /// Propagates sunny-tree [`ViewError`]s.
    pub fn migrate_all(
        &self,
        shadow: &ViewTree,
        sunny: &mut ViewTree,
    ) -> Result<MigrationReport, ViewError> {
        let mut report = MigrationReport::default();
        let mut failure: Option<ViewError> = None;
        shadow.for_each_id(|view| {
            if failure.is_some() {
                return;
            }
            report.examined += 1;
            match migrate_view(shadow, sunny, view) {
                Ok(true) => report.migrated += 1,
                Ok(false) => report.unmapped += 1,
                Err(e) => failure = Some(e),
            }
        });
        match failure {
            Some(e) => Err(e),
            None => Ok(report),
        }
    }
}

/// Replays the *eager* path for `batch` on a clone of the sunny tree:
/// each queued view migrates through [`migrate_view`], which resolves via
/// the per-view pointer — independently of the sharded map the batched
/// flush uses. Per-view errors are skipped, mirroring the supervised
/// path's rung-1 containment (the assert is skipped whenever containment
/// fired, so tolerating them here can never mask a real divergence).
#[cfg(debug_assertions)]
fn eager_reference(shadow: &ViewTree, sunny: &ViewTree, batch: &[DirtyEntry]) -> ViewTree {
    let mut reference = sunny.clone();
    for entry in batch {
        let _ = migrate_view(shadow, &mut reference, entry.view);
    }
    reference
}

/// Asserts the batched flush produced exactly the sunny tree that eager
/// migration would have: same attributes on every live view.
#[cfg(debug_assertions)]
fn assert_equivalent_to_eager(sunny: &ViewTree, reference: &ViewTree) {
    sunny.for_each_id(|id| {
        let (Ok(got), Ok(want)) = (sunny.view(id), reference.view(id)) else {
            return;
        };
        assert_eq!(
            got.attrs, want.attrs,
            "batched flush diverged from eager migration on {id}"
        );
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use droidsim_view::ViewKind;

    fn coupled_trees() -> (ViewTree, ViewTree, MigrationEngine) {
        let build = |container: ViewKind| {
            let mut t = ViewTree::new();
            let root = t.add_view(t.root(), container, Some("panel")).unwrap();
            t.add_view(root, ViewKind::EditText, Some("name")).unwrap();
            t.add_view(root, ViewKind::ImageView, Some("hero")).unwrap();
            t.add_view(root, ViewKind::ListView, Some("list")).unwrap();
            t.add_view(root, ViewKind::VideoView, Some("player"))
                .unwrap();
            t.add_view(root, ViewKind::ProgressBar, Some("bar"))
                .unwrap();
            t.add_view(root, ViewKind::TextView, None).unwrap(); // anonymous
            t
        };
        let mut shadow = build(ViewKind::LinearLayout);
        let mut sunny = build(ViewKind::GridLayout); // different layout, same ids
        let mut engine = MigrationEngine::new();
        engine.build_mapping(&mut shadow, &mut sunny);
        (shadow, sunny, engine)
    }

    #[test]
    fn mapping_links_by_id_name_both_ways() {
        let (shadow, sunny, engine) = coupled_trees();
        // decor, panel, name, hero, list, player, bar = 7 named views.
        assert_eq!(engine.mapped_views(), 7);
        let s_name = shadow.find_by_id_name("name").unwrap();
        let peer = shadow.view(s_name).unwrap().sunny_peer.unwrap();
        assert_eq!(peer, sunny.find_by_id_name("name").unwrap());
        // Reverse direction too (flip support).
        let r_peer = sunny.view(peer).unwrap().sunny_peer.unwrap();
        assert_eq!(r_peer, s_name);
    }

    #[test]
    fn table1_policies_copy_the_right_essence() {
        let (mut shadow, mut sunny, mut engine) = coupled_trees();
        let ids = |t: &ViewTree, n: &str| t.find_by_id_name(n).unwrap();
        shadow
            .apply(ids(&shadow, "name"), ViewOp::SetText("alice".into()))
            .unwrap();
        shadow
            .apply(
                ids(&shadow, "hero"),
                ViewOp::SetDrawable("landscape.png".into(), 123),
            )
            .unwrap();
        shadow
            .apply(ids(&shadow, "list"), ViewOp::SetSelection(5))
            .unwrap();
        shadow
            .apply(ids(&shadow, "list"), ViewOp::SetItemChecked(2, true))
            .unwrap();
        shadow
            .apply(
                ids(&shadow, "player"),
                ViewOp::SetVideoUri("clip.mp4".into()),
            )
            .unwrap();
        shadow
            .apply(ids(&shadow, "bar"), ViewOp::SetProgress(66))
            .unwrap();

        let report = engine
            .migrate_invalidations(&mut shadow, &mut sunny, SimTime::ZERO)
            .unwrap();
        assert_eq!(report.examined, 5);
        assert_eq!(report.migrated, 5);

        let get = |n: &str| {
            sunny
                .view(sunny.find_by_id_name(n).unwrap())
                .unwrap()
                .attrs
                .clone()
        };
        assert_eq!(get("name").text.as_deref(), Some("alice"));
        assert_eq!(
            get("hero").drawable.as_ref().unwrap().0.as_str(),
            "landscape.png"
        );
        assert_eq!(get("list").selector_position, Some(5));
        assert_eq!(get("list").checked_items, vec![2]);
        assert_eq!(get("player").video_uri.as_deref(), Some("clip.mp4"));
        assert_eq!(get("bar").progress, Some(66));
    }

    #[test]
    fn anonymous_views_are_unmapped_not_errors() {
        let (mut shadow, mut sunny, mut engine) = coupled_trees();
        // The anonymous TextView is the last child of "panel".
        let panel = shadow.find_by_id_name("panel").unwrap();
        let anon = *shadow.view(panel).unwrap().children.last().unwrap();
        shadow
            .apply(anon, ViewOp::SetText("nobody sees this".into()))
            .unwrap();
        let report = engine
            .migrate_invalidations(&mut shadow, &mut sunny, SimTime::ZERO)
            .unwrap();
        assert_eq!(report.unmapped, 1);
        assert_eq!(report.migrated, 0);
    }

    #[test]
    fn migration_invalidates_the_sunny_tree() {
        let (mut shadow, mut sunny, mut engine) = coupled_trees();
        let name = shadow.find_by_id_name("name").unwrap();
        shadow.apply(name, ViewOp::SetText("x".into())).unwrap();
        sunny.drain_invalidations();
        engine
            .migrate_invalidations(&mut shadow, &mut sunny, SimTime::ZERO)
            .unwrap();
        assert!(!sunny.drain_invalidations().is_empty(), "sunny redraws");
    }

    #[test]
    fn drained_invalidations_do_not_remigrate() {
        let (mut shadow, mut sunny, mut engine) = coupled_trees();
        let name = shadow.find_by_id_name("name").unwrap();
        shadow.apply(name, ViewOp::SetText("x".into())).unwrap();
        engine
            .migrate_invalidations(&mut shadow, &mut sunny, SimTime::ZERO)
            .unwrap();
        let second = engine
            .migrate_invalidations(&mut shadow, &mut sunny, SimTime::ZERO)
            .unwrap();
        assert_eq!(second.examined, 0);
    }

    #[test]
    fn migrate_all_seeds_everything_named() {
        let (mut shadow, mut sunny, engine) = coupled_trees();
        let name = shadow.find_by_id_name("name").unwrap();
        shadow.apply(name, ViewOp::SetText("seed".into())).unwrap();
        shadow.drain_invalidations();
        let report = engine.migrate_all(&shadow, &mut sunny).unwrap();
        assert_eq!(report.examined, shadow.view_count());
        assert_eq!(report.unmapped, 1, "only the anonymous view");
        let s_name = sunny.find_by_id_name("name").unwrap();
        assert_eq!(
            sunny.view(s_name).unwrap().attrs.text.as_deref(),
            Some("seed")
        );
    }

    #[test]
    fn seeding_a_stale_peer_fails_even_with_nothing_to_copy() {
        let (shadow, mut sunny, engine) = coupled_trees();
        let hero = sunny.find_by_id_name("hero").unwrap();
        sunny.remove_view(hero).unwrap();
        // The shadow's image view holds no user state, but its peer is gone.
        assert_eq!(
            engine.seed_user_state(&shadow, &mut sunny),
            Err(ViewError::UnknownView(hero))
        );
    }

    #[test]
    fn visibility_migrates_for_every_class() {
        let (mut shadow, mut sunny, mut engine) = coupled_trees();
        let hero = shadow.find_by_id_name("hero").unwrap();
        shadow.apply(hero, ViewOp::SetVisible(false)).unwrap();
        engine
            .migrate_invalidations(&mut shadow, &mut sunny, SimTime::ZERO)
            .unwrap();
        let s_hero = sunny.find_by_id_name("hero").unwrap();
        assert!(!sunny.view(s_hero).unwrap().attrs.visible);
    }

    #[test]
    fn custom_views_migrate_via_their_base_class() {
        let mut shadow = ViewTree::new();
        let custom = ViewKind::from_class_name("com.app.FancyTextView");
        shadow
            .add_view(shadow.root(), custom.clone(), Some("fancy"))
            .unwrap();
        let mut sunny = ViewTree::new();
        sunny.add_view(sunny.root(), custom, Some("fancy")).unwrap();
        let mut engine = MigrationEngine::new();
        engine.build_mapping(&mut shadow, &mut sunny);
        let f = shadow.find_by_id_name("fancy").unwrap();
        shadow.apply(f, ViewOp::SetText("styled".into())).unwrap();
        engine
            .migrate_invalidations(&mut shadow, &mut sunny, SimTime::ZERO)
            .unwrap();
        let sf = sunny.find_by_id_name("fancy").unwrap();
        assert_eq!(
            sunny.view(sf).unwrap().attrs.text.as_deref(),
            Some("styled")
        );
    }

    fn batched_engine(max_pending: usize, max_delay_ms: u64) -> FlushPolicy {
        FlushPolicy::batched(
            max_pending,
            droidsim_kernel::SimDuration::from_millis(max_delay_ms),
        )
    }

    #[test]
    fn batched_policy_queues_until_count_trigger() {
        let (mut shadow, mut sunny, mut engine) = coupled_trees();
        engine.set_flush_policy(batched_engine(3, 1_000));
        let name = shadow.find_by_id_name("name").unwrap();
        let bar = shadow.find_by_id_name("bar").unwrap();

        // Two distinct views: below the count trigger, nothing flushes.
        shadow.apply(name, ViewOp::SetText("a".into())).unwrap();
        let r = engine
            .migrate_invalidations(&mut shadow, &mut sunny, SimTime::ZERO)
            .unwrap();
        assert_eq!(r.examined, 0);
        shadow.apply(bar, ViewOp::SetProgress(10)).unwrap();
        let r = engine
            .migrate_invalidations(&mut shadow, &mut sunny, SimTime::from_millis(1))
            .unwrap();
        assert_eq!(r.examined, 0);
        assert_eq!(engine.pending_entries(), 2);
        let s_name = sunny.find_by_id_name("name").unwrap();
        assert_eq!(sunny.view(s_name).unwrap().attrs.text, None, "not yet");

        // Third distinct view reaches max_pending → the batch drains.
        let hero = shadow.find_by_id_name("hero").unwrap();
        shadow.apply(hero, ViewOp::SetVisible(false)).unwrap();
        let r = engine
            .migrate_invalidations(&mut shadow, &mut sunny, SimTime::from_millis(2))
            .unwrap();
        assert_eq!(r.examined, 3);
        assert_eq!(r.migrated, 3);
        assert_eq!(engine.pending_entries(), 0);
        assert_eq!(sunny.view(s_name).unwrap().attrs.text.as_deref(), Some("a"));
    }

    #[test]
    fn batched_flush_applies_last_write_per_attribute() {
        let (mut shadow, mut sunny, mut engine) = coupled_trees();
        engine.set_flush_policy(batched_engine(100, 1_000));
        let bar = shadow.find_by_id_name("bar").unwrap();
        // A chatty progress bar: 10 updates, one queue entry.
        for p in 1..=10 {
            shadow.apply(bar, ViewOp::SetProgress(p * 10)).unwrap();
            engine
                .migrate_invalidations(&mut shadow, &mut sunny, SimTime::from_millis(p as u64))
                .unwrap();
        }
        assert_eq!(engine.pending_entries(), 1);
        assert_eq!(engine.pending_raw(), 10);
        let r = engine.flush(&mut shadow, &mut sunny).unwrap();
        assert_eq!(r.examined, 1, "ten raw updates, one essence copy");
        assert_eq!(r.coalesced, 9);
        let s_bar = sunny.find_by_id_name("bar").unwrap();
        assert_eq!(
            sunny.view(s_bar).unwrap().attrs.progress,
            Some(100),
            "last write wins"
        );
    }

    #[test]
    fn deadline_trigger_flushes_a_stale_queue() {
        let (mut shadow, mut sunny, mut engine) = coupled_trees();
        engine.set_flush_policy(batched_engine(100, 16));
        let name = shadow.find_by_id_name("name").unwrap();
        shadow.apply(name, ViewOp::SetText("late".into())).unwrap();
        let r = engine
            .migrate_invalidations(&mut shadow, &mut sunny, SimTime::from_millis(100))
            .unwrap();
        assert_eq!(r.examined, 0);
        assert!(!engine.flush_due(SimTime::from_millis(110)));
        assert!(engine.flush_due(SimTime::from_millis(116)));
        // An empty delivery at/after the deadline still drains the queue.
        let r = engine
            .migrate_invalidations(&mut shadow, &mut sunny, SimTime::from_millis(120))
            .unwrap();
        assert_eq!(r.migrated, 1);
    }

    #[test]
    fn sharded_resolution_survives_a_coin_flip() {
        let (mut side0, mut side1, mut engine) = coupled_trees();
        engine.set_flush_policy(batched_engine(1, 0));
        // Forward direction: side0 is the shadow.
        let name = side0.find_by_id_name("name").unwrap();
        side0.apply(name, ViewOp::SetText("fwd".into())).unwrap();
        engine
            .migrate_invalidations(&mut side0, &mut side1, SimTime::ZERO)
            .unwrap();
        // Coin flip: roles swap, the mapping is NOT rebuilt. Side1 is now
        // the shadow; resolution must go through the reverse shard set.
        let peer_name = side1.find_by_id_name("name").unwrap();
        side1
            .apply(peer_name, ViewOp::SetText("rev".into()))
            .unwrap();
        let r = engine
            .migrate_invalidations(&mut side1, &mut side0, SimTime::ZERO)
            .unwrap();
        assert_eq!(r.migrated, 1);
        assert_eq!(side0.view(name).unwrap().attrs.text.as_deref(), Some("rev"));
    }

    #[test]
    fn metrics_track_batches_and_coalescing() {
        let (mut shadow, mut sunny, mut engine) = coupled_trees();
        engine.set_flush_policy(batched_engine(2, 1_000));
        let name = shadow.find_by_id_name("name").unwrap();
        let bar = shadow.find_by_id_name("bar").unwrap();
        shadow.apply(name, ViewOp::SetText("a".into())).unwrap();
        shadow.apply(name, ViewOp::SetText("b".into())).unwrap();
        shadow.apply(bar, ViewOp::SetProgress(1)).unwrap();
        engine
            .migrate_invalidations(&mut shadow, &mut sunny, SimTime::ZERO)
            .unwrap();
        let m = engine.metrics();
        assert_eq!(m.flushes, 1);
        assert_eq!(m.raw_invalidations, 3);
        assert_eq!(m.coalesced_entries, 2);
        assert!((m.coalesce_ratio() - 1.5).abs() < 1e-12);
        assert_eq!(m.batch_size.max(), 2.0);
        assert_eq!(m.flush_latency_ns.count(), 1);
    }

    #[test]
    fn eager_default_flushes_every_delivery() {
        let (mut shadow, mut sunny, mut engine) = coupled_trees();
        assert!(engine.flush_policy().is_eager());
        let name = shadow.find_by_id_name("name").unwrap();
        for i in 0..4 {
            shadow
                .apply(name, ViewOp::SetText(format!("v{i}")))
                .unwrap();
            let r = engine
                .migrate_invalidations(&mut shadow, &mut sunny, SimTime::ZERO)
                .unwrap();
            assert_eq!(r.migrated, 1);
            assert_eq!(engine.pending_entries(), 0);
        }
        assert_eq!(engine.metrics().flushes, 4);
        assert!((engine.metrics().coalesce_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn injected_attribute_copy_fault_is_contained_per_view() {
        let (mut shadow, mut sunny, mut engine) = coupled_trees();
        engine.arm_faults(FaultPlan::seeded(3).on_nth_probe(FaultSite::AttributeCopy, 1));
        let name = shadow.find_by_id_name("name").unwrap();
        let bar = shadow.find_by_id_name("bar").unwrap();
        shadow.apply(name, ViewOp::SetText("a".into())).unwrap();
        shadow.apply(bar, ViewOp::SetProgress(42)).unwrap();
        let r = engine
            .migrate_invalidations(&mut shadow, &mut sunny, SimTime::ZERO)
            .unwrap();
        assert_eq!(r.examined, 2);
        assert_eq!(r.contained, 1, "one view skipped");
        assert_eq!(r.migrated, 1, "the rest of the batch migrated");
        assert_eq!(engine.stale_views().len(), 1);
        assert_eq!(engine.fault_metrics().contained_per_view, 1);
        assert_eq!(engine.take_fault_records().len(), 1);
    }

    #[test]
    fn injected_mapping_miss_on_a_mapped_view_is_contained() {
        let (mut shadow, mut sunny, mut engine) = coupled_trees();
        engine.arm_faults(FaultPlan::seeded(4).on_nth_probe(FaultSite::EssenceMappingMiss, 1));
        let name = shadow.find_by_id_name("name").unwrap();
        shadow.apply(name, ViewOp::SetText("lost".into())).unwrap();
        let r = engine
            .migrate_invalidations(&mut shadow, &mut sunny, SimTime::ZERO)
            .unwrap();
        assert_eq!(r.contained, 1);
        assert_eq!(r.unmapped, 0, "a mapped view losing its peer is a fault");
        assert_eq!(engine.fault_metrics().site_count("essence-mapping-miss"), 1);
    }

    #[test]
    fn injected_deadline_overrun_aborts_the_flush() {
        let (mut shadow, mut sunny, mut engine) = coupled_trees();
        engine.arm_faults(FaultPlan::seeded(5).on_nth_probe(FaultSite::FlushDeadlineOverrun, 1));
        let name = shadow.find_by_id_name("name").unwrap();
        shadow.apply(name, ViewOp::SetText("x".into())).unwrap();
        let err = engine
            .migrate_invalidations(&mut shadow, &mut sunny, SimTime::ZERO)
            .unwrap_err();
        assert_eq!(err.site(), Some(FaultSite::FlushDeadlineOverrun));
        assert_eq!(engine.pending_entries(), 0, "aborted batch is dropped");
    }

    #[test]
    fn watchdog_overrun_aborts_the_flush() {
        let (mut shadow, mut sunny, mut engine) = coupled_trees();
        engine.set_watchdog(crate::supervise::MigrationWatchdog {
            budget: droidsim_kernel::SimDuration::from_micros(50),
            per_entry_cost: droidsim_kernel::SimDuration::from_micros(100),
        });
        let name = shadow.find_by_id_name("name").unwrap();
        shadow.apply(name, ViewOp::SetText("x".into())).unwrap();
        let err = engine
            .migrate_invalidations(&mut shadow, &mut sunny, SimTime::ZERO)
            .unwrap_err();
        assert!(matches!(err, MigrationError::DeadlineExceeded { .. }));
        assert_eq!(err.site(), Some(FaultSite::FlushDeadlineOverrun));
    }

    #[test]
    fn reset_coupling_clears_everything() {
        let (mut shadow, mut sunny, mut engine) = coupled_trees();
        engine.set_flush_policy(batched_engine(100, 1_000));
        let name = shadow.find_by_id_name("name").unwrap();
        shadow.apply(name, ViewOp::SetText("x".into())).unwrap();
        engine
            .migrate_invalidations(&mut shadow, &mut sunny, SimTime::ZERO)
            .unwrap();
        assert_eq!(engine.pending_entries(), 1);
        engine.reset_coupling();
        assert_eq!(engine.pending_entries(), 0);
        assert_eq!(engine.mapped_views(), 0);
        assert!(engine.stale_views().is_empty());
    }

    #[test]
    fn rebuilding_the_mapping_drops_a_stale_queue() {
        let (mut shadow, mut sunny, mut engine) = coupled_trees();
        engine.set_flush_policy(batched_engine(100, 1_000));
        let name = shadow.find_by_id_name("name").unwrap();
        shadow.apply(name, ViewOp::SetText("stale".into())).unwrap();
        engine
            .migrate_invalidations(&mut shadow, &mut sunny, SimTime::ZERO)
            .unwrap();
        assert_eq!(engine.pending_entries(), 1);
        engine.build_mapping(&mut shadow, &mut sunny);
        assert_eq!(engine.pending_entries(), 0);
    }
}
