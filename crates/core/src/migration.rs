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
//! The mapping is the `sunny_peer` pointer each view holds into the other
//! tree, set on both trees by [`MigrationEngine::build_mapping`], so a
//! coin flip migrates the other way without a rebuild. Lazy migration is
//! one loop, run once per async delivery (one *flush*): it drains the
//! shadow tree's invalidations, which the tree already coalesces per
//! view, and copies each dirty view's essence to the peer its pointer
//! names.

use crate::supervise::{FaultLog, FaultRecord, MigrationError, MigrationWatchdog};
use droidsim_faults::{FaultPlan, FaultSite};
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
    /// Raw invalidations the shadow tree folded into an already-dirty
    /// view during the delivery: essence copies saved by coalescing.
    pub coalesced: usize,
    /// Views whose migration faulted and was contained per-view (rung 1
    /// of the degradation ladder): the view was skipped and marked
    /// stale, the rest of the batch migrated.
    pub contained: usize,
}

/// The Table-1 essence copy of `shadow_view` (in `shadow`) onto its peer
/// `peer` (in `sunny`), per the policy for the view's basic class.
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
/// The mapping itself lives on the trees, as each view's `sunny_peer`
/// pointer. The engine holds what migrating through it needs: the fault
/// schedule and watchdog probed on every flush, the views rung-1
/// containment skipped, and lifetime [`MigrationMetrics`].
#[derive(Debug, Clone, Default)]
pub struct MigrationEngine {
    mapped_views: usize,
    metrics: MigrationMetrics,
    /// Fault schedule probed on the flush path (sites
    /// `essence-mapping-miss`, `attribute-copy`,
    /// `flush-deadline-overrun`). Disarmed by default.
    faults: FaultPlan,
    watchdog: MigrationWatchdog,
    fault_log: FaultLog,
    /// Views skipped by rung-1 containment since the last mapping build.
    stale_views: Vec<ViewId>,
    /// Reusable batch buffer: a flush drains the shadow's dirty views into
    /// it and the emptied vector returns afterwards, so steady-state
    /// flushing allocates nothing per call.
    batch: Vec<ViewId>,
}

impl MigrationEngine {
    /// Creates an engine with no coupling built.
    pub fn new() -> Self {
        MigrationEngine::default()
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

    /// Tears the coupling down: the stale set and the mapped count.
    /// Called when a fallback restart abandons shadow/sunny handling; the
    /// peer pointers die with the trees it destroys.
    pub fn reset_coupling(&mut self) {
        self.stale_views.clear();
        self.mapped_views = 0;
    }

    /// Lifetime flush/coalescing metrics.
    pub fn metrics(&self) -> &MigrationMetrics {
        &self.metrics
    }

    /// Builds the essence-based mapping **both ways**: each tree's views
    /// store peers into the other, so a coin flip swaps roles without
    /// rebuilding (the paper: the flip "avoids … the building of the
    /// essence-based mapping"). In either direction a repeated id name
    /// maps to its [`ViewTree::find_by_id_name`] bearer on the other side.
    /// Returns the number of shadow views mapped.
    pub fn build_mapping(&mut self, shadow: &mut ViewTree, sunny: &mut ViewTree) -> usize {
        // The id-name indexes are cached on the trees (maintained
        // incrementally on structural ops), so no index is rebuilt here.
        let mapped = shadow.set_sunny_peers(sunny.id_name_index());
        sunny.set_sunny_peers(shadow.id_name_index());
        self.stale_views.clear();
        self.mapped_views = mapped;
        mapped
    }

    /// Views mapped by the last [`MigrationEngine::build_mapping`].
    pub fn mapped_views(&self) -> usize {
        self.mapped_views
    }

    /// Lazy migration, one flush per delivery: drains the shadow tree's
    /// recorded invalidations and copies each dirty view's essence to
    /// the sunny peer its pointer names. A delivery that dirtied nothing
    /// returns an empty report without probing a fault site.
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
    pub fn migrate_invalidations(
        &mut self,
        shadow: &mut ViewTree,
        sunny: &mut ViewTree,
    ) -> Result<MigrationReport, MigrationError> {
        // Drain into the engine's reusable batch buffer; it is handed
        // back (emptied, capacity kept) whichever way the flush ends.
        let mut batch = std::mem::take(&mut self.batch);
        let mut raw = 0;
        shadow.drain_dirty_with(|view, count| {
            batch.push(view);
            raw += count;
        });
        let result = self.flush(shadow, sunny, &batch, raw);
        batch.clear();
        self.batch = batch;
        result
    }

    /// The body of [`MigrationEngine::migrate_invalidations`] over an
    /// already-drained batch of `raw` invalidations.
    fn flush(
        &mut self,
        shadow: &ViewTree,
        sunny: &mut ViewTree,
        batch: &[ViewId],
        raw: usize,
    ) -> Result<MigrationReport, MigrationError> {
        if batch.is_empty() {
            return Ok(MigrationReport::default());
        }
        if self.faults.should_inject(FaultSite::FlushDeadlineOverrun) {
            return Err(MigrationError::Injected {
                site: FaultSite::FlushDeadlineOverrun,
            });
        }
        if let Some(needed) = self.watchdog.exceeded(batch.len()) {
            return Err(MigrationError::DeadlineExceeded {
                budget: self.watchdog.budget,
                needed,
            });
        }
        let mut report = MigrationReport::default();
        for &view in batch {
            report.examined += 1;
            let missed = self.faults.should_inject(FaultSite::EssenceMappingMiss);
            let Some(peer) = shadow.view(view).ok().and_then(|n| n.sunny_peer) else {
                // An anonymous view, or one the other layout lacks.
                report.unmapped += 1;
                continue;
            };
            if missed {
                // A view that *was* mapped losing its peer is a fault.
                self.contain(view, FaultSite::EssenceMappingMiss, &mut report);
                continue;
            }
            if self.faults.should_inject(FaultSite::AttributeCopy) {
                self.contain(view, FaultSite::AttributeCopy, &mut report);
                continue;
            }
            match panic::catch_unwind(AssertUnwindSafe(|| copy_essence(shadow, sunny, view, peer)))
            {
                Ok(Ok(())) => report.migrated += 1,
                Ok(Err(e)) if e.is_crash() => return Err(MigrationError::Tree(e)),
                Ok(Err(_)) | Err(_) => self.contain(view, FaultSite::AttributeCopy, &mut report),
            }
        }
        report.coalesced = raw.saturating_sub(report.examined);
        self.metrics.record_flush(report.examined, raw);
        Ok(report)
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
            .migrate_invalidations(&mut shadow, &mut sunny)
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
            .migrate_invalidations(&mut shadow, &mut sunny)
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
            .migrate_invalidations(&mut shadow, &mut sunny)
            .unwrap();
        assert!(!sunny.drain_invalidations().is_empty(), "sunny redraws");
    }

    #[test]
    fn drained_invalidations_do_not_remigrate() {
        let (mut shadow, mut sunny, mut engine) = coupled_trees();
        let name = shadow.find_by_id_name("name").unwrap();
        shadow.apply(name, ViewOp::SetText("x".into())).unwrap();
        engine
            .migrate_invalidations(&mut shadow, &mut sunny)
            .unwrap();
        let second = engine
            .migrate_invalidations(&mut shadow, &mut sunny)
            .unwrap();
        assert_eq!(second.examined, 0);
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
            .migrate_invalidations(&mut shadow, &mut sunny)
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
            .migrate_invalidations(&mut shadow, &mut sunny)
            .unwrap();
        let sf = sunny.find_by_id_name("fancy").unwrap();
        assert_eq!(
            sunny.view(sf).unwrap().attrs.text.as_deref(),
            Some("styled")
        );
    }

    #[test]
    fn pointer_resolution_survives_a_coin_flip() {
        let (mut side0, mut side1, mut engine) = coupled_trees();
        // Forward direction: side0 is the shadow.
        let name = side0.find_by_id_name("name").unwrap();
        side0.apply(name, ViewOp::SetText("fwd".into())).unwrap();
        engine
            .migrate_invalidations(&mut side0, &mut side1)
            .unwrap();
        // Coin flip: roles swap, the mapping is NOT rebuilt. Side1 is now
        // the shadow; resolution goes through its own peer pointers.
        let peer_name = side1.find_by_id_name("name").unwrap();
        side1
            .apply(peer_name, ViewOp::SetText("rev".into()))
            .unwrap();
        let r = engine
            .migrate_invalidations(&mut side1, &mut side0)
            .unwrap();
        assert_eq!(r.migrated, 1);
        assert_eq!(side0.view(name).unwrap().attrs.text.as_deref(), Some("rev"));
    }

    /// Two trees directly under their decor views, one view per entry of
    /// `names`, coupled with `side0` as the shadow.
    fn named_pair(side0: &[&str], side1: &[&str]) -> (ViewTree, ViewTree, MigrationEngine) {
        let build = |names: &[&str]| {
            let mut t = ViewTree::new();
            for name in names {
                t.add_view(t.root(), ViewKind::TextView, Some(name))
                    .unwrap();
            }
            t
        };
        let (mut shadow, mut sunny) = (build(side0), build(side1));
        let mut engine = MigrationEngine::new();
        engine.build_mapping(&mut shadow, &mut sunny);
        (shadow, sunny, engine)
    }

    #[test]
    fn a_flip_migrates_a_repeated_name_to_the_bearer_its_pointer_names() {
        // Side 0 has two `x`, side 1 has one; both `x` on side 0 point at
        // it, and it points back at the first (lowest-id) bearer.
        let (mut side0, mut side1, mut engine) = named_pair(&["x", "x"], &["x"]);
        let (first, second) = (ViewId::new(1), ViewId::new(2));
        let x = side1.find_by_id_name("x").unwrap();
        assert_eq!(side1.view(x).unwrap().sunny_peer, Some(first));
        // After a flip side 1 is the shadow.
        side1.apply(x, ViewOp::SetText("flipped".into())).unwrap();
        let r = engine
            .migrate_invalidations(&mut side1, &mut side0)
            .unwrap();
        assert_eq!((r.migrated, r.unmapped), (1, 0));
        assert_eq!(
            side0.view(first).unwrap().attrs.text.as_deref(),
            Some("flipped")
        );
        assert_eq!(side0.view(second).unwrap().attrs.text, None);
    }

    #[test]
    fn a_flip_migrates_every_bearer_of_a_repeated_name() {
        // Side 1 has two `y`, side 0 has one. No side-0 view points at the
        // second `y`, but its own pointer names side 0's `y`.
        let (mut side0, mut side1, mut engine) = named_pair(&["y"], &["y", "y"]);
        let second = ViewId::new(2);
        side1
            .apply(second, ViewOp::SetText("second".into()))
            .unwrap();
        let r = engine
            .migrate_invalidations(&mut side1, &mut side0)
            .unwrap();
        assert_eq!((r.migrated, r.unmapped), (1, 0), "not lost");
        let y = side0.find_by_id_name("y").unwrap();
        assert_eq!(side0.view(y).unwrap().attrs.text.as_deref(), Some("second"));
    }

    #[test]
    fn metrics_track_batches_and_coalescing() {
        let (mut shadow, mut sunny, mut engine) = coupled_trees();
        let name = shadow.find_by_id_name("name").unwrap();
        let bar = shadow.find_by_id_name("bar").unwrap();
        // Three raw invalidations in one delivery; the tree coalesces the
        // two on `name`, so two views are examined.
        shadow.apply(name, ViewOp::SetText("a".into())).unwrap();
        shadow.apply(name, ViewOp::SetText("b".into())).unwrap();
        shadow.apply(bar, ViewOp::SetProgress(1)).unwrap();
        let r = engine
            .migrate_invalidations(&mut shadow, &mut sunny)
            .unwrap();
        assert_eq!((r.examined, r.coalesced), (2, 1));
        let m = engine.metrics();
        assert_eq!(m.flushes, 1);
        assert_eq!(m.raw_invalidations, 3);
        assert_eq!(m.coalesced_entries, 2);
        assert!((m.coalesce_ratio() - 1.5).abs() < 1e-12);
        assert_eq!(m.batch_size.max(), 2.0);
        assert_eq!(m.batch_size.count(), 1);
    }

    #[test]
    fn every_delivery_flushes_at_once() {
        let (mut shadow, mut sunny, mut engine) = coupled_trees();
        let name = shadow.find_by_id_name("name").unwrap();
        for i in 0..4 {
            shadow
                .apply(name, ViewOp::SetText(format!("v{i}")))
                .unwrap();
            let r = engine
                .migrate_invalidations(&mut shadow, &mut sunny)
                .unwrap();
            assert_eq!(r.migrated, 1);
        }
        // A delivery that dirtied nothing is not a flush.
        engine
            .migrate_invalidations(&mut shadow, &mut sunny)
            .unwrap();
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
            .migrate_invalidations(&mut shadow, &mut sunny)
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
            .migrate_invalidations(&mut shadow, &mut sunny)
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
            .migrate_invalidations(&mut shadow, &mut sunny)
            .unwrap_err();
        assert_eq!(err.site(), Some(FaultSite::FlushDeadlineOverrun));
        let r = engine
            .migrate_invalidations(&mut shadow, &mut sunny)
            .unwrap();
        assert_eq!(r.examined, 0, "aborted batch is dropped");
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
            .migrate_invalidations(&mut shadow, &mut sunny)
            .unwrap_err();
        assert!(matches!(err, MigrationError::DeadlineExceeded { .. }));
        assert_eq!(err.site(), Some(FaultSite::FlushDeadlineOverrun));
    }

    #[test]
    fn reset_coupling_clears_everything() {
        let (mut shadow, mut sunny, mut engine) = coupled_trees();
        engine.arm_faults(FaultPlan::seeded(6).on_nth_probe(FaultSite::AttributeCopy, 1));
        let name = shadow.find_by_id_name("name").unwrap();
        shadow.apply(name, ViewOp::SetText("x".into())).unwrap();
        engine
            .migrate_invalidations(&mut shadow, &mut sunny)
            .unwrap();
        assert_eq!(engine.stale_views(), [name]);
        engine.reset_coupling();
        assert_eq!(engine.mapped_views(), 0);
        assert!(engine.stale_views().is_empty());
    }
}
