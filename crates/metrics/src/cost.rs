//! The latency cost model.
//!
//! Every constant is in milliseconds of virtual time and was calibrated
//! once against the paper's reported numbers (see the calibration tests at
//! the bottom of this file). Composite costs are sums of exactly the steps
//! each protocol executes, and the three change paths list theirs as
//! [`CostStep`]s (`*_steps`), which the `breakdown` harness renders:
//!
//! | Protocol | Steps |
//! |---|---|
//! | Android-10 relaunch | 2×IPC + destroy + create + inflate(n) + restore(n) + fresh resume(n) |
//! | RCHDroid first change (init) | 2×IPC + shadow enter(n) + create + inflate(n) + restore(n) + mapping(n) + coupling + fresh resume(n) |
//! | RCHDroid later change (flip) | 2×IPC + stack search + reorder + state swap + existing resume |
//! | Self-handled (`configChanges`) | 1×IPC + `onConfigurationChanged` + relayout(n) |
//! | RuntimeDroid | resource reload(n) + in-place reconstruction(n) + relayout (no restart, app level) |
//!
//! The flip path is O(1) in view count because the reused shadow instance
//! was built for the *previous* configuration — which, for A→B→A toggles,
//! is exactly the configuration being flipped back to.

use droidsim_kernel::SimDuration;

/// One step of a protocol's cost: its label and its price.
pub type CostStep = (&'static str, SimDuration);

/// The saturating sum of `steps`, in order.
fn total(steps: &[CostStep]) -> SimDuration {
    steps.iter().map(|&(_, cost)| cost).sum()
}

/// Per-app scaling of the cost model.
///
/// `complexity` multiplies the CPU-bound steps (class loading, layout,
/// first draw) — ≈1.0 for the paper's small TP-set apps, 2–3 for the
/// Google-Play top-100 apps. `view_count` drives the O(n) terms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppCostProfile {
    /// CPU-cost multiplier for framework steps.
    pub complexity: f64,
    /// Views in the activity's tree.
    pub view_count: usize,
}

impl AppCostProfile {
    /// A profile with unit complexity — the benchmark app shape.
    pub fn benchmark(view_count: usize) -> Self {
        AppCostProfile {
            complexity: 1.0,
            view_count,
        }
    }
}

impl Default for AppCostProfile {
    fn default() -> Self {
        AppCostProfile {
            complexity: 1.0,
            view_count: 4,
        }
    }
}

/// The model's tunable constants (milliseconds).
#[derive(Debug, Clone, PartialEq)]
pub struct CostParams {
    /// One binder hop between activity thread and ATMS.
    pub ipc_one_way_ms: f64,
    /// Destroying an activity instance (views, window teardown).
    pub destroy_ms: f64,
    /// Creating an activity instance (class init, window setup).
    pub create_ms: f64,
    /// Layout parse fixed cost.
    pub inflate_base_ms: f64,
    /// Per-view instantiation cost.
    pub inflate_per_view_ms: f64,
    /// Instance-state restore fixed cost.
    pub restore_base_ms: f64,
    /// Per-view state restore cost.
    pub restore_per_view_ms: f64,
    /// First measure/layout/draw of a fresh instance.
    pub resume_fresh_ms: f64,
    /// Per-view share of the first layout pass.
    pub layout_per_view_ms: f64,
    /// Re-showing an already-built instance (flip path).
    pub resume_existing_ms: f64,
    /// Fraction of `resume_existing_ms` that is fixed compositor/window
    /// work independent of app complexity (the rest scales with it).
    /// Re-showing an existing tree skips class loading and inflation, so
    /// the flip's advantage *grows* with app size — the paper's 25.46 %
    /// (TP-27) vs 38.60 % (top-100) savings gap.
    pub resume_existing_fixed_share: f64,
    /// Pausing and snapshotting into the shadow bundle (fixed part).
    pub shadow_enter_ms: f64,
    /// Per-view share of the shadow snapshot.
    pub shadow_enter_per_view_ms: f64,
    /// Hash-table build fixed cost (essence-based mapping).
    pub mapping_base_ms: f64,
    /// Per-view hash insert + lookup.
    pub mapping_per_view_ms: f64,
    /// Per-view sunny-peer pointer store.
    pub peer_set_per_view_ms: f64,
    /// One-off cost of coupling two instances on the first change.
    pub init_coupling_ms: f64,
    /// Searching the task stack for a shadow record.
    pub stack_search_ms: f64,
    /// Reordering the found record to the top.
    pub reorder_ms: f64,
    /// Swapping shadow/sunny states between the two records.
    pub state_swap_ms: f64,
    /// Lazy migration fixed cost per async return.
    pub migrate_base_ms: f64,
    /// Lazy migration per migrated view (get attrs + set on peer).
    pub migrate_per_view_ms: f64,
    /// `onConfigurationChanged` dispatch for self-handling apps.
    pub on_config_changed_ms: f64,
    /// In-place relayout fixed cost for self-handling apps.
    pub relayout_base_ms: f64,
    /// In-place relayout per-view cost.
    pub relayout_per_view_ms: f64,
    /// RuntimeDroid: app-level resource reload fixed cost.
    pub rtd_reload_base_ms: f64,
    /// RuntimeDroid: per-view resource reload.
    pub rtd_reload_per_view_ms: f64,
    /// RuntimeDroid: in-place view reconstruction fixed cost.
    pub rtd_reconstruct_base_ms: f64,
    /// RuntimeDroid: per-view reconstruction.
    pub rtd_reconstruct_per_view_ms: f64,
    /// RuntimeDroid: final relayout.
    pub rtd_relayout_ms: f64,
    /// One shadow-GC pass (background).
    pub gc_run_ms: f64,
}

impl Default for CostParams {
    fn default() -> Self {
        // Calibrated against §5.3/§5.4 of the paper; see the tests below.
        CostParams {
            ipc_one_way_ms: 2.0,
            destroy_ms: 20.0,
            create_ms: 58.0,
            inflate_base_ms: 11.0,
            inflate_per_view_ms: 0.15,
            restore_base_ms: 3.0,
            restore_per_view_ms: 0.06,
            resume_fresh_ms: 42.65,
            layout_per_view_ms: 0.24,
            resume_existing_ms: 78.2,
            resume_existing_fixed_share: 0.65,
            shadow_enter_ms: 5.0,
            shadow_enter_per_view_ms: 0.06,
            mapping_base_ms: 1.6,
            mapping_per_view_ms: 0.63,
            peer_set_per_view_ms: 0.57,
            init_coupling_ms: 22.5,
            stack_search_ms: 1.5,
            reorder_ms: 1.3,
            state_swap_ms: 4.2,
            migrate_base_ms: 7.83,
            migrate_per_view_ms: 0.77,
            on_config_changed_ms: 8.0,
            relayout_base_ms: 12.0,
            relayout_per_view_ms: 0.3,
            rtd_reload_base_ms: 9.0,
            rtd_reload_per_view_ms: 0.2,
            rtd_reconstruct_base_ms: 25.0,
            rtd_reconstruct_per_view_ms: 0.5,
            rtd_relayout_ms: 30.0,
            gc_run_ms: 0.4,
        }
    }
}

/// The latency cost model.
///
/// # Examples
///
/// ```
/// use droidsim_metrics::{AppCostProfile, CostModel};
///
/// let model = CostModel::calibrated();
/// let p = AppCostProfile::benchmark(4);
/// let stock = model.android10_relaunch(&p);
/// let flip = model.rchdroid_flip(&p);
/// assert!(flip < stock, "the coin flip beats a restart");
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CostModel {
    params: CostParams,
}

impl CostModel {
    /// The model with paper-calibrated constants.
    pub fn calibrated() -> Self {
        CostModel {
            params: CostParams::default(),
        }
    }

    /// The constants in use.
    pub fn params(&self) -> &CostParams {
        &self.params
    }

    fn ms(value: f64) -> SimDuration {
        SimDuration::from_millis_f64(value)
    }

    // ---- individual steps ----

    /// One binder hop.
    pub fn ipc(&self) -> SimDuration {
        Self::ms(self.params.ipc_one_way_ms)
    }

    /// Destroying an instance.
    pub fn destroy(&self, p: &AppCostProfile) -> SimDuration {
        Self::ms(self.params.destroy_ms * p.complexity)
    }

    /// Creating an instance (constructor + window).
    pub fn create(&self, p: &AppCostProfile) -> SimDuration {
        Self::ms(self.params.create_ms * p.complexity)
    }

    /// Inflating the layout.
    pub fn inflate(&self, p: &AppCostProfile) -> SimDuration {
        Self::ms(
            (self.params.inflate_base_ms + self.params.inflate_per_view_ms * p.view_count as f64)
                * p.complexity,
        )
    }

    /// Restoring instance state into a fresh tree.
    pub fn restore(&self, p: &AppCostProfile) -> SimDuration {
        Self::ms(
            (self.params.restore_base_ms + self.params.restore_per_view_ms * p.view_count as f64)
                * p.complexity,
        )
    }

    /// First measure/layout/draw of a fresh instance.
    pub fn resume_fresh(&self, p: &AppCostProfile) -> SimDuration {
        Self::ms(
            (self.params.resume_fresh_ms + self.params.layout_per_view_ms * p.view_count as f64)
                * p.complexity,
        )
    }

    /// Re-showing an existing instance.
    pub fn resume_existing(&self, p: &AppCostProfile) -> SimDuration {
        let fixed = self.params.resume_existing_fixed_share;
        Self::ms(self.params.resume_existing_ms * (fixed + (1.0 - fixed) * p.complexity))
    }

    /// Entering the shadow state (pause + snapshot).
    pub fn shadow_enter(&self, p: &AppCostProfile) -> SimDuration {
        Self::ms(
            self.params.shadow_enter_ms
                + self.params.shadow_enter_per_view_ms * p.view_count as f64,
        )
    }

    /// Building the essence-based mapping (hash build + peer stores).
    pub fn mapping_build(&self, view_count: usize) -> SimDuration {
        Self::ms(
            self.params.mapping_base_ms
                + (self.params.mapping_per_view_ms + self.params.peer_set_per_view_ms)
                    * view_count as f64,
        )
    }

    /// Searching the task stack for a shadow record.
    pub fn stack_search(&self) -> SimDuration {
        Self::ms(self.params.stack_search_ms)
    }

    /// Reordering the record to the top.
    pub fn reorder(&self) -> SimDuration {
        Self::ms(self.params.reorder_ms)
    }

    /// Swapping shadow/sunny states.
    pub fn state_swap(&self) -> SimDuration {
        Self::ms(self.params.state_swap_ms)
    }

    /// One-off instance-coupling cost on the first change.
    pub fn init_coupling(&self) -> SimDuration {
        Self::ms(self.params.init_coupling_ms)
    }

    /// One background GC pass.
    pub fn gc_run(&self) -> SimDuration {
        Self::ms(self.params.gc_run_ms)
    }

    /// Lazy migration of `migrated_views` invalidated views.
    pub fn async_migration(&self, migrated_views: usize) -> SimDuration {
        Self::ms(
            self.params.migrate_base_ms + self.params.migrate_per_view_ms * migrated_views as f64,
        )
    }

    // ---- composite protocol costs ----

    /// Stock Android 10's relaunch, step by step: destroy + recreate.
    pub fn android10_relaunch_steps(&self, p: &AppCostProfile) -> [CostStep; 6] {
        [
            ("IPC (2 hops)", self.ipc().saturating_mul(2)),
            ("destroy old instance", self.destroy(p)),
            ("create new instance", self.create(p)),
            ("inflate layout", self.inflate(p)),
            ("restore instance state", self.restore(p)),
            ("first measure/layout/draw", self.resume_fresh(p)),
        ]
    }

    /// Stock Android 10: the sum of [`CostModel::android10_relaunch_steps`].
    pub fn android10_relaunch(&self, p: &AppCostProfile) -> SimDuration {
        total(&self.android10_relaunch_steps(p))
    }

    /// RCHDroid's first runtime change (no shadow exists yet), step by
    /// step: shadow the old instance, create the sunny one, build the
    /// mapping.
    pub fn rchdroid_init_steps(&self, p: &AppCostProfile) -> [CostStep; 8] {
        [
            ("IPC (2 hops)", self.ipc().saturating_mul(2)),
            ("enter shadow + snapshot", self.shadow_enter(p)),
            ("create sunny instance", self.create(p)),
            ("inflate layout", self.inflate(p)),
            ("restore from shadow bundle", self.restore(p)),
            ("build essence mapping", self.mapping_build(p.view_count)),
            ("couple instances", self.init_coupling()),
            ("first measure/layout/draw", self.resume_fresh(p)),
        ]
    }

    /// RCHDroid's first runtime change: the sum of
    /// [`CostModel::rchdroid_init_steps`].
    pub fn rchdroid_init(&self, p: &AppCostProfile) -> SimDuration {
        total(&self.rchdroid_init_steps(p))
    }

    /// RCHDroid's steady state, step by step: coin-flip the coupled
    /// shadow back.
    pub fn rchdroid_flip_steps(&self, p: &AppCostProfile) -> [CostStep; 5] {
        [
            ("IPC (2 hops)", self.ipc().saturating_mul(2)),
            ("search task stack", self.stack_search()),
            ("reorder record to top", self.reorder()),
            ("swap shadow/sunny states", self.state_swap()),
            ("re-show existing instance", self.resume_existing(p)),
        ]
    }

    /// RCHDroid's steady state: the sum of
    /// [`CostModel::rchdroid_flip_steps`].
    pub fn rchdroid_flip(&self, p: &AppCostProfile) -> SimDuration {
        total(&self.rchdroid_flip_steps(p))
    }

    /// An app that declared `android:configChanges`: one IPC delivers
    /// `onConfigurationChanged`, the app relayouts in place.
    pub fn handled_by_app(&self, p: &AppCostProfile) -> SimDuration {
        self.ipc()
            + Self::ms(
                (self.params.on_config_changed_ms
                    + self.params.relayout_base_ms
                    + self.params.relayout_per_view_ms * p.view_count as f64)
                    * p.complexity,
            )
    }

    /// The RuntimeDroid baseline: app-level restart masking with dynamic
    /// migration (no new instance, no system IPC round trip).
    pub fn runtimedroid(&self, p: &AppCostProfile) -> SimDuration {
        Self::ms(
            (self.params.rtd_reload_base_ms
                + self.params.rtd_reload_per_view_ms * p.view_count as f64
                + self.params.rtd_reconstruct_base_ms
                + self.params.rtd_reconstruct_per_view_ms * p.view_count as f64
                + self.params.rtd_relayout_ms)
                * p.complexity,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CostModel {
        CostModel::calibrated()
    }

    fn ms(d: SimDuration) -> f64 {
        d.as_millis_f64()
    }

    #[test]
    fn calibration_android10_near_141_8() {
        // §5.4: Android-10 handles the 4-ImageView benchmark app in
        // ≈141.8 ms. Its tree has 4 images + decor + root + button = 7
        // views.
        let t = ms(model().android10_relaunch(&AppCostProfile::benchmark(7)));
        assert!((t - 141.8).abs() < 1.0, "got {t}");
    }

    #[test]
    fn calibration_flip_is_89_2_and_flat() {
        let m = model();
        for n in [1, 2, 4, 8, 16] {
            let t = ms(m.rchdroid_flip(&AppCostProfile::benchmark(n)));
            assert!((t - 89.2).abs() < 0.01, "flip({n}) = {t}");
        }
    }

    #[test]
    fn calibration_init_range_matches_fig10a() {
        let m = model();
        // Benchmark trees: 1 image → 4 views; 16 images → 19 views.
        let t1 = ms(m.rchdroid_init(&AppCostProfile::benchmark(4)));
        let t16 = ms(m.rchdroid_init(&AppCostProfile::benchmark(19)));
        // Paper: 154.6 ms → 180.2 ms.
        assert!((t1 - 154.6).abs() < 1.5, "init(1 image) = {t1}");
        assert!((t16 - 180.2).abs() < 1.5, "init(16 images) = {t16}");
    }

    #[test]
    fn calibration_async_migration_matches_fig10b() {
        let m = model();
        let t1 = ms(m.async_migration(1));
        let t16 = ms(m.async_migration(16));
        // Paper: 8.6 ms → 20.2 ms, linear.
        assert!((t1 - 8.6).abs() < 0.1, "migrate(1) = {t1}");
        assert!((t16 - 20.2).abs() < 0.2, "migrate(16) = {t16}");
        let t8 = ms(m.async_migration(8));
        let linear = t1 + (t16 - t1) * (7.0 / 15.0);
        assert!((t8 - linear).abs() < 0.01, "linearity");
    }

    #[test]
    fn ordering_flip_lt_stock_lt_init() {
        let m = model();
        let p = AppCostProfile::benchmark(4);
        assert!(m.rchdroid_flip(&p) < m.android10_relaunch(&p));
        assert!(m.android10_relaunch(&p) < m.rchdroid_init(&p));
    }

    #[test]
    fn runtimedroid_beats_rchdroid_flip() {
        // §5.7: "Compared with RCHDroid, RuntimeDroid is more efficient."
        let m = model();
        let p = AppCostProfile::benchmark(4);
        assert!(m.runtimedroid(&p) < m.rchdroid_flip(&p));
    }

    #[test]
    fn self_handling_is_cheapest() {
        let m = model();
        let p = AppCostProfile::benchmark(4);
        assert!(m.handled_by_app(&p) < m.runtimedroid(&p));
    }

    #[test]
    fn complexity_scales_cpu_steps() {
        let m = model();
        let small = AppCostProfile {
            complexity: 1.0,
            view_count: 50,
        };
        let big = AppCostProfile {
            complexity: 2.0,
            view_count: 50,
        };
        let ratio = ms(m.android10_relaunch(&big)) / ms(m.android10_relaunch(&small));
        assert!(
            ratio > 1.9 && ratio < 2.0,
            "IPC is the only unscaled term: {ratio}"
        );
    }

    #[test]
    fn saving_grows_with_app_size() {
        // The flip avoids create+inflate, which scale with complexity —
        // so bigger apps save a larger fraction (25 % for TP-27 vs 38 %
        // for the top-100 in the paper).
        let m = model();
        let small = AppCostProfile {
            complexity: 1.0,
            view_count: 30,
        };
        let big = AppCostProfile {
            complexity: 2.2,
            view_count: 150,
        };
        let saving = |p: &AppCostProfile| {
            let a10 = ms(m.android10_relaunch(p));
            let avg = (ms(m.rchdroid_init(p)) + 3.0 * ms(m.rchdroid_flip(p))) / 4.0;
            (a10 - avg) / a10
        };
        assert!(saving(&big) > saving(&small));
    }

    #[test]
    fn composites_are_step_sums() {
        let m = model();
        let p = AppCostProfile::benchmark(7);
        let manual = m.ipc().saturating_mul(2)
            + m.destroy(&p)
            + m.create(&p)
            + m.inflate(&p)
            + m.restore(&p)
            + m.resume_fresh(&p);
        assert_eq!(manual, m.android10_relaunch(&p));
    }
}
