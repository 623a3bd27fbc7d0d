//! Calibrated cost/memory/CPU/energy models and statistics.
//!
//! The paper measures wall-clock latencies, PSS memory, CPU utilisation
//! and board power on real RK3399 hardware. The simulator replaces the
//! hardware with *models* whose structure mirrors the mechanisms that
//! produce the paper's shapes:
//!
//! * [`CostModel`] — per-step latencies (IPC, destroy, create, inflate per
//!   view, restore, resume, mapping build, flip swap, per-view lazy
//!   migration). Composite costs (a full Android-10 relaunch, an RCHDroid
//!   first change, a coin-flip change) are *sums of the steps the protocol
//!   actually executes*, so e.g. the flip path is O(1) in view count while
//!   the init path is O(n) — which is exactly Fig. 10's shape.
//! * [`MemoryModel`] — PSS = app base + Σ alive activity heaps; RCHDroid's
//!   overhead is literally the shadow instance kept alive.
//! * [`trace`] — CPU-utilisation and memory time series (Fig. 9).
//! * [`EnergyModel`] — board power; handling bursts are far below the
//!   power meter's resolution, reproducing the paper's "unchanged 4.03 W".
//! * [`stats`] — mean/std/min/max summaries used by every harness.
//!
//! Calibration targets (§6 of DESIGN.md) are asserted by this crate's
//! tests: Android-10 ≈ 141.8 ms for the 4-view benchmark app, RCHDroid
//! flip ≈ 89.2 ms flat, RCHDroid-init 154.6 → 180.2 ms over 1 → 16 views,
//! async migration 8.6 → 20.2 ms.

pub mod analysis;
pub mod cost;
pub mod daemon;
pub mod energy;
pub mod faults;
pub mod fleet;
pub mod memory;
pub mod migration;
pub mod stats;
pub mod trace;

pub use analysis::AnalysisLedger;
pub use cost::{AppCostProfile, CostModel, CostParams, CostStep};
pub use daemon::DaemonLedger;
pub use energy::EnergyModel;
pub use faults::FaultMetrics;
pub use fleet::{DeviceMetrics, FleetLedger};
pub use memory::{MemoryModel, MemorySnapshot};
pub use migration::MigrationMetrics;
pub use stats::{Histogram, Summary};
pub use trace::{TracePoint, Tracer};
