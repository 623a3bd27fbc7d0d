//! Cost breakdown: where each handling path's milliseconds go.
//!
//! The paper explains *why* the flip is fast (no creation, no mapping
//! build) but never itemises the costs; this harness prints the per-step
//! decomposition of each path straight from the calibrated model, so the
//! aggregate latencies in Figs. 7/10/14 can be audited step by step.

use droidsim_metrics::{AppCostProfile, CostModel, CostStep};

/// One handling path's decomposition.
#[derive(Debug, Clone)]
pub struct PathBreakdown {
    /// Path label.
    pub path: &'static str,
    /// Steps in execution order.
    pub steps: Vec<CostStep>,
}

impl PathBreakdown {
    /// Sum over the steps, in ms.
    pub fn total_ms(&self) -> f64 {
        self.steps
            .iter()
            .map(|(_, cost)| cost.as_millis_f64())
            .sum()
    }
}

/// The full breakdown for one app profile.
#[derive(Debug, Clone)]
pub struct Breakdown {
    /// The profile decomposed.
    pub profile: AppCostProfile,
    /// One entry per handling path.
    pub paths: Vec<PathBreakdown>,
}

impl Breakdown {
    /// Renders the decomposition.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "Cost breakdown (complexity {:.2}, {} views)\n",
            self.profile.complexity, self.profile.view_count
        ));
        for path in &self.paths {
            out.push_str(&format!(
                "\n{} — total {:.2} ms\n",
                path.path,
                path.total_ms()
            ));
            for (name, cost) in &path.steps {
                let ms = cost.as_millis_f64();
                let share = ms / path.total_ms() * 100.0;
                out.push_str(&format!("  {name:<28} {ms:>8.2} ms {share:>5.1}%\n"));
            }
        }
        out
    }
}

/// Computes the decomposition for a profile: each change path's steps
/// as the cost model lists them.
pub fn breakdown(profile: AppCostProfile) -> Breakdown {
    let m = CostModel::calibrated();
    let p = &profile;
    let paths = vec![
        PathBreakdown {
            path: "Android-10 relaunch",
            steps: m.android10_relaunch_steps(p).to_vec(),
        },
        PathBreakdown {
            path: "RCHDroid first change (init)",
            steps: m.rchdroid_init_steps(p).to_vec(),
        },
        PathBreakdown {
            path: "RCHDroid later change (flip)",
            steps: m.rchdroid_flip_steps(p).to_vec(),
        },
        PathBreakdown {
            path: "RuntimeDroid in-place",
            steps: vec![("reload + reconstruct + relayout", m.runtimedroid(p))],
        },
    ];
    Breakdown { profile, paths }
}

/// The default decomposition (the 4-view benchmark app).
pub fn run() -> Breakdown {
    breakdown(AppCostProfile::benchmark(7))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flip_skips_creation_entirely() {
        let b = run();
        let flip = b.paths.iter().find(|p| p.path.contains("flip")).unwrap();
        assert!(flip.steps.iter().all(|(name, _)| !name.contains("create")));
        assert!(flip.steps.iter().all(|(name, _)| !name.contains("inflate")));
        assert!(flip.steps.iter().all(|(name, _)| !name.contains("mapping")));
    }

    #[test]
    fn creation_dominates_the_init_path() {
        let b = run();
        let init = b.paths.iter().find(|p| p.path.contains("init")).unwrap();
        let (_, create) = init
            .steps
            .iter()
            .find(|(name, _)| name.contains("create"))
            .unwrap();
        assert!(
            create.as_millis_f64() > init.total_ms() * 0.25,
            "creation is the biggest single step"
        );
    }
}
