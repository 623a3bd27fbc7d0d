//! The synthetic benchmark apps (§5.1's second app-set) are
//! `droidsim_app::SimpleApp::with_views(n)`: layouts of N `ImageView`s
//! plus one `Button` whose press starts a 5-second AsyncTask that updates
//! every image. This module holds their base memory, the Fig. 10 sweep
//! and a deep-tree variant.

/// Base PSS assumed for the benchmark app process (small: it is a
/// single-activity skeleton).
pub const BENCHMARK_BASE_MEMORY: u64 = 40 * 1024 * 1024;

/// The view-count sweep of Fig. 10: 2⁰ … 2⁴.
pub fn view_sweep() -> Vec<usize> {
    vec![1, 2, 4, 8, 16]
}

/// A deep-tree benchmark app: `depth` nested `LinearLayout`s with one
/// `EditText` at the bottom. The paper's benchmark apps are wide
/// (siblings); deep nesting stresses the recursive machinery (hierarchy
/// save, grafting, mapping, layout) differently — RCHDroid's behaviour
/// must not depend on tree *shape*.
#[derive(Debug)]
pub struct DeepApp {
    resources: droidsim_resources::ResourceTable,
    depth: usize,
}

impl DeepApp {
    /// Builds the app with the given nesting depth (≥ 1).
    pub fn new(depth: usize) -> Self {
        use droidsim_resources::{LayoutNode, LayoutTemplate, Qualifiers, ResourceValue};
        let depth = depth.max(1);
        let mut node = LayoutNode::new("EditText").with_id("leaf");
        for level in (0..depth).rev() {
            node = LayoutNode::new("LinearLayout")
                .with_id(&format!("level_{level}"))
                .with_child(node);
        }
        let mut resources = droidsim_resources::ResourceTable::new();
        resources.put(
            "activity_main",
            Qualifiers::any(),
            ResourceValue::Layout(LayoutTemplate::new("activity_main", node)),
        );
        DeepApp { resources, depth }
    }

    /// The nesting depth.
    pub fn depth(&self) -> usize {
        self.depth
    }
}

impl droidsim_app::AppModel for DeepApp {
    fn component_name(&self) -> &str {
        "com.deep/.Main"
    }

    fn resources(&self) -> &droidsim_resources::ResourceTable {
        &self.resources
    }

    fn main_layout(&self) -> &str {
        "activity_main"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use droidsim_app::{AppModel, SimpleApp};

    #[test]
    fn sweep_is_powers_of_two() {
        assert_eq!(view_sweep(), vec![1, 2, 4, 8, 16]);
    }

    #[test]
    fn benchmark_app_has_requested_views() {
        let app = SimpleApp::with_views(8);
        assert_eq!(app.image_count(), 8);
        assert_eq!(app.component_name(), "com.bench/.Main");
        assert_eq!(app.button_task().result.ops.len(), 8);
    }
}
