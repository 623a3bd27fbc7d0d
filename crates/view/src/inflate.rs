//! Layout inflation: template + resources + configuration → view tree.
//!
//! [`inflate`] is lenient: a child declared under a non-container view
//! is skipped, mirroring the fallback-layout leniency elsewhere in the
//! simulator. [`check_nesting`] finds that malformed nesting on the
//! template itself, without building a tree, and surfaces it as
//! [`ViewError::NotAContainer`] — which is what the static analyzer
//! reports instead of silently analysing a truncated tree.
//! [`try_inflate`] is the two together: the check, then [`inflate`].
//!
//! Inflation is a pure function of its inputs and is not cached here:
//! each app process keeps its own inflations per configuration (the
//! activity thread's cache in `droidsim-app`), because only a process
//! re-creating its own activity ever inflates the same layout again.

use crate::error::ViewError;
use crate::kind::ViewKind;
use crate::tree::{ViewId, ViewTree};
use droidsim_config::Configuration;
use droidsim_kernel::Symbol;
use droidsim_resources::{LayoutNode, LayoutTemplate, ResourceTable};

/// Statistics from one inflation, consumed by the cost model (per-view
/// inflate cost, drawable decode bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InflateStats {
    /// Views instantiated.
    pub views_created: usize,
    /// Total decoded drawable bytes loaded.
    pub drawable_bytes: u64,
    /// String resources resolved.
    pub strings_resolved: usize,
}

/// Inflates `template` into a fresh [`ViewTree`], resolving `@string/…`
/// and `@drawable/…` attribute references against `resources` for the
/// given `config`.
///
/// Unresolvable references fall back to the literal (Android raises at
/// build time; the simulator is lenient so workloads can be terse), and
/// a child declared under a non-container view is skipped along with its
/// subtree. Use [`try_inflate`] when a malformed template should be an
/// error instead.
///
/// # Examples
///
/// ```
/// use droidsim_config::Configuration;
/// use droidsim_resources::{LayoutNode, LayoutTemplate, ResourceTable};
/// use droidsim_view::inflate;
///
/// let template = LayoutTemplate::new(
///     "main",
///     LayoutNode::new("LinearLayout")
///         .with_id("root")
///         .with_child(LayoutNode::new("TextView").with_id("title").with_attr("text", "Hi")),
/// );
/// let (tree, stats) = inflate(&template, &ResourceTable::new(), &Configuration::phone_portrait());
/// assert_eq!(stats.views_created, 2);
/// assert!(tree.find_by_id_name("title").is_some());
/// ```
pub fn inflate(
    template: &LayoutTemplate,
    resources: &ResourceTable,
    config: &Configuration,
) -> (ViewTree, InflateStats) {
    let mut tree = ViewTree::new();
    let mut stats = InflateStats::default();
    inflate_node(
        template.root(),
        tree.root(),
        &mut tree,
        resources,
        config,
        &mut stats,
    );
    (tree, stats)
}

/// Strict form of [`inflate`]: a template that places children under a
/// non-container view is rejected as [`ViewError::NotAContainer`] rather
/// than silently truncated. It is [`check_nesting`], then [`inflate`],
/// so a template that passes gets exactly the lenient tree.
///
/// # Errors
///
/// The error [`check_nesting`] returns.
///
/// # Examples
///
/// ```
/// use droidsim_config::Configuration;
/// use droidsim_resources::{LayoutNode, LayoutTemplate, ResourceTable};
/// use droidsim_view::{try_inflate, ViewError};
///
/// let bad = LayoutTemplate::new(
///     "bad",
///     LayoutNode::new("TextView").with_child(LayoutNode::new("Button")),
/// );
/// let err = try_inflate(&bad, &ResourceTable::new(), &Configuration::phone_portrait());
/// assert!(matches!(err, Err(ViewError::NotAContainer { .. })));
/// ```
pub fn try_inflate(
    template: &LayoutTemplate,
    resources: &ResourceTable,
    config: &Configuration,
) -> Result<(ViewTree, InflateStats), ViewError> {
    check_nesting(template)?;
    Ok(inflate(template, resources, config))
}

/// Checks that every node of `template` that declares children is a
/// container, without building a tree.
///
/// # Errors
///
/// [`ViewError::NotAContainer`] for the first offending node in
/// pre-order, carrying the id inflation gives that node: ids follow
/// pre-order after the decor view's 0, and nothing before that node's
/// first child fails to inflate.
pub fn check_nesting(template: &LayoutTemplate) -> Result<(), ViewError> {
    fn first_misnested(node: &LayoutNode, next_id: &mut u64) -> Option<ViewId> {
        *next_id += 1;
        if !node.children.is_empty()
            && !ViewKind::from_class_name(node.class.as_str()).is_container()
        {
            return Some(ViewId::new(*next_id));
        }
        node.children
            .iter()
            .find_map(|child| first_misnested(child, next_id))
    }
    first_misnested(template.root(), &mut 0)
        .map_or(Ok(()), |parent| Err(ViewError::NotAContainer { parent }))
}

fn inflate_node(
    node: &LayoutNode,
    parent: ViewId,
    tree: &mut ViewTree,
    resources: &ResourceTable,
    config: &Configuration,
    stats: &mut InflateStats,
) {
    let kind = ViewKind::from_class_name(node.class.as_str());
    // The only failure adding a view has: `parent` is not a container,
    // and then the subtree is dropped.
    let Ok(id) = tree.add_interned_view(parent, kind, node.id_name) else {
        return;
    };
    stats.views_created += 1;

    for &(key, value) in node.attrs() {
        match key.as_str() {
            "text" => {
                let resolved = resolve_string(value.as_str(), resources, config, stats);
                if let Ok(v) = tree.node_mut(id) {
                    v.attrs.text = Some(resolved);
                }
            }
            "src" => {
                let (asset, bytes) = resolve_drawable(value, resources, config);
                stats.drawable_bytes += bytes;
                if let Ok(v) = tree.node_mut(id) {
                    v.attrs.drawable = Some((asset, bytes));
                }
            }
            "progress" => {
                if let (Ok(p), Ok(v)) = (value.as_str().parse::<i32>(), tree.node_mut(id)) {
                    v.attrs.progress = Some(p);
                }
            }
            "videoUri" => {
                if let Ok(v) = tree.node_mut(id) {
                    v.attrs.video_uri = Some(value.as_str().to_owned());
                }
            }
            _ => {} // layout params etc. — no simulation effect
        }
    }
    // An editable view with `text`, or a progress view with `progress`,
    // is inflated holding user state.
    tree.refresh_stateful(id);

    for child in &node.children {
        inflate_node(child, id, tree, resources, config, stats);
    }
}

fn resolve_string(
    value: &str,
    resources: &ResourceTable,
    config: &Configuration,
    stats: &mut InflateStats,
) -> String {
    if let Some(name) = value.strip_prefix("@string/") {
        stats.strings_resolved += 1;
        resources
            .resolve_string(name, config)
            .unwrap_or(value)
            .to_owned()
    } else {
        value.to_owned()
    }
}

/// A `@drawable/…` reference resolves to the resource's asset; a literal
/// (or an unresolvable reference) is its own asset name, already
/// interned by the layout.
fn resolve_drawable(
    value: Symbol,
    resources: &ResourceTable,
    config: &Configuration,
) -> (Symbol, u64) {
    value
        .as_str()
        .strip_prefix("@drawable/")
        .and_then(|name| resources.resolve_drawable(name, config).ok())
        .unwrap_or((value, 0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use droidsim_config::{Locale, Orientation};
    use droidsim_resources::{Qualifiers, ResourceValue};

    fn resources() -> ResourceTable {
        let mut t = ResourceTable::new();
        t.put("title", Qualifiers::any(), ResourceValue::string("Hello"));
        t.put(
            "title",
            Qualifiers::any().with_language("zh"),
            ResourceValue::string("你好"),
        );
        t.put(
            "hero",
            Qualifiers::any(),
            ResourceValue::drawable("hero_port.png", 1_000),
        );
        t.put(
            "hero",
            Qualifiers::any().with_orientation(Orientation::Landscape),
            ResourceValue::drawable("hero_land.png", 2_000),
        );
        t
    }

    fn template() -> LayoutTemplate {
        LayoutTemplate::new(
            "main",
            LayoutNode::new("LinearLayout")
                .with_id("root")
                .with_children([
                    LayoutNode::new("TextView")
                        .with_id("title")
                        .with_attr("text", "@string/title"),
                    LayoutNode::new("ImageView")
                        .with_id("hero")
                        .with_attr("src", "@drawable/hero"),
                    LayoutNode::new("ProgressBar")
                        .with_id("bar")
                        .with_attr("progress", "30"),
                ]),
        )
    }

    #[test]
    fn inflation_builds_the_tree() {
        let (tree, stats) = inflate(&template(), &resources(), &Configuration::phone_portrait());
        assert_eq!(stats.views_created, 4);
        assert_eq!(tree.view_count(), 5); // + decor
        assert_eq!(stats.strings_resolved, 1);
    }

    #[test]
    fn string_resolution_follows_locale() {
        let config = Configuration::phone_portrait().with_locale(Locale::zh_cn());
        let (tree, _) = inflate(&template(), &resources(), &config);
        let title = tree.find_by_id_name("title").unwrap();
        assert_eq!(
            tree.view(title).unwrap().attrs.text.as_deref(),
            Some("你好")
        );
    }

    #[test]
    fn drawable_resolution_follows_orientation() {
        let (port, sp) = inflate(&template(), &resources(), &Configuration::phone_portrait());
        let (land, sl) = inflate(&template(), &resources(), &Configuration::phone_landscape());
        let hero_p = port.find_by_id_name("hero").unwrap();
        let hero_l = land.find_by_id_name("hero").unwrap();
        assert_eq!(
            port.view(hero_p)
                .unwrap()
                .attrs
                .drawable
                .as_ref()
                .unwrap()
                .0
                .as_str(),
            "hero_port.png"
        );
        assert_eq!(
            land.view(hero_l)
                .unwrap()
                .attrs
                .drawable
                .as_ref()
                .unwrap()
                .0
                .as_str(),
            "hero_land.png"
        );
        assert_eq!(sp.drawable_bytes, 1_000);
        assert_eq!(sl.drawable_bytes, 2_000);
    }

    #[test]
    fn literal_attributes_pass_through() {
        let t = LayoutTemplate::new(
            "lit",
            LayoutNode::new("LinearLayout")
                .with_child(LayoutNode::new("TextView").with_attr("text", "literal")),
        );
        let (tree, stats) = inflate(&t, &ResourceTable::new(), &Configuration::phone_portrait());
        let ids = tree.iter_ids();
        let text_view = ids.last().copied().unwrap();
        assert_eq!(
            tree.view(text_view).unwrap().attrs.text.as_deref(),
            Some("literal")
        );
        assert_eq!(stats.strings_resolved, 0);
    }

    #[test]
    fn missing_resource_falls_back_to_literal() {
        let t = LayoutTemplate::new(
            "miss",
            LayoutNode::new("FrameLayout")
                .with_child(LayoutNode::new("TextView").with_attr("text", "@string/nope")),
        );
        let (tree, _) = inflate(&t, &ResourceTable::new(), &Configuration::phone_portrait());
        let leaf = *tree.iter_ids().last().unwrap();
        assert_eq!(
            tree.view(leaf).unwrap().attrs.text.as_deref(),
            Some("@string/nope")
        );
    }

    #[test]
    fn lenient_inflation_skips_children_of_leaf_views() {
        let t = LayoutTemplate::new(
            "bad",
            LayoutNode::new("LinearLayout").with_children([
                LayoutNode::new("TextView")
                    .with_id("leaf")
                    .with_child(LayoutNode::new("Button").with_id("orphan")),
                LayoutNode::new("TextView").with_id("after"),
            ]),
        );
        let (tree, stats) = inflate(&t, &ResourceTable::new(), &Configuration::phone_portrait());
        assert!(tree.find_by_id_name("leaf").is_some());
        assert!(tree.find_by_id_name("after").is_some(), "siblings survive");
        assert!(tree.find_by_id_name("orphan").is_none(), "subtree dropped");
        assert_eq!(stats.views_created, 3);
    }

    #[test]
    fn strict_inflation_rejects_children_of_leaf_views() {
        let t = LayoutTemplate::new(
            "bad",
            LayoutNode::new("TextView").with_child(LayoutNode::new("Button")),
        );
        let err = try_inflate(&t, &ResourceTable::new(), &Configuration::phone_portrait());
        // The root `TextView` is the first view inflation adds, id 1.
        let expected = ViewError::NotAContainer {
            parent: ViewId::new(1),
        };
        assert_eq!(err.map(|_| ()), Err(expected.clone()));
        assert_eq!(check_nesting(&t), Err(expected));
    }

    #[test]
    fn strict_inflation_matches_lenient_on_well_formed_templates() {
        let (lenient, ls) = inflate(&template(), &resources(), &Configuration::phone_portrait());
        let (strict, ss) = try_inflate(&template(), &resources(), &Configuration::phone_portrait())
            .expect("well-formed");
        assert_eq!(ls, ss);
        assert_eq!(lenient.view_count(), strict.view_count());
    }

    #[test]
    fn inflation_is_a_pure_function_of_its_inputs() {
        let (t, r) = (template(), resources());
        let config = Configuration::phone_portrait();
        let first = inflate(&t, &r, &config);
        for _ in 0..2 {
            assert_eq!(inflate(&t, &r, &config), first);
            assert_eq!(try_inflate(&t, &r, &config), Ok(first.clone()));
        }
    }

    #[test]
    fn progress_attr_parses() {
        let (tree, _) = inflate(&template(), &resources(), &Configuration::phone_portrait());
        let bar = tree.find_by_id_name("bar").unwrap();
        assert_eq!(tree.view(bar).unwrap().attrs.progress, Some(30));
    }
}
