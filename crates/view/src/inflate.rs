//! Layout inflation: template + resources + configuration → view tree.
//!
//! [`inflate`] is lenient: a child declared under a non-container view
//! is skipped, mirroring the fallback-layout leniency elsewhere in the
//! simulator. [`check_nesting`] finds that malformed nesting on the
//! template itself, without building a tree, and surfaces it as
//! [`ViewError::NotAContainer`] — which is what the static analyzer
//! reports instead of silently analysing a truncated tree.
//! [`try_inflate`] is the two together: the check, then [`inflate`].
//! [`inflate_under`] inflates into a live tree, as a fragment joins one.
//!
//! Inflation is a pure function of its inputs and is not cached here:
//! each app process keeps its own inflations per configuration (the
//! activity thread's cache in `droidsim-app`), because only a process
//! re-creating its own activity ever inflates the same layout again.
//!
//! One inflation does each step once. The tree's arena and id-name
//! index are reserved for the template's node count and each
//! container's child list for its template node's children, so filling
//! the tree never reallocates. Each view is written once: its attributes
//! are resolved into locals and the finished node is pushed straight
//! into the arena, under a parent the inflater itself pushed as a
//! container, so no add re-checks its parent. Each distinct class and
//! each distinct `(attribute key, value)` pair is resolved once per
//! call and every repeat reads the answer (an app whose 164 images all
//! show `@drawable/asset` pays one kind resolution and one table
//! lookup). [`InflateStats`] still counts per view: every `@string/`
//! reference and every view's drawable bytes, as the cost model
//! expects.

use crate::attrs::{ExtraAttrs, ViewAttrs};
use crate::error::ViewError;
use crate::kind::ViewKind;
use crate::tree::{ViewId, ViewNode, ViewTree};
use droidsim_config::Configuration;
use droidsim_kernel::id::IdMap;
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
    let (tree, stats, _) = inflate_weighed(template, resources, config);
    (tree, stats)
}

/// [`inflate`], also returning what [`ViewTree::resident_bytes`] reads
/// for the tree, counted while the inflater filled it rather than by a
/// walk: the arena at its capacity, each container's child list as
/// reserved, and each string and box of rarely held attributes the
/// views were given.
pub fn inflate_weighed(
    template: &LayoutTemplate,
    resources: &ResourceTable,
    config: &Configuration,
) -> (ViewTree, InflateStats, u64) {
    let mut tree = ViewTree::with_capacity(template.node_count() + 1);
    let decor = tree.root();
    let mut inflater = Inflater::new(resources, config);
    inflater.attach(&mut tree, decor, template);
    let bytes = tree.inflated_bytes(inflater.reserved_children, inflater.owned_bytes);
    (tree, inflater.stats, bytes)
}

/// Inflates `template` into `tree` under `parent`, as [`inflate`] does
/// under a fresh tree's decor view, and returns the layout root's id.
///
/// # Errors
///
/// [`ViewTree::add_view`]'s errors for `parent`, before any view is added.
pub fn inflate_under(
    tree: &mut ViewTree,
    parent: ViewId,
    template: &LayoutTemplate,
    resources: &ResourceTable,
    config: &Configuration,
) -> Result<ViewId, ViewError> {
    if !tree.view(parent)?.kind.is_container() {
        return Err(ViewError::NotAContainer { parent });
    }
    Ok(Inflater::new(resources, config).attach(tree, parent, template))
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
        if !node.children.is_empty() && !ViewKind::from_class(node.class).is_container() {
            return Some(ViewId::new(*next_id));
        }
        node.children
            .iter()
            .find_map(|child| first_misnested(child, next_id))
    }
    first_misnested(template.root(), &mut 0)
        .map_or(Ok(()), |parent| Err(ViewError::NotAContainer { parent }))
}

/// What one layout attribute sets on a view, resolved once per
/// inflation for each distinct `(key, value)` pair.
enum Resolved {
    /// `text`: the resolved string, and whether it was a `@string/`
    /// reference (which [`InflateStats::strings_resolved`] counts).
    Text(String, bool),
    /// `src`: the drawable's asset and decoded bytes.
    Drawable(Symbol, u64),
    /// `progress`, parsed.
    Progress(i32),
    /// `videoUri`, as written.
    VideoUri(String),
    /// Layout params and the like, or a `progress` that does not parse:
    /// no simulation effect.
    Nothing,
}

impl Resolved {
    fn of(key: Symbol, value: Symbol, resources: &ResourceTable, config: &Configuration) -> Self {
        match key.as_str() {
            "text" => match value.as_str().strip_prefix("@string/") {
                Some(name) => Resolved::Text(
                    resources
                        .resolve_string(name, config)
                        .unwrap_or(value.as_str())
                        .to_owned(),
                    true,
                ),
                None => Resolved::Text(value.as_str().to_owned(), false),
            },
            "src" => {
                let (asset, bytes) = resolve_drawable(value, resources, config);
                Resolved::Drawable(asset, bytes)
            }
            "progress" => value
                .as_str()
                .parse()
                .map_or(Resolved::Nothing, Resolved::Progress),
            "videoUri" => Resolved::VideoUri(value.as_str().to_owned()),
            _ => Resolved::Nothing,
        }
    }
}

/// One call's state: its stats, the answers for the classes and
/// attribute pairs met so far, and what the views own.
struct Inflater<'a> {
    resources: &'a ResourceTable,
    config: &'a Configuration,
    stats: InflateStats,
    /// Each class's kind, and whether its text is user input.
    kinds: IdMap<Symbol, (ViewKind, bool)>,
    resolved: IdMap<(Symbol, Symbol), Resolved>,
    /// Child-list slots reserved so far.
    reserved_children: usize,
    /// Bytes the views were given so far on the heap: their strings at
    /// capacity and their boxes of rarely held attributes.
    owned_bytes: u64,
}

impl<'a> Inflater<'a> {
    fn new(resources: &'a ResourceTable, config: &'a Configuration) -> Self {
        Inflater {
            resources,
            config,
            stats: InflateStats::default(),
            kinds: IdMap::default(),
            resolved: IdMap::default(),
            reserved_children: 0,
            owned_bytes: 0,
        }
    }

    /// Pushes `template`'s views into `tree` under `parent`, a live
    /// container, appends the layout's root to `parent`'s children and
    /// returns the root's id.
    fn attach(&mut self, tree: &mut ViewTree, parent: ViewId, template: &LayoutTemplate) -> ViewId {
        let root = self.add(tree, template.root(), parent);
        if let Ok(parent) = tree.node_mut(parent) {
            parent.children.push(root);
        }
        root
    }

    /// Pushes `node`'s view under `parent`, then its subtree, and
    /// returns the view's id. A view that is not a container drops the
    /// children declared under it (the lenient rule), so every push's
    /// parent is a container.
    fn add(&mut self, tree: &mut ViewTree, node: &LayoutNode, parent: ViewId) -> ViewId {
        let class = node.class;
        let (kind, freezes_text) = *self.kinds.entry(class).or_insert_with(|| {
            let kind = ViewKind::from_class(class);
            (kind, kind.is_editable())
        });
        let (mut text, mut drawable, mut extra) = (None, None, None::<Box<ExtraAttrs>>);
        let (resources, config) = (self.resources, self.config);
        for &(key, value) in node.attrs() {
            let resolved = self
                .resolved
                .entry((key, value))
                .or_insert_with(|| Resolved::of(key, value, resources, config));
            match resolved {
                Resolved::Text(resolved, reference) => {
                    self.stats.strings_resolved += usize::from(*reference);
                    let resolved = resolved.clone();
                    self.owned_bytes += resolved.capacity() as u64;
                    text = Some(resolved);
                }
                Resolved::Drawable(asset, bytes) => {
                    self.stats.drawable_bytes += *bytes;
                    drawable = Some((*asset, *bytes));
                }
                Resolved::Progress(p) => {
                    extra.get_or_insert_with(Box::default).progress = Some(*p);
                }
                Resolved::VideoUri(uri) => {
                    let uri = uri.clone();
                    self.owned_bytes += uri.capacity() as u64;
                    extra.get_or_insert_with(Box::default).video_uri = Some(uri);
                }
                Resolved::Nothing => {}
            }
        }
        if extra.is_some() {
            self.owned_bytes += std::mem::size_of::<ExtraAttrs>() as u64;
        }
        let id = tree.next_id();
        tree.push(ViewNode {
            id,
            id_name: node.id_name,
            kind,
            attrs: ViewAttrs::inflated(text, drawable, extra),
            parent: Some(parent),
            children: Vec::new(),
            saves_state: true,
            freezes_text,
        });
        self.stats.views_created += 1;
        if kind.is_container() && !node.children.is_empty() {
            let mut children = Vec::with_capacity(node.children.len());
            for child in &node.children {
                children.push(self.add(tree, child, id));
            }
            self.reserved_children += children.len();
            if let Ok(view) = tree.node_mut(id) {
                view.children = children;
            }
        }
        id
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

    /// The node-by-node walk [`inflate`] replaced, kept as its oracle:
    /// a growing tree, each view added bare, then every attribute
    /// resolved against the table and written through its own lookup.
    fn oracle_inflate(
        template: &LayoutTemplate,
        resources: &ResourceTable,
        config: &Configuration,
    ) -> (ViewTree, InflateStats) {
        fn walk(
            node: &LayoutNode,
            parent: ViewId,
            tree: &mut ViewTree,
            resources: &ResourceTable,
            config: &Configuration,
            stats: &mut InflateStats,
        ) {
            let kind = ViewKind::from_class_name(node.class.as_str());
            let Ok(id) = tree.add_view(parent, kind, node.id_name.map(Symbol::as_str)) else {
                return;
            };
            stats.views_created += 1;
            for &(key, value) in node.attrs() {
                let v = tree.node_mut(id).unwrap();
                match key.as_str() {
                    "text" => {
                        let text = value.as_str();
                        v.attrs.text = Some(match text.strip_prefix("@string/") {
                            Some(name) => {
                                stats.strings_resolved += 1;
                                resources
                                    .resolve_string(name, config)
                                    .unwrap_or(text)
                                    .to_owned()
                            }
                            None => text.to_owned(),
                        });
                    }
                    "src" => {
                        let (asset, bytes) = resolve_drawable(value, resources, config);
                        stats.drawable_bytes += bytes;
                        v.attrs.drawable = Some((asset, bytes));
                    }
                    "progress" => {
                        if let Ok(p) = value.as_str().parse::<i32>() {
                            v.attrs.set_progress(Some(p));
                        }
                    }
                    "videoUri" => v.attrs.set_video_uri(Some(value.as_str().to_owned())),
                    _ => {}
                }
            }
            tree.refresh_stateful(id);
            for child in &node.children {
                walk(child, id, tree, resources, config, stats);
            }
        }
        let mut tree = ViewTree::new();
        let mut stats = InflateStats::default();
        let decor = tree.root();
        walk(
            template.root(),
            decor,
            &mut tree,
            resources,
            config,
            &mut stats,
        );
        (tree, stats)
    }

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
        assert_eq!(
            (tree.clone(), stats),
            oracle_inflate(&t, &ResourceTable::new(), &Configuration::phone_portrait())
        );
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
        assert_eq!(first, oracle_inflate(&t, &r, &config));
        for _ in 0..2 {
            assert_eq!(inflate(&t, &r, &config), first);
            assert_eq!(try_inflate(&t, &r, &config), Ok(first.clone()));
        }
    }

    #[test]
    fn repeated_references_inflate_to_what_the_node_by_node_walk_gives() {
        // 100 rows: one `@string/` reference, one `@drawable/` reference
        // and one literal, each repeated on every row, plus editable
        // fields and progress bars that inflate holding state.
        let mut root = LayoutNode::new("LinearLayout").with_id("root");
        for i in 0..100 {
            root = root.with_child(
                LayoutNode::new("FrameLayout").with_children([
                    LayoutNode::new("TextView")
                        .with_id(&format!("title{i}"))
                        .with_attr("text", "@string/title"),
                    LayoutNode::new("ImageView")
                        .with_id(&format!("hero{i}"))
                        .with_attr("src", "@drawable/hero"),
                    LayoutNode::new("EditText")
                        .with_id(&format!("field{i}"))
                        .with_attr("text", "literal"),
                    LayoutNode::new("ProgressBar")
                        .with_attr("progress", "30")
                        .with_attr("videoUri", "clip.mp4")
                        .with_attr("layout_width", "match_parent"),
                ]),
            );
        }
        let template = LayoutTemplate::new("rows", root);
        for config in [
            Configuration::phone_portrait(),
            Configuration::phone_landscape(),
        ] {
            let (tree, stats) = inflate(&template, &resources(), &config);
            let (expected, expected_stats) = oracle_inflate(&template, &resources(), &config);
            assert_eq!(tree, expected, "the same tree as the node-by-node walk");
            assert_eq!(stats, expected_stats);
            assert_eq!(tree.save_hierarchy_state(), expected.save_hierarchy_state());
            // Every reference counts, and every view's drawable bytes.
            assert_eq!(stats.views_created, 501);
            assert_eq!(stats.strings_resolved, 100);
            let hero = if config == Configuration::phone_portrait() {
                1_000
            } else {
                2_000
            };
            assert_eq!(stats.drawable_bytes, 100 * hero);
            // Each text view owns its own string.
            let mut texts = std::collections::HashSet::new();
            tree.for_each_id(|id| {
                if let Some(text) = &tree.view(id).unwrap().attrs.text {
                    assert!(texts.insert(text.as_ptr()), "a text view shares its string");
                }
            });
            assert_eq!(texts.len(), 200);
        }
    }

    #[test]
    fn the_counted_bytes_are_the_resident_bytes() {
        for views in [0usize, 1, 64, 2_048] {
            // Labels, typed fields, videos, seek bars and images, every
            // eighth one nested in a frame of its own. Videos and seek
            // bars own a box of rarely held attributes.
            let mut root = LayoutNode::new("LinearLayout").with_id("root");
            for i in 0..views {
                let leaf = match i % 5 {
                    0 => LayoutNode::new("TextView")
                        .with_id(&format!("label{i}"))
                        .with_attr("text", "@string/title"),
                    1 => LayoutNode::new("EditText").with_attr("text", "typed by hand"),
                    2 => LayoutNode::new("VideoView").with_attr("videoUri", "clip.mp4"),
                    3 => LayoutNode::new("SeekBar").with_attr("progress", "7"),
                    _ => LayoutNode::new("ImageView").with_attr("src", "@drawable/hero"),
                };
                root.children.push(if i % 8 == 0 {
                    LayoutNode::new("FrameLayout").with_child(leaf)
                } else {
                    leaf
                });
            }
            let template = LayoutTemplate::new("sized", root);
            let config = Configuration::phone_portrait();
            let (mut tree, stats, bytes) = inflate_weighed(&template, &resources(), &config);
            assert_eq!(stats.views_created, views + views.div_ceil(8) + 1);
            assert_eq!(bytes, tree.resident_bytes(), "{views} views");
            // What a process keeps is the shared tree's clone.
            tree.share();
            assert_eq!(bytes, tree.clone().resident_bytes(), "{views} views, kept");
        }
    }

    #[test]
    fn progress_attr_parses() {
        let (tree, _) = inflate(&template(), &resources(), &Configuration::phone_portrait());
        let bar = tree.find_by_id_name("bar").unwrap();
        assert_eq!(tree.view(bar).unwrap().attrs.progress(), Some(30));
    }
}
