//! Data-only layout templates.
//!
//! A [`LayoutTemplate`] is the model of a layout XML file: a tree of nodes,
//! each carrying a view *class name*, an optional id name, and string
//! attributes. The view crate's inflater resolves class names to concrete
//! view kinds at inflate time — mirroring how Android resolves XML tags —
//! so this crate stays free of any view-system dependency.
//!
//! Every name in a node is an interned [`Symbol`], the way a compiled
//! layout indexes its string pool: building a node allocates no text,
//! cloning a tree copies `u32`s, and the inflater hands each id straight
//! to the view tree without interning anything.

use droidsim_kernel::Symbol;

/// A node's attribute list in its one canonical form per map: no
/// pairs, one pair inline, or two or more in a key-sorted `Vec`. Most
/// nodes carry at most one attribute (an image's `src`, a label's
/// `text`), so they allocate nothing for it. The list only grows, and
/// every write keeps the form canonical, so the derived `Eq` and `Hash`
/// mean map equality.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
enum Attrs {
    #[default]
    None,
    One([(Symbol, Symbol); 1]),
    Many(Vec<(Symbol, Symbol)>),
}

/// One node of a layout template.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LayoutNode {
    /// View class name, interned, e.g. `"TextView"`, `"ImageView"`,
    /// `"LinearLayout"`.
    pub class: Symbol,
    /// The interned `android:id` name, if the node has one. Views without
    /// ids cannot have their hierarchy state saved — the classic cause of
    /// state loss.
    pub id_name: Option<Symbol>,
    /// Literal attributes (`text`, `src`, …) as interned `(key, value)`
    /// pairs, read through [`LayoutNode::attrs`]. Values starting with
    /// `"@"` are resource references resolved at inflate time. Private
    /// because [`LayoutNode::with_attr`] keeps the list sorted by key
    /// *text* with one entry per key (a repeated key overwrites), so
    /// iteration order, equality and last-write-wins are those of a map
    /// keyed by the attribute name.
    attrs: Attrs,
    /// Child nodes (only meaningful for view groups).
    pub children: Vec<LayoutNode>,
}

impl LayoutNode {
    /// Creates a leaf node of the given class.
    ///
    /// The builders are inlined: a layout builder chains them once per
    /// node, and out of line each call would move the 56-byte node in
    /// and out by value.
    #[inline]
    pub fn new(class: impl Into<Symbol>) -> Self {
        LayoutNode {
            class: class.into(),
            id_name: None,
            attrs: Attrs::None,
            children: Vec::new(),
        }
    }

    /// Sets the id name.
    #[inline]
    pub fn with_id(mut self, id_name: impl Into<Symbol>) -> Self {
        self.id_name = Some(id_name.into());
        self
    }

    /// Sets an attribute; a key set before keeps its place and takes the
    /// new value. A node's first attribute is written in place; a later
    /// one takes the out-of-line path that sorts the list.
    #[inline]
    pub fn with_attr(mut self, key: impl Into<Symbol>, value: impl Into<Symbol>) -> Self {
        let (key, value) = (key.into(), value.into());
        match self.attrs {
            Attrs::None => self.attrs = Attrs::One([(key, value)]),
            _ => self.attrs.insert(key, value),
        }
        self
    }

    /// The attributes as `(key, value)` pairs, in key-text order.
    pub fn attrs(&self) -> &[(Symbol, Symbol)] {
        match &self.attrs {
            Attrs::None => &[],
            Attrs::One(pair) => pair,
            Attrs::Many(pairs) => pairs,
        }
    }

    /// Adds a child node.
    #[inline]
    pub fn with_child(mut self, child: LayoutNode) -> Self {
        self.children.push(child);
        self
    }

    /// Adds many child nodes.
    pub fn with_children(mut self, children: impl IntoIterator<Item = LayoutNode>) -> Self {
        self.children.extend(children);
        self
    }

    /// Total number of nodes in this subtree (including `self`).
    pub fn node_count(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(LayoutNode::node_count)
            .sum::<usize>()
    }

    /// Depth of this subtree (a leaf has depth 1).
    pub fn depth(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(LayoutNode::depth)
            .max()
            .unwrap_or(0)
    }

    /// Pre-order iteration over the subtree.
    pub fn iter(&self) -> LayoutIter<'_> {
        LayoutIter { stack: vec![self] }
    }
}

impl Attrs {
    /// Writes `key` into a list that already holds a pair, keeping the
    /// form canonical.
    fn insert(&mut self, key: Symbol, value: Symbol) {
        *self = match std::mem::take(self) {
            Attrs::None => Attrs::One([(key, value)]),
            Attrs::One([(k, _)]) if k == key => Attrs::One([(key, value)]),
            Attrs::One([pair]) => {
                let mut pairs = Vec::with_capacity(2);
                pairs.push(pair);
                Attrs::Many(insert_sorted(pairs, key, value))
            }
            Attrs::Many(pairs) => Attrs::Many(insert_sorted(pairs, key, value)),
        };
    }
}

/// Writes `key` into a key-text-sorted list: a key already there takes
/// the new value in place, a new one goes where its text sorts.
fn insert_sorted(
    mut pairs: Vec<(Symbol, Symbol)>,
    key: Symbol,
    value: Symbol,
) -> Vec<(Symbol, Symbol)> {
    match pairs.binary_search_by(|(k, _)| k.as_str().cmp(key.as_str())) {
        Ok(at) => pairs[at].1 = value,
        Err(at) => pairs.insert(at, (key, value)),
    }
    pairs
}

/// Pre-order iterator over a layout subtree.
#[derive(Debug)]
pub struct LayoutIter<'a> {
    stack: Vec<&'a LayoutNode>,
}

impl<'a> Iterator for LayoutIter<'a> {
    type Item = &'a LayoutNode;

    fn next(&mut self) -> Option<&'a LayoutNode> {
        let node = self.stack.pop()?;
        // Push children in reverse so iteration is left-to-right pre-order.
        for child in node.children.iter().rev() {
            self.stack.push(child);
        }
        Some(node)
    }
}

/// A complete layout: a named template with a single root node.
///
/// Immutable once built: read it through [`name`](LayoutTemplate::name)
/// and [`root`](LayoutTemplate::root).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LayoutTemplate {
    /// The layout's resource name (e.g. `"activity_main"`).
    name: String,
    /// The root node — conventionally a view group that becomes the child
    /// of the window's decor view.
    root: LayoutNode,
    /// Nodes under `root`, itself included: counted once here, since
    /// the template never changes, so the inflater sizes its arena
    /// without a walk.
    node_count: usize,
}

impl LayoutTemplate {
    /// Creates a template.
    pub fn new(name: &str, root: LayoutNode) -> Self {
        LayoutTemplate {
            name: name.to_owned(),
            node_count: root.node_count(),
            root,
        }
    }

    /// The layout's resource name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The root node.
    pub fn root(&self) -> &LayoutNode {
        &self.root
    }

    /// Total node count, counted when the template was built.
    pub fn node_count(&self) -> usize {
        self.node_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> LayoutTemplate {
        LayoutTemplate::new(
            "activity_main",
            LayoutNode::new("LinearLayout")
                .with_id("root")
                .with_children([
                    LayoutNode::new("TextView")
                        .with_id("title")
                        .with_attr("text", "@string/title"),
                    LayoutNode::new("FrameLayout")
                        .with_child(LayoutNode::new("ImageView").with_id("hero")),
                    LayoutNode::new("Button")
                        .with_id("go")
                        .with_attr("text", "Go"),
                ]),
        )
    }

    #[test]
    fn a_node_is_seven_words() {
        // Class, optional id (the symbol's niche makes it four bytes),
        // attribute list and child list. A field that grows it shows here.
        #[cfg(target_pointer_width = "64")]
        assert_eq!(std::mem::size_of::<LayoutNode>(), 56);
    }

    #[test]
    fn counts_and_depth() {
        let t = sample();
        assert_eq!(t.node_count(), 5);
        assert_eq!(t.root().depth(), 3);
    }

    #[test]
    fn preorder_iteration_is_left_to_right() {
        let t = sample();
        let classes: Vec<&str> = t.root().iter().map(|n| n.class.as_str()).collect();
        assert_eq!(
            classes,
            vec![
                "LinearLayout",
                "TextView",
                "FrameLayout",
                "ImageView",
                "Button"
            ]
        );
        // Anonymous nodes carry no id name.
        let ids: Vec<&str> = t
            .root()
            .iter()
            .filter_map(|n| n.id_name.map(Symbol::as_str))
            .collect();
        assert_eq!(ids, vec!["root", "title", "hero", "go"]);
    }

    #[test]
    fn builder_sets_attrs() {
        let n = LayoutNode::new("TextView").with_attr("text", "hi");
        assert_eq!(n.attrs(), [(Symbol::intern("text"), Symbol::intern("hi"))]);
        assert_eq!(n.node_count(), 1);
        assert_eq!(n.depth(), 1);
    }

    #[test]
    fn a_lone_attribute_stays_inline_and_a_second_key_sorts_the_pair() {
        let (text, src) = (Symbol::intern("text"), Symbol::intern("src"));
        let (a, b) = (Symbol::intern("a"), Symbol::intern("b"));
        let lone = LayoutNode::new("TextView").with_attr("text", "a");
        let overwritten = lone.clone().with_attr("text", "b");
        assert_eq!(overwritten.attrs, Attrs::One([(text, b)]));
        assert_eq!(overwritten.attrs(), [(text, b)]);
        // `src` sorts before `text`, whichever is written first.
        let pair = overwritten.with_attr("src", "a");
        assert_eq!(pair.attrs, Attrs::Many(vec![(src, a), (text, b)]));
        let other_order = LayoutNode::new("TextView")
            .with_attr("src", "a")
            .with_attr("text", "a")
            .with_attr("text", "b");
        assert_eq!(other_order, pair);
        assert_eq!(other_order.attrs(), [(src, a), (text, b)]);
        assert_ne!(lone, LayoutNode::new("TextView"));
        assert_eq!(LayoutNode::new("TextView").attrs(), []);
    }
}
