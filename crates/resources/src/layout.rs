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

use droidsim_kernel::{memo, Symbol};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

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
    attrs: Vec<(Symbol, Symbol)>,
    /// Child nodes (only meaningful for view groups).
    pub children: Vec<LayoutNode>,
}

impl LayoutNode {
    /// Creates a leaf node of the given class.
    pub fn new(class: impl Into<Symbol>) -> Self {
        LayoutNode {
            class: class.into(),
            id_name: None,
            attrs: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Sets the id name.
    pub fn with_id(mut self, id_name: impl Into<Symbol>) -> Self {
        self.id_name = Some(id_name.into());
        self
    }

    /// Sets an attribute; a key set before keeps its place and takes the
    /// new value.
    pub fn with_attr(mut self, key: impl Into<Symbol>, value: impl Into<Symbol>) -> Self {
        let (key, value) = (key.into(), value.into());
        match self
            .attrs
            .binary_search_by(|(k, _)| k.as_str().cmp(key.as_str()))
        {
            Ok(at) => self.attrs[at].1 = value,
            Err(at) => self.attrs.insert(at, (key, value)),
        }
        self
    }

    /// The attributes as `(key, value)` pairs, in key-text order.
    pub fn attrs(&self) -> &[(Symbol, Symbol)] {
        &self.attrs
    }

    /// Adds a child node.
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

/// Lazily computed content digest of a template (0 = dirty). Mutation
/// goes through [`LayoutTemplate::root_mut`], which resets the cell, so
/// a non-zero value is always derived purely from `(name, root)` — two
/// templates that compare equal always digest equal once computed. This
/// is what lets the inflater key its memo cache without re-hashing a
/// few hundred nodes on every probe.
struct TemplateDigest(AtomicU64);

impl TemplateDigest {
    fn dirty() -> Self {
        TemplateDigest(AtomicU64::new(0))
    }

    fn invalidate(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

impl Clone for TemplateDigest {
    fn clone(&self) -> Self {
        TemplateDigest(AtomicU64::new(self.0.load(Ordering::Relaxed)))
    }
}

impl Default for TemplateDigest {
    fn default() -> Self {
        TemplateDigest::dirty()
    }
}

impl PartialEq for TemplateDigest {
    /// Always equal: the digest is a cache over the template's content,
    /// never independent state, so it must not influence equality.
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

impl Eq for TemplateDigest {}

impl fmt::Debug for TemplateDigest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TemplateDigest({:#x})", self.0.load(Ordering::Relaxed))
    }
}

/// A complete layout: a named template with a single root node.
///
/// The fields are private so every mutation path can invalidate the
/// cached [`content digest`](LayoutTemplate::content_digest); read
/// access goes through [`name`](LayoutTemplate::name) and
/// [`root`](LayoutTemplate::root), mutation through
/// [`root_mut`](LayoutTemplate::root_mut).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayoutTemplate {
    /// The layout's resource name (e.g. `"activity_main"`).
    name: String,
    /// The root node — conventionally a view group that becomes the child
    /// of the window's decor view.
    root: LayoutNode,
    digest: TemplateDigest,
}

impl Hash for LayoutTemplate {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Content only — the digest cell is a cache, not state.
        self.name.hash(state);
        self.root.hash(state);
    }
}

impl LayoutTemplate {
    /// Creates a template.
    pub fn new(name: &str, root: LayoutNode) -> Self {
        LayoutTemplate {
            name: name.to_owned(),
            root,
            digest: TemplateDigest::dirty(),
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

    /// Mutable access to the root node. Invalidates the cached content
    /// digest — the next [`content_digest`](LayoutTemplate::content_digest)
    /// call re-derives it from the mutated tree.
    pub fn root_mut(&mut self) -> &mut LayoutNode {
        self.digest.invalidate();
        &mut self.root
    }

    /// Content digest of the whole template, computed once and cached
    /// until the template is mutated. Process-stable (an FNV fold over
    /// the node tree, whose names hash as their symbol indices), never
    /// zero, suitable as memo-cache key material — not a cross-process
    /// fingerprint: symbol indices follow interning order, so the value
    /// differs between runs and must never reach output.
    pub fn content_digest(&self) -> u64 {
        let cached = self.digest.0.load(Ordering::Relaxed);
        if cached != 0 {
            return cached;
        }
        let d = memo::stable_hash(self);
        let d = if d == 0 { memo::FNV_PRIME } else { d };
        self.digest.0.store(d, Ordering::Relaxed);
        d
    }

    /// Total node count.
    pub fn node_count(&self) -> usize {
        self.root.node_count()
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
}
