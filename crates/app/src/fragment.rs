//! Fragments: dynamically attached sub-interfaces.
//!
//! §2.2 of the paper singles fragments out as the place where app-level
//! (static-analysis) approaches break: "the views are distributed and
//! assigned in different fragments. The fragments can be dynamically
//! attached to the main activity, which causes dynamic changes to the
//! view tree." This module models exactly that: a [`FragmentSpec`]
//! describes a fragment (its layout resource and target container), and
//! [`Activity::attach_fragment`](crate::Activity::attach_fragment)
//! inflates it into the live tree at runtime — so fragment views are
//! *not* part of the activity's main layout resource.
//!
//! Consequences the simulator derives:
//!
//! * stock restart — fragment views are re-created only if the app's
//!   `onCreate` re-attaches them (framework-managed fragments do; the
//!   buggy pattern is manual attachment on a code path that does not
//!   re-run),
//! * RCHDroid — the sunny instance runs the same `onCreate`, re-attaching
//!   the fragments; the essence mapping then links fragment views by id
//!   like any others, so their state migrates,
//! * RuntimeDroid — static view reconstruction re-inflates the *layout
//!   resource*, which does not contain fragment views: the whole fragment
//!   subtree is dropped (the paper's criticism).

use crate::activity::Activity;
use droidsim_config::Configuration;
use droidsim_resources::ResourceTable;
use droidsim_view::{inflate_under, ViewError};

/// A fragment description: which layout it inflates and where it mounts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FragmentSpec {
    /// The fragment's tag (unique within an activity).
    pub tag: String,
    /// The layout resource inflated as the fragment's view.
    pub layout: String,
    /// The `android:id` name of the container view it attaches into.
    pub container: String,
}

impl FragmentSpec {
    /// Creates a spec.
    pub fn new(tag: &str, layout: &str, container: &str) -> Self {
        FragmentSpec {
            tag: tag.to_owned(),
            layout: layout.to_owned(),
            container: container.to_owned(),
        }
    }
}

/// Fragment errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FragmentError {
    /// The target container view does not exist.
    UnknownContainer(String),
    /// A fragment with this tag is already attached.
    DuplicateTag(String),
    /// The fragment's layout resource failed to resolve.
    MissingLayout(String),
    /// View-tree failure during attach: the container cannot hold
    /// children, or the tree was released.
    View(ViewError),
}

impl core::fmt::Display for FragmentError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FragmentError::UnknownContainer(c) => write!(f, "no container view `{c}`"),
            FragmentError::DuplicateTag(t) => write!(f, "fragment `{t}` already attached"),
            FragmentError::MissingLayout(l) => write!(f, "fragment layout `{l}` not found"),
            FragmentError::View(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for FragmentError {}

impl From<ViewError> for FragmentError {
    fn from(e: ViewError) -> Self {
        FragmentError::View(e)
    }
}

impl Activity {
    /// Attaches a fragment: inflates its layout for this instance's
    /// configuration straight into the activity's tree, under the
    /// container view.
    ///
    /// # Errors
    ///
    /// [`FragmentError`] variants as documented on the type.
    pub fn attach_fragment(
        &mut self,
        resources: &ResourceTable,
        spec: &FragmentSpec,
    ) -> Result<(), FragmentError> {
        if self.fragments.iter().any(|f| f.tag == spec.tag) {
            return Err(FragmentError::DuplicateTag(spec.tag.clone()));
        }
        let container = self
            .tree
            .find_by_id_name(&spec.container)
            .ok_or_else(|| FragmentError::UnknownContainer(spec.container.clone()))?;
        let config: Configuration = *self.config();
        let template = resources
            .resolve_layout(&spec.layout, &config)
            .map_err(|_| FragmentError::MissingLayout(spec.layout.clone()))?;
        inflate_under(&mut self.tree, container, template, resources, &config)?;
        self.fragments.push(spec.clone());
        Ok(())
    }

    /// The specs of the fragments currently attached.
    pub fn fragments(&self) -> &[FragmentSpec] {
        &self.fragments
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activity::ActivityInstanceId;
    use crate::model::{AppModel, SimpleApp};
    use droidsim_atms::ActivityRecordId;
    use droidsim_resources::{LayoutNode, LayoutTemplate, Qualifiers, ResourceValue};
    use droidsim_view::ViewOp;

    fn resources_with_fragment() -> ResourceTable {
        let mut resources = SimpleApp::with_views(1).resources().clone();
        resources.put(
            "fragment_login",
            Qualifiers::any(),
            ResourceValue::Layout(LayoutTemplate::new(
                "fragment_login",
                LayoutNode::new("LinearLayout")
                    .with_id("login_root")
                    .with_child(LayoutNode::new("EditText").with_id("username"))
                    .with_child(LayoutNode::new("Button").with_id("submit")),
            )),
        );
        resources
    }

    fn activity() -> Activity {
        let model = SimpleApp::with_views(1);
        let mut a = Activity::new(
            ActivityInstanceId::new(0),
            ActivityRecordId::new(0),
            model.component_name(),
            droidsim_config::Configuration::phone_portrait(),
        );
        a.perform_create(&model, None);
        a
    }

    #[test]
    fn attach_grafts_the_fragment_subtree() {
        let mut a = activity();
        let resources = resources_with_fragment();
        let before = a.tree.view_count();
        let spec = FragmentSpec::new("login", "fragment_login", "root");
        a.attach_fragment(&resources, &spec).unwrap();
        assert_eq!(a.tree.view_count(), before + 3);
        assert!(a.tree.find_by_id_name("username").is_some());
        assert_eq!(a.fragments(), [spec]);
    }

    #[test]
    fn fragment_views_behave_like_normal_views() {
        let mut a = activity();
        let resources = resources_with_fragment();
        a.attach_fragment(
            &resources,
            &FragmentSpec::new("login", "fragment_login", "root"),
        )
        .unwrap();
        let username = a.tree.find_by_id_name("username").unwrap();
        a.tree
            .apply(username, ViewOp::SetText("alice".into()))
            .unwrap();
        // EditText in a fragment saves its state like any other.
        let state = a.tree.save_hierarchy_state();
        assert!(state.bundle("view:username").is_some());
    }

    #[test]
    fn duplicate_tags_are_rejected() {
        let mut a = activity();
        let resources = resources_with_fragment();
        let spec = FragmentSpec::new("login", "fragment_login", "root");
        a.attach_fragment(&resources, &spec).unwrap();
        assert_eq!(
            a.attach_fragment(&resources, &spec),
            Err(FragmentError::DuplicateTag("login".into()))
        );
    }

    #[test]
    fn missing_container_or_layout_error() {
        let mut a = activity();
        let resources = resources_with_fragment();
        assert_eq!(
            a.attach_fragment(
                &resources,
                &FragmentSpec::new("x", "fragment_login", "nope")
            ),
            Err(FragmentError::UnknownContainer("nope".into()))
        );
        assert_eq!(
            a.attach_fragment(&resources, &FragmentSpec::new("x", "no_layout", "root")),
            Err(FragmentError::MissingLayout("no_layout".into()))
        );
        // A container name that names a leaf view inflates nothing.
        let button = a.tree.find_by_id_name("button").unwrap();
        let spec = FragmentSpec::new("x", "fragment_login", "button");
        let views = a.tree.view_count();
        let refused = FragmentError::View(ViewError::NotAContainer { parent: button });
        assert_eq!(a.attach_fragment(&resources, &spec), Err(refused));
        assert_eq!(a.tree.view_count(), views);
    }
}
