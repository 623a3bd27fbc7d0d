//! Kept couplings: RCHDroid's essence mapping between two kept tree
//! structures, built once per pair and adopted by every later pair of
//! trees that still carry the same stamps.
//!
//! A view's sunny peer is its name's bearer in the other tree's index.
//! A stamped tree still has every view its share kept, with its name,
//! and the names it added since sit in its index's overlay. So the
//! peers of one structure's kept views against the other's kept names
//! are the same for every pair of trees with those stamps, whatever was
//! written into them. A [`Coupling`] holds those two tables behind
//! reference counts. Adopting one maps only what the pair added since
//! its shares: each added view by name into the other tree's whole
//! index, and each kept bearer of a name the other tree added. The
//! result equals [`ViewTree::set_sunny_peers`] run both ways, count
//! included.

use super::{note_visits, Stamp, SunnyPeers, ViewId, ViewTree};
use std::rc::Rc;

/// One kept structure's views mapped to the other's kept names.
#[derive(Debug, Clone)]
struct Side {
    stamp: Stamp,
    /// The peer of each kept view, by id.
    peers: Rc<Vec<Option<ViewId>>>,
    /// Kept views with a peer.
    mapped: usize,
}

impl Side {
    /// Maps `tree`'s kept views to `other`'s kept names; `None` unless
    /// both trees carry stamps.
    fn of(tree: &ViewTree, other: &ViewTree) -> Option<Side> {
        let stamp = tree.stamp()?;
        other.stamp()?;
        let kept_names = &*other.id_name_index.base;
        let mut peers = vec![None; tree.arena.split()];
        let (mut mapped, mut visited) = (0, 0);
        for (i, node) in tree.arena.shared_views() {
            visited += 1;
            let peer = node.id_name.and_then(|n| kept_names.get(&n)).copied();
            if let (Some(slot), Some(_)) = (peers.get_mut(i), peer) {
                *slot = peer;
                mapped += 1;
            }
        }
        note_visits(visited);
        Some(Side {
            stamp,
            peers: Rc::new(peers),
            mapped,
        })
    }
}

/// The essence mapping between two kept structures, both ways: each
/// kept view's sunny peer among the other structure's kept views, and
/// how many views each side maps.
///
/// Built by walking the kept views of two stamped trees
/// ([`Coupling::build`]); a tree adopts it with
/// [`ViewTree::adopt_sunny_peers`] while it and its partner still carry
/// the two stamps, in either role. A process keeps one per pair of its
/// kept inflations, so only its first RCHDroid init between two
/// configurations walks.
#[derive(Debug, Clone)]
pub struct Coupling {
    sides: [Side; 2],
}

impl Coupling {
    /// Maps the kept views of `a` and `b` to each other's kept names:
    /// the walk a pair's first mapping pays. `None` unless both trees
    /// carry a stamp.
    pub fn build(a: &ViewTree, b: &ViewTree) -> Option<Coupling> {
        Some(Coupling {
            sides: [Side::of(a, b)?, Side::of(b, a)?],
        })
    }

    /// The stamps of the two structures this couples.
    pub fn stamps(&self) -> [Stamp; 2] {
        [self.sides[0].stamp, self.sides[1].stamp]
    }

    /// Whether this couples the structures stamped `a` and `b`, in
    /// either order.
    pub fn couples(&self, a: Stamp, b: Stamp) -> bool {
        let pair = (self.sides[0].stamp, self.sides[1].stamp);
        pair == (a, b) || pair == (b, a)
    }

    /// Whether `a` and `b` still carry the stamps this couples, in
    /// either order.
    pub fn fits(&self, a: &ViewTree, b: &ViewTree) -> bool {
        matches!((a.stamp(), b.stamp()), (Some(a), Some(b)) if self.couples(a, b))
    }

    /// The side of `tree`'s structure when coupled with `other`'s.
    fn side(&self, tree: Stamp, other: Stamp) -> Option<&Side> {
        let [x, y] = &self.sides;
        if (x.stamp, y.stamp) == (tree, other) {
            Some(x)
        } else if (y.stamp, x.stamp) == (tree, other) {
            Some(y)
        } else {
            None
        }
    }
}

impl ViewTree {
    /// [`ViewTree::set_sunny_peers`] against `other`'s index, from a
    /// kept coupling: the peers of the kept views come shared from
    /// `coupling`, and only the views added since the shares are looked
    /// up, so the cost follows the additions, not the tree. Returns how
    /// many views were mapped, or `None`, changing nothing, unless
    /// `coupling` couples the two trees' stamps.
    pub fn adopt_sunny_peers(&mut self, coupling: &Coupling, other: &ViewTree) -> Option<usize> {
        let side = coupling.side(self.stamp()?, other.stamp()?)?;
        let kept = side.peers.len();
        let mut low = Rc::clone(&side.peers);
        let mut high = vec![None; self.arena.len().saturating_sub(kept)];
        let (mut mapped, mut visited) = (side.mapped, 0);
        // A view added here maps by name into the other's whole index.
        for node in self.arena.owned_views() {
            visited += 1;
            let peer = node.id_name.and_then(|n| other.id_name_index.get(&n));
            let slot = (node.id.raw() as usize)
                .checked_sub(kept)
                .and_then(|i| high.get_mut(i));
            if let (Some(slot), Some(&peer)) = (slot, peer) {
                *slot = Some(peer);
                mapped += 1;
            }
        }
        // A kept bearer of a name the other tree added maps to the view
        // that added it.
        for (name, &added) in &other.id_name_index.added {
            let Some(&first) = self.id_name_index.get(name) else {
                continue;
            };
            let shadowed = self.shadowed_ids.get(name).map_or(&[][..], Vec::as_slice);
            for bearer in std::iter::once(first).chain(shadowed.iter().copied()) {
                let i = bearer.raw() as usize;
                if i >= kept {
                    continue; // an added view: mapped above
                }
                visited += 1;
                if let Some(slot) = Rc::make_mut(&mut low).get_mut(i) {
                    mapped += usize::from(slot.replace(added).is_none());
                }
            }
        }
        note_visits(visited);
        self.sunny_peers = SunnyPeers {
            low: Some(low),
            high,
            mapped,
        };
        Some(mapped)
    }
}
