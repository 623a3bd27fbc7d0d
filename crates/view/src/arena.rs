//! The view tree's arena: views by id, copy-on-write across clones.
//!
//! A tree's views live in one of two places. The views a tree added
//! itself sit in an owned, flat vector and are read and written in
//! place: an inflation, an analyzer's tree and every tree nobody shares
//! never leave it. [`Arena::share`] turns the owned views into a
//! *shared prefix* behind a reference count, the way Android's zygote
//! shares its preloaded state with every app process: clones made from
//! then on share the prefix, and the first write to a view through any
//! of them copies only that view's chunk of [`CHUNK`] views. A clone
//! therefore costs the tree's chunks, a write the one chunk it lands
//! in, and a dropped clone the chunks it copied. Views added after a
//! share go to the owned vector again.
//!
//! Views are only appended, and a tree drops them all at once when it
//! is released, so an id indexes the same slot for the tree's whole life.

use crate::tree::ViewNode;
use std::fmt;
use std::rc::Rc;

/// Views per chunk: what the first write to a shared view copies.
pub(crate) const CHUNK: usize = 32;

/// Reference-counted slots: the shared prefix, or one chunk's copy.
type Shared = Rc<Vec<ViewNode>>;

/// The slots of one tree, `0..len()` by view id.
///
/// Equality and `Debug` see the slots only, not where they live, so a
/// shared arena equals and prints like the flat one it was made from.
#[derive(Clone, Default)]
pub(crate) struct Arena {
    /// Slots `0..split` as [`Arena::share`] left them, shared with every
    /// clone made since; `None` until the first share.
    shared: Option<Shared>,
    /// `shared`'s length: lower ids are shared, `split` and up owned.
    split: usize,
    /// One entry per chunk of `shared`: the chunk's copy once a write
    /// needed one, itself shared with clones made after the write.
    copies: Vec<Option<Shared>>,
    /// Slots `split..`, this arena's alone.
    owned: Vec<ViewNode>,
}

impl Arena {
    /// An empty arena with room for `views` owned slots.
    pub(crate) fn with_capacity(views: usize) -> Self {
        Arena {
            owned: Vec::with_capacity(views),
            ..Arena::default()
        }
    }

    /// Slots: the id the next view gets.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.split + self.owned.len()
    }

    /// The live view in slot `i`. The owned slots are tried first, with
    /// one bounds check, so a tree nobody shares reads as a flat vector
    /// does; a shared id wraps around to an index past the owned slots
    /// and falls through to the shared prefix.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> Option<&ViewNode> {
        let j = i.wrapping_sub(self.split);
        self.owned.get(j).or_else(|| self.shared_slot(i))
    }

    /// Slot `i`, read from its chunk's copy if it has one; `None` for
    /// an id past the shared prefix.
    fn shared_slot(&self, i: usize) -> Option<&ViewNode> {
        match self.copies.get(i / CHUNK)? {
            Some(copy) => copy.get(i % CHUNK),
            None => self.shared.as_deref()?.get(i),
        }
    }

    /// The live view in slot `i`, for writing, tried in the owned slots
    /// first as [`Arena::get`] does. A view in the shared prefix first
    /// gets its chunk copied, unless this arena already holds the only
    /// reference to a copy; an unknown slot copies nothing.
    #[inline]
    pub(crate) fn get_mut(&mut self, i: usize) -> Option<&mut ViewNode> {
        let j = i.wrapping_sub(self.split);
        if j < self.owned.len() {
            self.owned.get_mut(j)
        } else {
            self.shared_slot_mut(i)
        }
    }

    /// Slot `i` of the shared prefix for writing, its chunk copied out
    /// first if this arena shares it; `None` for an id past the prefix.
    fn shared_slot_mut(&mut self, i: usize) -> Option<&mut ViewNode> {
        self.shared_slot(i)?;
        let k = i / CHUNK;
        let copy = self.copies.get_mut(k)?;
        let chunk = match copy {
            Some(chunk) => chunk,
            None => {
                let shared = self.shared.as_deref()?;
                let views = shared.get(k * CHUNK..shared.len().min((k + 1) * CHUNK))?;
                copy.insert(Rc::new(views.to_vec()))
            }
        };
        Rc::make_mut(chunk).get_mut(i % CHUNK)
    }

    /// Appends a view to the owned slots.
    #[inline]
    pub(crate) fn push(&mut self, view: ViewNode) {
        self.owned.push(view);
    }

    /// Every slot of the shared prefix in id order, each read from its
    /// chunk's copy if it has one.
    fn shared_slots(&self) -> impl Iterator<Item = &ViewNode> {
        let shared = self.shared.as_deref().map_or(&[][..], Vec::as_slice);
        let chunks = shared.chunks(CHUNK).zip(&self.copies);
        chunks.flat_map(|(chunk, copy)| copy.as_deref().map_or(chunk, Vec::as_slice))
    }

    /// Every view in id order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &ViewNode> {
        self.shared_slots().chain(&self.owned)
    }

    /// Makes every slot so far the shared prefix, so that clones made
    /// from now on share it: the owned vector moves behind a reference
    /// count as it is, which costs the chunks, not the views. An arena
    /// that already has a shared prefix keeps it and its owned slots as
    /// they are.
    pub(crate) fn share(&mut self) {
        if self.shared.is_some() {
            return;
        }
        self.split = self.owned.len();
        self.copies = vec![None; self.split.div_ceil(CHUNK)];
        self.shared = Some(Rc::new(std::mem::take(&mut self.owned)));
    }

    /// Bytes of slot storage this arena reaches, each vector at its
    /// capacity: the shared prefix, the chunk copies and the owned
    /// slots.
    pub(crate) fn slot_bytes(&self) -> usize {
        let shared = self.shared.as_ref().map_or(0, |s| s.capacity());
        let copies: usize = self.copies.iter().flatten().map(|c| c.capacity()).sum();
        (shared + copies + self.owned.capacity()) * std::mem::size_of::<ViewNode>()
    }

    /// Chunks of the shared prefix.
    #[cfg(test)]
    pub(crate) fn chunks(&self) -> usize {
        self.copies.len()
    }

    /// The chunks of the shared prefix that this arena and `other` read
    /// from the same memory, by index.
    #[cfg(test)]
    pub(crate) fn chunks_shared_with(&self, other: &Arena) -> Vec<usize> {
        let same_prefix = match (&self.shared, &other.shared) {
            (Some(a), Some(b)) => Rc::ptr_eq(a, b),
            _ => false,
        };
        let same = |(a, b): (&Option<Shared>, &Option<Shared>)| match (a, b) {
            (None, None) => same_prefix,
            (Some(a), Some(b)) => Rc::ptr_eq(a, b),
            _ => false,
        };
        let pairs = self.copies.iter().zip(&other.copies);
        pairs
            .enumerate()
            .filter(|&(_, pair)| same(pair))
            .map(|(k, _)| k)
            .collect()
    }
}

impl PartialEq for Arena {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl fmt::Debug for Arena {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}
