//! Dense interning of [`NodeId`]s for per-query state.
//!
//! A query touches a small, unpredictable subset of the vertex universe;
//! its state lives in arrays indexed by a dense intern index handed out in
//! first-seen order. Both the reference [`crate::SketchGraph`] and the
//! label decoder's lazy search key their per-vertex state this way.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use crate::ids::NodeId;

/// Vertex ids below this bound are interned through a direct-indexed,
/// epoch-stamped slot array (one array read, no hashing); larger ids —
/// possible only from hand-built labels, since real graphs index vertices
/// densely from zero — fall back to a spill map so a hostile id cannot
/// force a multi-gigabyte allocation.
const DENSE_INTERN_LIMIT: usize = 1 << 21;

/// Maps [`NodeId`]s to dense indices `0, 1, 2, …` in first-seen order,
/// reusable across queries without clearing.
///
/// # Examples
///
/// ```
/// use fsdl_graph::{Interner, NodeId};
///
/// let mut ids = Interner::new();
/// assert_eq!(ids.intern(NodeId::new(40)), 0);
/// assert_eq!(ids.intern(NodeId::new(7)), 1);
/// assert_eq!(ids.intern(NodeId::new(40)), 0);
/// assert_eq!(ids.name(1), NodeId::new(7));
/// ids.reset();
/// assert_eq!(ids.index_of(NodeId::new(40)), None);
/// ```
#[derive(Clone, Debug)]
pub struct Interner {
    /// Direct-indexed table: `slots[id] = (stamp, idx)` is live only when
    /// `stamp == epoch`, so [`Interner::reset`] is O(1) — it bumps the
    /// epoch instead of clearing the array.
    slots: Vec<(u32, u32)>,
    epoch: u32,
    /// Spill for ids at or above [`DENSE_INTERN_LIMIT`].
    spill: HashMap<NodeId, u32>,
    names: Vec<NodeId>,
}

impl Default for Interner {
    fn default() -> Self {
        Interner {
            slots: Vec::new(),
            // Epoch 0 is reserved so zero-initialized slots are never live.
            epoch: 1,
            spill: HashMap::new(),
            names: Vec::new(),
        }
    }
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Interner::default()
    }

    /// Forgets every interned vertex, retaining the allocations.
    pub fn reset(&mut self) {
        self.epoch = match self.epoch.checked_add(1) {
            Some(e) => e,
            None => {
                // Epoch wrap: old stamps could alias, so pay one full clear.
                self.slots.fill((0, 0));
                1
            }
        };
        self.spill.clear();
        self.names.clear();
    }

    /// Interns `v`, returning its dense index; inserts it if new.
    pub fn intern(&mut self, v: NodeId) -> u32 {
        let next = self.names.len() as u32;
        let i = v.index();
        if i >= DENSE_INTERN_LIMIT {
            return match self.spill.entry(v) {
                Entry::Occupied(e) => *e.get(),
                Entry::Vacant(e) => {
                    self.names.push(v);
                    *e.insert(next)
                }
            };
        }
        if i >= self.slots.len() {
            self.slots.resize(i + 1, (0, 0));
        }
        let (stamp, idx) = self.slots[i];
        if stamp == self.epoch {
            return idx;
        }
        self.names.push(v);
        self.slots[i] = (self.epoch, next);
        next
    }

    /// Returns the dense index of `v` if it has been interned.
    pub fn index_of(&self, v: NodeId) -> Option<u32> {
        let i = v.index();
        if i >= DENSE_INTERN_LIMIT {
            return self.spill.get(&v).copied();
        }
        match self.slots.get(i) {
            Some(&(stamp, idx)) if stamp == self.epoch => Some(idx),
            _ => None,
        }
    }

    /// Number of interned vertices.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// `true` when nothing has been interned since the last reset.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// The vertex interned at dense index `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` was not returned by [`Interner::intern`] since the
    /// last reset.
    pub fn name(&self, idx: u32) -> NodeId {
        self.names[idx as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_and_spill_ids_share_one_index_space() {
        let mut ids = Interner::new();
        let big = NodeId::new(u32::MAX - 3);
        assert_eq!(ids.intern(NodeId::new(5)), 0);
        assert_eq!(ids.intern(big), 1);
        assert_eq!(ids.intern(NodeId::new(0)), 2);
        assert_eq!(ids.intern(big), 1);
        assert_eq!(ids.index_of(big), Some(1));
        assert_eq!(ids.name(1), big);
        assert_eq!(ids.len(), 3);
        // A hostile id never sizes the slot array.
        assert!(ids.slots.len() <= 6);
    }

    #[test]
    fn reset_invalidates_without_clearing() {
        let mut ids = Interner::new();
        ids.intern(NodeId::new(3));
        ids.intern(NodeId::new(u32::MAX));
        ids.reset();
        assert!(ids.is_empty());
        assert_eq!(ids.index_of(NodeId::new(3)), None);
        assert_eq!(ids.index_of(NodeId::new(u32::MAX)), None);
        assert_eq!(ids.intern(NodeId::new(9)), 0);
        assert_eq!(ids.intern(NodeId::new(3)), 1);
    }
}
