//! Session slabs: the records of live sessions, in slots that outlive
//! them.
//!
//! A closed session's slot goes on a free list, and the next session
//! opened reuses its record, buffers and all, so a steady run allocates
//! no session records. The hub's window bounds the live sessions, and
//! with them the slots, on both ends of every link.

use semantics::hash::FxHashMap;

/// A session record a [`Slab`] can reuse.
pub(super) trait Reopen {
    /// What opening a session takes.
    type Args;
    fn new(args: Self::Args) -> Self;
    /// Ready a used record for a new session, keeping its buffers.
    fn reopen(&mut self, args: Self::Args);
}

pub(super) struct Slab<T> {
    slots: Vec<T>,
    /// Live session id → its slot.
    live: FxHashMap<u64, usize>,
    free: Vec<usize>,
}

impl<T: Reopen> Slab<T> {
    pub(super) fn new() -> Slab<T> {
        Slab {
            slots: Vec::new(),
            live: FxHashMap::default(),
            free: Vec::new(),
        }
    }

    /// Give session `id` a slot, reopening a free record with `args`
    /// or making a new one. Returns the slot.
    pub(super) fn open(&mut self, id: u64, args: T::Args) -> usize {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot].reopen(args);
                slot
            }
            None => {
                self.slots.push(T::new(args));
                self.slots.len() - 1
            }
        };
        let old = self.live.insert(id, slot);
        debug_assert!(old.is_none(), "session {id} opened twice");
        slot
    }

    /// The slot of live session `id`.
    pub(super) fn slot(&self, id: u64) -> Option<usize> {
        self.live.get(&id).copied()
    }

    /// The record of live session `id`.
    pub(super) fn get_mut(&mut self, id: u64) -> Option<&mut T> {
        let slot = self.slot(id)?;
        Some(&mut self.slots[slot])
    }

    pub(super) fn at(&self, slot: usize) -> &T {
        &self.slots[slot]
    }

    pub(super) fn at_mut(&mut self, slot: usize) -> &mut T {
        &mut self.slots[slot]
    }

    /// End session `id`: it no longer resolves. Returns its slot, which
    /// stays taken until [`Slab::free`].
    pub(super) fn close(&mut self, id: u64) -> Option<usize> {
        self.live.remove(&id)
    }

    /// Hand a closed session's slot to the next [`Slab::open`]. Each
    /// closed slot is freed exactly once.
    pub(super) fn free(&mut self, slot: usize) {
        self.free.push(slot);
    }

    /// Live sessions.
    pub(super) fn len(&self) -> usize {
        self.live.len()
    }

    pub(super) fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// The live sessions with their records, in ascending id order.
    pub(super) fn ascending(&self) -> Vec<(u64, &T)> {
        let mut live: Vec<(u64, &T)> = self
            .live
            .iter()
            .map(|(&id, &slot)| (id, &self.slots[slot]))
            .collect();
        live.sort_unstable_by_key(|&(id, _)| id);
        live
    }

    #[cfg(test)]
    pub(super) fn free_slots(&self) -> &[usize] {
        &self.free
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The ids a record has served, newest last.
    struct Served(Vec<u64>);

    impl Reopen for Served {
        type Args = u64;
        fn new(id: u64) -> Served {
            Served(vec![id])
        }
        fn reopen(&mut self, id: u64) {
            self.0.push(id);
        }
    }

    #[test]
    fn a_freed_slot_is_reopened_for_the_next_session() {
        let mut slab: Slab<Served> = Slab::new();
        let a = slab.open(7, 7);
        let b = slab.open(3, 3);
        assert_ne!(a, b);
        assert_eq!(slab.close(7), Some(a));
        assert_eq!(slab.slot(7), None, "a closed id still resolves");
        assert_eq!(slab.len(), 1);
        slab.free(a);
        assert_eq!(slab.open(9, 9), a);
        assert_eq!(slab.get_mut(9).map(|s| &s.0[..]), Some(&[7, 9][..]));
        assert_eq!(slab.close(7), None, "a late close reached the new occupant");
        let ids: Vec<u64> = slab.ascending().into_iter().map(|(id, _)| id).collect();
        assert_eq!(ids, [3, 9]);
    }
}
