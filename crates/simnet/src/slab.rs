//! Live-flow storage indexed by id over a moving window.

use crate::net::{Flow, FlowId};

/// Live flows by [`FlowId`]. Ids are issued monotonically and never
/// reused, so flow `id` sits in slot `id - base`: a lookup is a direct
/// index and slot order is ascending-id order, which every
/// order-sensitive traversal relies on. A removed flow leaves an empty
/// slot; once the empty slots ahead of the oldest live flow outnumber the
/// rest, they are dropped and `base` moves past them. Retained memory
/// therefore tracks the span of live ids, not every flow ever started.
#[derive(Default)]
pub(crate) struct FlowSlab {
    /// Id of `slots[0]`.
    base: u64,
    slots: Vec<Option<Flow>>,
    /// Slots before `head` are all empty.
    head: usize,
    live: usize,
}

/// Empty leading slots tolerated before compaction is considered.
pub(crate) const MIN_COMPACT: usize = 64;

impl FlowSlab {
    fn index(&self, id: FlowId) -> Option<usize> {
        let i = usize::try_from(id.0.checked_sub(self.base)?).ok()?;
        (i < self.slots.len()).then_some(i)
    }

    /// Number of live flows.
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.live == 0
    }

    pub(crate) fn get(&self, id: FlowId) -> Option<&Flow> {
        self.slots[self.index(id)?].as_ref()
    }

    pub(crate) fn get_mut(&mut self, id: FlowId) -> Option<&mut Flow> {
        let i = self.index(id)?;
        self.slots[i].as_mut()
    }

    /// Take a flow out, leaving its slot empty and the window in place —
    /// the sharded advance takes flows and puts survivors back.
    pub(crate) fn take(&mut self, id: FlowId) -> Option<Flow> {
        let i = self.index(id)?;
        let f = self.slots[i].take();
        if f.is_some() {
            self.live -= 1;
        }
        f
    }

    /// Remove a flow for good and let the window move past empty slots.
    pub(crate) fn remove(&mut self, id: FlowId) -> Option<Flow> {
        let f = self.take(id);
        self.compact();
        f
    }

    /// (Re-)install a flow in its id slot. A flow taken out is put back
    /// before anything compacts, so no id lands below the window.
    pub(crate) fn put(&mut self, id: FlowId, f: Flow) {
        if self.slots.is_empty() {
            self.base = id.0;
            self.head = 0;
        }
        let offset =
            id.0.checked_sub(self.base)
                .expect("flow id below the window");
        let i = usize::try_from(offset).expect("window fits in memory");
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        debug_assert!(self.slots[i].is_none(), "flow slot double-filled");
        self.slots[i] = Some(f);
        self.live += 1;
        self.head = self.head.min(i);
    }

    /// Advance `head` past empty slots and drop them once they make up
    /// at least half the window (amortized O(1) per removal).
    pub(crate) fn compact(&mut self) {
        while self.head < self.slots.len() && self.slots[self.head].is_none() {
            self.head += 1;
        }
        if self.head >= MIN_COMPACT && 2 * self.head >= self.slots.len() {
            self.slots.drain(..self.head);
            self.base += self.head as u64;
            self.head = 0;
        }
    }

    /// Live flows in ascending-id order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (FlowId, &Flow)> + '_ {
        let start = self.base + self.head as u64;
        self.slots[self.head..]
            .iter()
            .enumerate()
            .filter_map(move |(i, f)| f.as_ref().map(|f| (FlowId(start + i as u64), f)))
    }

    /// Slots currently held (live and empty): the storage footprint.
    #[cfg(test)]
    pub(crate) fn capacity_slots(&self) -> usize {
        self.slots.len()
    }
}
