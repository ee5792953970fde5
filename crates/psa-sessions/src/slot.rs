//! The pooled per-session state arena.
//!
//! Running a session needs scratch that is expensive to reacquire per
//! session at hundreds of sessions per pool: the per-frame report spine,
//! the latency log, and the slot bookkeeping itself. [`SlotPool`] is a
//! fixed arena of [`SessionSlot`]s with a free-list — a session acquires a
//! slot at dispatch eligibility, parks its protocol engine in it, and on
//! completion the slot is *recycled*, not dropped: buffers keep their
//! capacity for the next session (the executor/packet/objects-pool shape
//! of `parallel-processor-rs`). Generations catch stale handles: a
//! [`SlotTicket`] from a previous occupancy can never touch the next
//! session's state.

use psa_desim::EventFabric;
use psa_runtime::checkpoint::EngineSnapshot;
use psa_runtime::protocol::Engine;
use psa_runtime::report::FrameReport;

/// A handle to an acquired slot: index plus the generation it was acquired
/// at. Tickets are invalidated by recycling.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SlotTicket {
    index: usize,
    generation: u64,
}

/// Reusable per-session state: the engine driving the session's run plus
/// the buffers the scheduler fills as frames complete.
#[derive(Default)]
pub struct SessionSlot {
    /// Times this slot has been recycled (stale-ticket detection).
    generation: u64,
    /// The session's protocol engine over the event fabric; `None` until
    /// first dispatch, while a slice of the session runs on a pool thread
    /// (the engine, snapshot and frame spine travel with it), and after a
    /// worker-loss restart dropped it.
    pub engine: Option<Engine<EventFabric>>,
    /// Last pool-level checkpoint of the session's engine, taken every
    /// [`PoolConfig::checkpoint_interval`](crate::PoolConfig) completed
    /// frames. A worker-loss restart rebuilds the engine and restores this
    /// instead of replaying from frame 0. Cleared on recycle — a snapshot
    /// never outlives its session.
    pub snapshot: Option<EngineSnapshot>,
    /// Per-frame reports in frame order (capacity survives recycling).
    pub frames: Vec<FrameReport>,
    /// Pool-virtual frame-completion gaps (capacity survives recycling).
    pub latencies: Vec<f64>,
}

/// Cumulative pool statistics, for capacity tuning and bench output.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SlotStats {
    /// Arena size (== admission's `max_in_flight`).
    pub capacity: usize,
    /// Slots currently held by sessions.
    pub in_use: usize,
    /// Completed acquire→recycle cycles.
    pub recycled: u64,
    /// Most slots ever held at once.
    pub high_water: usize,
}

/// The fixed arena of session slots.
pub struct SlotPool {
    slots: Vec<SessionSlot>,
    free: Vec<usize>,
    stats: SlotStats,
}

impl SlotPool {
    /// An arena of `capacity` recycled-empty slots.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "a slot pool needs at least one slot");
        SlotPool {
            slots: (0..capacity).map(|_| SessionSlot::default()).collect(),
            // Reverse so acquisition hands out low indices first.
            free: (0..capacity).rev().collect(),
            stats: SlotStats { capacity, ..SlotStats::default() },
        }
    }

    /// Is at least one slot free?
    pub fn has_free(&self) -> bool {
        !self.free.is_empty()
    }

    /// Acquire a slot, or `None` when the arena is saturated (admission
    /// then queues the session instead).
    pub fn acquire(&mut self) -> Option<SlotTicket> {
        let index = self.free.pop()?;
        self.stats.in_use += 1;
        self.stats.high_water = self.stats.high_water.max(self.stats.in_use);
        let generation = self.slots.get(index).map(|s| s.generation)?;
        Some(SlotTicket { index, generation })
    }

    /// The slot behind a ticket; `None` if the ticket is stale (the slot
    /// was recycled since).
    pub fn get_mut(&mut self, ticket: SlotTicket) -> Option<&mut SessionSlot> {
        self.slots.get_mut(ticket.index).filter(|s| s.generation == ticket.generation)
    }

    /// Return a slot to the free list: the engine is dropped, buffers are
    /// cleared *keeping their capacity*, and the generation is bumped so
    /// outstanding tickets go stale. Stale tickets are ignored.
    pub fn recycle(&mut self, ticket: SlotTicket) {
        let Some(slot) = self.slots.get_mut(ticket.index) else {
            return;
        };
        if slot.generation != ticket.generation {
            return;
        }
        slot.generation += 1;
        slot.engine = None;
        slot.snapshot = None;
        slot.frames.clear();
        slot.latencies.clear();
        self.stats.in_use -= 1;
        self.stats.recycled += 1;
        self.free.push(ticket.index);
    }

    /// Current pool statistics.
    pub fn stats(&self) -> SlotStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_recycle_cycles_and_counts() {
        let mut p = SlotPool::new(2);
        let a = p.acquire().unwrap();
        let b = p.acquire().unwrap();
        assert!(p.acquire().is_none(), "arena of 2 is saturated");
        assert_eq!(p.stats().in_use, 2);
        assert_eq!(p.stats().high_water, 2);
        p.recycle(a);
        assert!(p.has_free());
        let c = p.acquire().unwrap();
        p.recycle(b);
        p.recycle(c);
        assert_eq!(p.stats().recycled, 3);
        assert_eq!(p.stats().in_use, 0);
    }

    #[test]
    fn recycling_keeps_buffer_capacity() {
        let mut p = SlotPool::new(1);
        let t = p.acquire().unwrap();
        let slot = p.get_mut(t).unwrap();
        slot.latencies.reserve(100);
        let cap = slot.latencies.capacity();
        p.recycle(t);
        let t2 = p.acquire().unwrap();
        let slot = p.get_mut(t2).unwrap();
        assert!(slot.latencies.is_empty());
        assert!(slot.latencies.capacity() >= cap, "recycling must not shrink buffers");
    }

    #[test]
    fn stale_tickets_are_inert() {
        let mut p = SlotPool::new(1);
        let old = p.acquire().unwrap();
        p.recycle(old);
        let fresh = p.acquire().unwrap();
        assert!(p.get_mut(old).is_none(), "stale ticket must not resolve");
        p.recycle(old); // ignored
        assert_eq!(p.stats().in_use, 1);
        assert!(p.get_mut(fresh).is_some());
    }
}
