//! A monotone discrete-event queue for the timing simulator.
//!
//! The per-instruction timing model in [`crate::Core`] is *analytic* — each
//! instruction's dispatch/ready/complete/retire times are computed directly
//! with `max()` algebra over resource-release timestamps, so a single core
//! never ticks through idle cycles. What still needs scheduling is
//! everything that happens *between* cores and *after* issue: which core's
//! pipeline clock is furthest behind (the multi-core interleave), when an
//! engine-timer completion or a load-port release unblocks a dependent, and
//! where barrier epochs land. [`EventQueue`] is the one ordering structure
//! all of those share: a min-heap of `(timestamp, payload)` events with a
//! monotonicity guarantee — events are delivered in nondecreasing time, ties
//! broken by payload order, and scheduling an event before the clock is a
//! simulator bug that panics rather than silently reordering history.
//!
//! Why skipping idle cycles cannot change a reported cycle count: every
//! timestamp in the simulator is *computed* (a max over dependency and
//! resource-release times), never *counted* (incremented per tick). The
//! queue only decides the order in which already-computed timestamps are
//! visited, and the monotone pop order is exactly the order a cycle-stepped
//! loop would reach them — see `docs/ARCHITECTURE.md` § Event-driven timing.
//!
//! ```
//! use vegeta_sim::EventQueue;
//!
//! let mut q = EventQueue::new();
//! q.push(30, "barrier");
//! q.push(10, "retire");
//! q.push(10, "port-release");
//! assert_eq!(q.pop(), Some((10, "port-release")));
//! assert_eq!(q.pop(), Some((10, "retire")));
//! assert_eq!(q.now(), 10);
//! assert_eq!(q.pop(), Some((30, "barrier")));
//! assert_eq!(q.pop(), None);
//! ```

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A monotone min-heap of `(timestamp, payload)` events.
///
/// Events pop in nondecreasing timestamp order; equal timestamps pop in
/// ascending payload order (`T: Ord`), which is what makes every consumer
/// deterministic — the multi-core merge uses the core index as the payload,
/// so simultaneous cores advance in index order, exactly like the linear
/// scan it replaced.
#[derive(Debug, Clone, Default)]
pub struct EventQueue<T: Ord> {
    heap: BinaryHeap<Reverse<(u64, T)>>,
    now: u64,
}

impl<T: Ord> EventQueue<T> {
    /// An empty queue at time 0.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            now: 0,
        }
    }

    /// An empty queue with room for `capacity` events before reallocating
    /// (the multi-core merge sizes this to the core count).
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(capacity),
            now: 0,
        }
    }

    /// Pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending. Popping an empty queue is a branch
    /// and nothing else — the empty-queue fast path drain loops rely on.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The current simulation time: the timestamp of the last delivered
    /// event (0 before any delivery). Never decreases.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Schedules `payload` at `time`.
    ///
    /// # Panics
    ///
    /// Panics when `time` is earlier than [`EventQueue::now`] — delivering
    /// into the past would mean the simulator already advanced beyond a
    /// still-pending cause, i.e. reported cycles could depend on pop order.
    pub fn push(&mut self, time: u64, payload: T) {
        assert!(
            time >= self.now,
            "event scheduled at {time} but the clock is already at {}",
            self.now
        );
        self.heap.push(Reverse((time, payload)));
    }

    /// The earliest pending event, without delivering it.
    pub fn peek(&self) -> Option<(u64, &T)> {
        self.heap.peek().map(|Reverse((t, p))| (*t, p))
    }

    /// Delivers the earliest pending event, advancing the clock to its
    /// timestamp. `None` (and an unchanged clock) when no events are
    /// pending.
    pub fn pop(&mut self) -> Option<(u64, T)> {
        let Reverse((time, payload)) = self.heap.pop()?;
        self.now = time;
        Some((time, payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order_regardless_of_push_order() {
        let mut q = EventQueue::new();
        for t in [50u64, 10, 40, 20, 30] {
            q.push(t, t as usize);
        }
        let mut seen = Vec::new();
        while let Some((t, p)) = q.pop() {
            assert_eq!(t as usize, p);
            seen.push(t);
        }
        assert_eq!(seen, vec![10, 20, 30, 40, 50]);
        assert_eq!(q.now(), 50);
    }

    #[test]
    fn equal_timestamps_pop_in_payload_order() {
        // The determinism contract: simultaneous events deliver in payload
        // (core-index) order, whatever order they were scheduled in.
        let mut q = EventQueue::new();
        for core in [3usize, 0, 2, 1] {
            q.push(7, core);
        }
        let order: Vec<usize> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn empty_queue_fast_path_returns_none_and_keeps_the_clock() {
        let mut q: EventQueue<u32> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        assert_eq!(q.now(), 0);
        q.push(12, 1);
        q.pop();
        assert_eq!(q.pop(), None);
        assert_eq!(q.now(), 12, "a drained queue keeps the final time");
        assert_eq!(q.peek(), None);
    }

    #[test]
    fn same_time_reschedule_is_allowed() {
        // A core that finishes a shard re-enters the merge at the same
        // timestamp — scheduling *at* the current clock is legal.
        let mut q = EventQueue::new();
        q.push(4, 0usize);
        assert_eq!(q.pop(), Some((4, 0)));
        q.push(4, 0usize);
        assert_eq!(q.pop(), Some((4, 0)));
    }

    #[test]
    #[should_panic(expected = "clock is already at")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.push(10, 0usize);
        q.pop();
        q.push(9, 1usize);
    }

    #[test]
    fn with_capacity_starts_empty() {
        let q: EventQueue<usize> = EventQueue::with_capacity(16);
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        assert_eq!(q.now(), 0);
    }
}
