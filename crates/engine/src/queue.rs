//! Bounded FIFO queues with backpressure and fixed-latency delay lines.
//!
//! [`BoundedQueue`] models the finite buffering of routers, cache controllers
//! and NI pipelines: a producer that cannot push must stall, which is how
//! congestion propagates through the simulated chip (§6.2 of the paper shows
//! this backpressure destroying NIper-tile bandwidth on large unrolls).
//!
//! [`DelayLine`] models fixed-latency resources that complete out-of-band of
//! the NOC — DRAM accesses (50ns) and intra-rack hops (35ns) — as a min-heap
//! of (ready-at, item) pairs popped once the clock reaches them.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt;

use crate::clock::Cycle;

/// Error returned by [`BoundedQueue::push`] when the queue is full.
///
/// Hands the rejected item back so the caller can retry next cycle without
/// cloning (`C-CALLER-CONTROL`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PushError<T>(pub T);

impl<T> fmt::Display for PushError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "queue full")
    }
}

impl<T: fmt::Debug> std::error::Error for PushError<T> {}

/// A bounded FIFO with explicit backpressure.
///
/// ```
/// use ni_engine::BoundedQueue;
/// let mut q = BoundedQueue::new(2);
/// q.push(1).unwrap();
/// q.push(2).unwrap();
/// assert!(q.push(3).is_err());
/// assert_eq!(q.pop(), Some(1));
/// ```
#[derive(Clone, Debug)]
pub struct BoundedQueue<T> {
    items: VecDeque<T>,
    capacity: usize,
    /// High-water mark, for occupancy diagnostics.
    peak: usize,
}

impl<T> BoundedQueue<T> {
    /// Create a queue holding at most `capacity` items.
    ///
    /// # Panics
    /// Panics if `capacity` is zero: a zero-capacity queue can never accept
    /// an item and always indicates a mis-configured pipeline.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be non-zero");
        BoundedQueue {
            items: VecDeque::with_capacity(capacity),
            capacity,
            peak: 0,
        }
    }

    /// Append an item, or return it in `Err` if the queue is full.
    pub fn push(&mut self, item: T) -> Result<(), PushError<T>> {
        if self.items.len() >= self.capacity {
            return Err(PushError(item));
        }
        self.items.push_back(item);
        self.peak = self.peak.max(self.items.len());
        Ok(())
    }

    /// Remove and return the oldest item.
    pub fn pop(&mut self) -> Option<T> {
        self.items.pop_front()
    }

    /// Peek at the oldest item without removing it.
    pub fn front(&self) -> Option<&T> {
        self.items.front()
    }

    /// Mutable peek, used by controllers that annotate a head entry in place.
    pub fn front_mut(&mut self) -> Option<&mut T> {
        self.items.front_mut()
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// True when another `push` would fail.
    pub fn is_full(&self) -> bool {
        self.items.len() >= self.capacity
    }

    /// Remaining free slots.
    pub fn free(&self) -> usize {
        self.capacity - self.items.len()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Highest occupancy observed since construction.
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Iterate over queued items from oldest to newest.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.items.iter()
    }
}

/// Heap entry ordering ready-at timestamps for [`DelayLine`].
///
/// Ties are broken by insertion sequence so equal-time completions drain in
/// FIFO order — this keeps the simulator deterministic.
#[derive(Debug)]
struct Pending<T> {
    ready_at: Cycle,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Pending<T> {
    fn eq(&self, other: &Self) -> bool {
        self.ready_at == other.ready_at && self.seq == other.seq
    }
}
impl<T> Eq for Pending<T> {}
impl<T> PartialOrd for Pending<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Pending<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.ready_at, self.seq).cmp(&(other.ready_at, other.seq))
    }
}

/// A fixed-latency completion queue: items pushed with a ready-at time pop in
/// timestamp order once the simulation clock reaches them.
///
/// ```
/// use ni_engine::{Cycle, DelayLine};
/// let mut d = DelayLine::new();
/// d.push_at(Cycle(20), "b");
/// d.push_at(Cycle(10), "a");
/// assert_eq!(d.pop_ready(Cycle(15)), Some("a"));
/// assert_eq!(d.pop_ready(Cycle(15)), None);
/// assert_eq!(d.pop_ready(Cycle(25)), Some("b"));
/// ```
#[derive(Debug)]
pub struct DelayLine<T> {
    heap: BinaryHeap<Reverse<Pending<T>>>,
    next_seq: u64,
}

impl<T> DelayLine<T> {
    /// Create an empty delay line.
    pub fn new() -> Self {
        DelayLine {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedule `item` to become available at `ready_at`.
    pub fn push_at(&mut self, ready_at: Cycle, item: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Pending {
            ready_at,
            seq,
            item,
        }));
    }

    /// Schedule `item` to become available `delay` cycles after `now`.
    pub fn push_after(&mut self, now: Cycle, delay: u64, item: T) {
        self.push_at(now + delay, item);
    }

    /// Pop the earliest item whose ready time is `<= now`, if any.
    pub fn pop_ready(&mut self, now: Cycle) -> Option<T> {
        if self.heap.peek().is_some_and(|p| p.0.ready_at <= now) {
            Some(self.heap.pop().expect("peeked entry").0.item)
        } else {
            None
        }
    }

    /// Every item due before `end` that `keep` selects, in the order
    /// [`pop_ready`](DelayLine::pop_ready) would yield them (ready time,
    /// then insertion order), without removing any.
    pub fn pending_before(&self, end: Cycle, mut keep: impl FnMut(&T) -> bool) -> Vec<(Cycle, &T)> {
        let mut due: Vec<&Pending<T>> = self
            .heap
            .iter()
            .map(|p| &p.0)
            .filter(|p| p.ready_at < end && keep(&p.item))
            .collect();
        due.sort_unstable_by_key(|p| (p.ready_at, p.seq));
        due.into_iter().map(|p| (p.ready_at, &p.item)).collect()
    }

    /// Ready time of the earliest scheduled item.
    pub fn next_ready_at(&self) -> Option<Cycle> {
        self.heap.peek().map(|p| p.0.ready_at)
    }

    /// Number of in-flight items.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<T> Default for DelayLine<T> {
    fn default() -> Self {
        DelayLine::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_queue_respects_capacity_and_order() {
        let mut q = BoundedQueue::new(3);
        for i in 0..3 {
            q.push(i).unwrap();
        }
        assert!(q.is_full());
        assert_eq!(q.push(99), Err(PushError(99)));
        assert_eq!(q.pop(), Some(0));
        assert_eq!(q.free(), 1);
        q.push(3).unwrap();
        let drained: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(drained, vec![1, 2, 3]);
        assert_eq!(q.peak(), 3);
    }

    #[test]
    fn bounded_queue_front_access() {
        let mut q = BoundedQueue::new(2);
        assert!(q.front().is_none());
        q.push(5).unwrap();
        assert_eq!(q.front(), Some(&5));
        *q.front_mut().unwrap() = 6;
        assert_eq!(q.pop(), Some(6));
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_queue_rejected() {
        let _: BoundedQueue<u8> = BoundedQueue::new(0);
    }

    #[test]
    fn delay_line_orders_by_time_then_fifo() {
        let mut d = DelayLine::new();
        d.push_at(Cycle(10), 'x');
        d.push_at(Cycle(10), 'y');
        d.push_at(Cycle(5), 'z');
        assert_eq!(d.next_ready_at(), Some(Cycle(5)));
        assert_eq!(d.pop_ready(Cycle(10)), Some('z'));
        // Same ready time: FIFO by insertion.
        assert_eq!(d.pop_ready(Cycle(10)), Some('x'));
        assert_eq!(d.pop_ready(Cycle(10)), Some('y'));
        assert!(d.is_empty());
    }

    #[test]
    fn pending_before_peeks_in_pop_order() {
        let mut d = DelayLine::new();
        d.push_at(Cycle(10), 'x');
        d.push_at(Cycle(12), 'w');
        d.push_at(Cycle(10), 'y');
        d.push_at(Cycle(5), 'z');
        d.push_at(Cycle(7), 'q');
        let due = d.pending_before(Cycle(12), |&c| c != 'q');
        assert_eq!(
            due,
            vec![(Cycle(5), &'z'), (Cycle(10), &'x'), (Cycle(10), &'y')]
        );
        assert_eq!(d.len(), 5, "peeking removes nothing");
    }

    #[test]
    fn delay_line_push_after_offsets_from_now() {
        let mut d = DelayLine::new();
        d.push_after(Cycle(100), 100, "dram");
        assert_eq!(d.pop_ready(Cycle(199)), None);
        assert_eq!(d.pop_ready(Cycle(200)), Some("dram"));
    }
}
