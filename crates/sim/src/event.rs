//! A minimal discrete-event queue: time-ordered events with deterministic
//! FIFO tie-breaking, used by the full-system simulator to order transfer
//! completions and ACK arrivals within a slot.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event scheduled at a simulation time.
#[derive(Debug, Clone, PartialEq)]
pub struct Scheduled<E> {
    /// Simulation time in seconds.
    pub time_s: f64,
    /// Monotone sequence number: equal-time events pop in schedule order.
    seq: u64,
    /// The payload.
    pub event: E,
}

impl<E> Eq for Scheduled<E> where E: PartialEq {}

impl<E: PartialEq> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E: PartialEq> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: invert so the earliest time pops first.
        other
            .time_s
            .total_cmp(&self.time_s)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The event queue.
///
/// # Examples
///
/// ```
/// use cvr_sim::event::EventQueue;
///
/// let mut queue = EventQueue::new();
/// queue.schedule(2.0, "ack");
/// queue.schedule(1.0, "transfer-complete");
/// assert_eq!(queue.pop(), Some((1.0, "transfer-complete")));
/// assert_eq!(queue.pop(), Some((2.0, "ack")));
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E: PartialEq> {
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
    now_s: f64,
}

impl<E: PartialEq> EventQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now_s: 0.0,
        }
    }

    /// The time of the last popped event (the simulation clock).
    pub fn now(&self) -> f64 {
        self.now_s
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `event` at absolute time `time_s`.
    ///
    /// # Panics
    ///
    /// Panics if `time_s` is NaN or earlier than the current clock (events
    /// cannot be scheduled in the past).
    pub fn schedule(&mut self, time_s: f64, event: E) {
        assert!(!time_s.is_nan(), "event time must not be NaN");
        assert!(
            time_s >= self.now_s,
            "cannot schedule in the past ({time_s} < {})",
            self.now_s
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { time_s, seq, event });
    }

    /// Pops the earliest event, advancing the clock to it.
    pub fn pop(&mut self) -> Option<(f64, E)> {
        let s = self.heap.pop()?;
        self.now_s = s.time_s;
        Some((s.time_s, s.event))
    }

    /// Pops the earliest event only if it occurs strictly before
    /// `deadline_s`; the clock does not advance otherwise.
    pub fn pop_before(&mut self, deadline_s: f64) -> Option<(f64, E)> {
        if self.heap.peek().is_some_and(|s| s.time_s < deadline_s) {
            self.pop()
        } else {
            None
        }
    }
}

impl<E: PartialEq> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(3.0, "c");
        q.schedule(1.0, "a");
        q.schedule(2.0, "b");
        assert_eq!(q.pop(), Some((1.0, "a")));
        assert_eq!(q.pop(), Some((2.0, "b")));
        assert_eq!(q.pop(), Some((3.0, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        q.schedule(1.0, "first");
        q.schedule(1.0, "second");
        q.schedule(1.0, "third");
        assert_eq!(q.pop().unwrap().1, "first");
        assert_eq!(q.pop().unwrap().1, "second");
        assert_eq!(q.pop().unwrap().1, "third");
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), 0.0);
        q.schedule(5.0, ());
        q.pop();
        assert_eq!(q.now(), 5.0);
    }

    #[test]
    fn pop_before_respects_deadline() {
        let mut q = EventQueue::new();
        q.schedule(1.0, "early");
        q.schedule(2.5, "late");
        assert_eq!(q.pop_before(2.0), Some((1.0, "early")));
        assert_eq!(q.pop_before(2.0), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_before(3.0), Some((2.5, "late")));
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(5.0, ());
        q.pop();
        q.schedule(4.0, ());
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_time_panics() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.schedule(f64::NAN, ());
    }
}
