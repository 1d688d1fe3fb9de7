//! Cycle-indexed event queue generic over the event payload.
//!
//! A simulator schedules a handful of future micro-events per cause (a
//! miss, a mispredicted branch, a timer); the [`EventQueue`] is a binary
//! min-heap keyed on `(due, class, seq)`, so a cycle with no due event
//! costs one peek and a cycle with due events pops exactly those.
//!
//! The key makes processing order a pure function of the schedule:
//! events pop at their due cycle, lower [`Sequenced::class`] values
//! before higher ones within a cycle, and scheduling order within each
//! class. Heap internals can never reorder two events.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;

/// Ordering contract of a queued event: when it is due and how it ranks
/// against other events due the same cycle.
pub trait Sequenced {
    /// Cycle at which the event must be processed.
    fn due(&self) -> u64;

    /// Same-cycle ordering class: lower classes pop first. Events of
    /// equal due cycle and class pop in scheduling order.
    fn class(&self) -> u8 {
        0
    }
}

struct Entry<E> {
    /// (due, class, scheduling sequence) — the pop order.
    key: (u64, u8, u64),
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Entry<E>) -> bool {
        self.key == other.key
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Entry<E>) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Entry<E>) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the smallest key.
        other.key.cmp(&self.key)
    }
}

/// Min-heap of pending events ordered by `(due, class, seq)`.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> EventQueue<E> {
        EventQueue { heap: BinaryHeap::new(), seq: 0 }
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> EventQueue<E> {
        EventQueue::default()
    }

    /// Due cycle of the earliest pending event.
    #[inline]
    pub fn next_due(&self) -> Option<u64> {
        self.heap.peek().map(|e| e.key.0)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E: Sequenced> EventQueue<E> {
    /// Schedules `event`; later pushes with an equal `(due, class)` pop
    /// after earlier ones.
    #[inline]
    pub fn push(&mut self, event: E) {
        let key = (event.due(), event.class(), self.seq);
        self.seq += 1;
        self.heap.push(Entry { key, event });
    }

    /// Pops the next event due at or before `now`, if any.
    #[inline]
    pub fn pop_due(&mut self, now: u64) -> Option<E> {
        if self.next_due()? <= now {
            interleave_obs::profile::mark("engine.event_pop");
            self.heap.pop().map(|e| e.event)
        } else {
            None
        }
    }
}

impl<E> fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventQueue")
            .field("len", &self.len())
            .field("next_due", &self.next_due())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A two-class test event: class-0 `A`s beat class-1 `B`s in a cycle.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Ev {
        A { due: u64 },
        B { due: u64, tag: u64 },
    }

    impl Sequenced for Ev {
        fn due(&self) -> u64 {
            match *self {
                Ev::A { due } | Ev::B { due, .. } => due,
            }
        }

        fn class(&self) -> u8 {
            match self {
                Ev::A { .. } => 0,
                Ev::B { .. } => 1,
            }
        }
    }

    #[test]
    fn pops_in_due_order() {
        let mut q = EventQueue::new();
        q.push(Ev::A { due: 9 });
        q.push(Ev::A { due: 3 });
        q.push(Ev::A { due: 6 });
        assert_eq!(q.next_due(), Some(3));
        assert!(q.pop_due(2).is_none());
        assert_eq!(q.pop_due(9).unwrap().due(), 3);
        assert_eq!(q.pop_due(9).unwrap().due(), 6);
        assert_eq!(q.pop_due(9).unwrap().due(), 9);
        assert!(q.pop_due(u64::MAX).is_none());
    }

    #[test]
    fn lower_classes_pop_before_same_cycle_higher_ones() {
        let mut q = EventQueue::new();
        q.push(Ev::B { due: 5, tag: 0x10 });
        q.push(Ev::A { due: 5 });
        assert!(matches!(q.pop_due(5), Some(Ev::A { .. })));
        assert!(matches!(q.pop_due(5), Some(Ev::B { .. })));
    }

    #[test]
    fn same_class_pops_in_scheduling_order() {
        let mut q = EventQueue::new();
        q.push(Ev::B { due: 5, tag: 0x10 });
        q.push(Ev::B { due: 5, tag: 0x20 });
        q.push(Ev::B { due: 5, tag: 0x30 });
        let tags: Vec<u64> = std::iter::from_fn(|| q.pop_due(5))
            .map(|e| match e {
                Ev::B { tag, .. } => tag,
                Ev::A { .. } => unreachable!(),
            })
            .collect();
        assert_eq!(tags, [0x10, 0x20, 0x30]);
    }

    #[test]
    fn empty_queue_reports_nothing_due() {
        let mut q: EventQueue<Ev> = EventQueue::new();
        assert_eq!(q.next_due(), None);
        assert!(q.pop_due(100).is_none());
        assert_eq!(q.len(), 0);
        assert!(q.is_empty());
    }
}
