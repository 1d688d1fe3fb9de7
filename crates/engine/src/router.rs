//! Deterministic cross-shard message fabric.
//!
//! Shards advancing on independent host threads exchange messages only
//! at quantum barriers; the fabric keeps delivery order a pure function
//! of simulated causality by totally ordering every message with a
//! [`MsgKey`]: due cycle first, then source lane, then a per-lane
//! sequence number. As long as each lane's sequence counter is
//! monotonic, no two messages share a key and delivery order is unique
//! regardless of which host thread routed what first.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

/// Total-order key of a cross-shard message: `(due cycle, source lane,
/// per-lane sequence)`.
///
/// Lanes partition the key space between producers: a driver typically
/// gives each shard its own lane and reserves extra lanes for messages
/// synthesized at the barrier itself (e.g. coherence effects of replayed
/// transactions), so synthesized messages can never collide with
/// shard-generated ones.
pub type MsgKey = (u64, usize, u64);

/// A routed message: delivered to shard `dst`'s inbox at the barrier,
/// then applied when that shard's clock reaches `key.0`.
#[derive(Debug)]
pub struct Msg<P> {
    /// Total-order key (due cycle, source lane, per-lane sequence).
    pub key: MsgKey,
    /// Destination shard.
    pub dst: usize,
    /// What the message does on delivery.
    pub payload: P,
}

/// An inbox entry, ordered by key alone (keys are unique by
/// construction: one monotonic sequence counter per lane).
struct InMsg<P> {
    key: MsgKey,
    payload: P,
}

impl<P> PartialEq for InMsg<P> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<P> Eq for InMsg<P> {}
impl<P> PartialOrd for InMsg<P> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<P> Ord for InMsg<P> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

/// One shard's inbox: a min-heap delivering queued payloads in
/// [`MsgKey`] order as the shard's clock advances.
pub struct Inbox<P> {
    heap: BinaryHeap<Reverse<InMsg<P>>>,
}

impl<P> Default for Inbox<P> {
    fn default() -> Inbox<P> {
        Inbox { heap: BinaryHeap::new() }
    }
}

impl<P> Inbox<P> {
    /// An empty inbox.
    pub fn new() -> Inbox<P> {
        Inbox::default()
    }

    /// Accepts a message for later delivery.
    pub fn push(&mut self, key: MsgKey, payload: P) {
        self.heap.push(Reverse(InMsg { key, payload }));
    }

    /// Due cycle of the earliest queued message, if any (bounds how far
    /// idle cycles may be skipped).
    #[inline]
    pub fn next_due(&self) -> Option<u64> {
        self.heap.peek().map(|m| m.0.key.0)
    }

    /// Pops the next message due at or before `now`, if any.
    #[inline]
    pub fn pop_due(&mut self, now: u64) -> Option<(MsgKey, P)> {
        if self.next_due()? <= now {
            interleave_obs::profile::mark("engine.router_pop");
            self.heap.pop().map(|Reverse(m)| (m.key, m.payload))
        } else {
            None
        }
    }

    /// Number of queued messages.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no messages are queued.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<P> fmt::Debug for Inbox<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Inbox")
            .field("len", &self.len())
            .field("next_due", &self.next_due())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_in_key_order_regardless_of_arrival() {
        let mut inbox = Inbox::new();
        inbox.push((200, 1, 7), "late");
        inbox.push((100, 3, 1), "early-high-lane");
        inbox.push((100, 0, 9), "early-low-lane");
        assert_eq!(inbox.next_due(), Some(100));
        assert!(inbox.pop_due(99).is_none());
        assert_eq!(inbox.pop_due(100).unwrap().1, "early-low-lane");
        assert_eq!(inbox.pop_due(100).unwrap().1, "early-high-lane");
        assert!(inbox.pop_due(100).is_none(), "due 200 must wait");
        assert_eq!(inbox.pop_due(200).unwrap().1, "late");
        assert!(inbox.is_empty());
    }

    #[test]
    fn same_lane_delivers_in_sequence_order() {
        let mut inbox = Inbox::new();
        inbox.push((50, 2, 11), 'b');
        inbox.push((50, 2, 10), 'a');
        assert_eq!(inbox.pop_due(50).unwrap(), ((50, 2, 10), 'a'));
        assert_eq!(inbox.pop_due(50).unwrap(), ((50, 2, 11), 'b'));
    }
}
