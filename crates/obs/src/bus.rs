//! Latest-wins telemetry bus.
//!
//! A watch-channel-style publisher: [`Watch::publish`] replaces the
//! current value and bumps a version; any number of [`Subscriber`]s
//! read the latest value ([`Subscriber::latest`]) or block until it
//! changes ([`Subscriber::changed`]). Intermediate values are
//! deliberately dropped — telemetry wants the *current* state of a
//! sweep, not a backlog, so a slow subscriber can never stall the
//! publisher or accumulate unbounded history.
//!
//! The bench `Runner` publishes a `Snapshot` here after every cell. The
//! serve daemon hands each job's bus to its runner and streams the
//! snapshots to `GET /jobs/<id>/events` clients; nothing else reads it
//! out of process.

use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

struct State<T> {
    version: u64,
    value: Option<T>,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    changed: Condvar,
}

/// The publishing side of the bus. Cloning shares the same channel.
pub struct Watch<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Clone for Watch<T> {
    fn clone(&self) -> Watch<T> {
        Watch { shared: Arc::clone(&self.shared) }
    }
}

impl<T> std::fmt::Debug for Watch<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Watch").field("version", &self.version()).finish()
    }
}

impl<T> Default for Watch<T> {
    fn default() -> Watch<T> {
        Watch::new()
    }
}

impl<T> Watch<T> {
    /// Creates an empty bus (version 0, no value yet).
    pub fn new() -> Watch<T> {
        Watch {
            shared: Arc::new(Shared {
                state: Mutex::new(State { version: 0, value: None }),
                changed: Condvar::new(),
            }),
        }
    }

    /// Replaces the current value and wakes every blocked subscriber.
    pub fn publish(&self, value: T) {
        let mut state = self.lock();
        state.version += 1;
        state.value = Some(value);
        drop(state);
        self.shared.changed.notify_all();
    }

    /// Number of publishes so far.
    pub fn version(&self) -> u64 {
        self.lock().version
    }

    /// Creates a subscriber that has seen nothing yet (its first
    /// [`Subscriber::latest`] returns the current value, if any).
    pub fn subscribe(&self) -> Subscriber<T> {
        Subscriber { shared: Arc::clone(&self.shared), seen: 0 }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State<T>> {
        self.shared.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A reading side of the bus; tracks which version it has seen.
pub struct Subscriber<T> {
    shared: Arc<Shared<T>>,
    seen: u64,
}

impl<T> Clone for Subscriber<T> {
    /// Fans out: the clone shares the channel but keeps its own `seen`
    /// cursor, so N concurrent readers (e.g. N streaming connections to
    /// the same job) each observe every change independently.
    fn clone(&self) -> Subscriber<T> {
        Subscriber { shared: Arc::clone(&self.shared), seen: self.seen }
    }
}

impl<T> std::fmt::Debug for Subscriber<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Subscriber").field("seen", &self.seen).finish()
    }
}

impl<T: Clone> Subscriber<T> {
    /// The latest published value, if any, without blocking. Marks it
    /// seen.
    pub fn latest(&mut self) -> Option<T> {
        let state = self.shared.state.lock().unwrap_or_else(PoisonError::into_inner);
        self.seen = state.version;
        state.value.clone()
    }

    /// True if a publish has happened since this subscriber last read.
    pub fn has_changed(&self) -> bool {
        let state = self.shared.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.version > self.seen
    }

    /// Blocks until a value newer than the last one read is published,
    /// or `timeout` elapses. Returns the new value, or `None` on
    /// timeout.
    pub fn changed(&mut self, timeout: Duration) -> Option<T> {
        let mut state = self.shared.state.lock().unwrap_or_else(PoisonError::into_inner);
        let (next, result) = self
            .shared
            .changed
            .wait_timeout_while(state, timeout, |s| s.version <= self.seen)
            .unwrap_or_else(PoisonError::into_inner);
        state = next;
        if result.timed_out() && state.version <= self.seen {
            return None;
        }
        self.seen = state.version;
        state.value.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latest_wins_and_marks_seen() {
        let bus = Watch::new();
        let mut sub = bus.subscribe();
        assert_eq!(sub.latest(), None);
        bus.publish(1u32);
        bus.publish(2);
        bus.publish(3);
        assert_eq!(sub.latest(), Some(3), "intermediate values are dropped");
        assert!(!sub.has_changed());
        bus.publish(4);
        assert!(sub.has_changed());
        assert_eq!(sub.latest(), Some(4));
    }

    #[test]
    fn many_subscribers_see_the_same_value() {
        let bus = Watch::new();
        let mut a = bus.subscribe();
        let mut b = bus.subscribe();
        bus.publish("x");
        assert_eq!(a.latest(), Some("x"));
        assert_eq!(b.latest(), Some("x"));
    }

    #[test]
    fn changed_blocks_until_publish() {
        let bus = Watch::new();
        let mut sub = bus.subscribe();
        assert_eq!(sub.changed(Duration::from_millis(10)), None, "times out with no publish");
        std::thread::scope(|s| {
            let publisher = bus.clone();
            s.spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                publisher.publish(7u32);
            });
            assert_eq!(sub.changed(Duration::from_secs(5)), Some(7));
        });
        assert_eq!(sub.changed(Duration::from_millis(10)), None, "already seen");
    }

    #[test]
    fn cloned_subscribers_fan_out_independently() {
        let bus = Watch::new();
        let mut a = bus.subscribe();
        bus.publish(1u32);
        assert_eq!(a.latest(), Some(1));
        let mut b = a.clone();
        assert!(!b.has_changed(), "clone inherits the parent's cursor");
        bus.publish(2);
        assert_eq!(a.latest(), Some(2));
        assert!(b.has_changed(), "each clone tracks changes independently");
        assert_eq!(b.latest(), Some(2));
        bus.publish(3);
        assert_eq!(b.changed(Duration::from_secs(1)), Some(3));
        assert_eq!(a.latest(), Some(3), "reads on one clone do not consume the other's");
    }

    #[test]
    fn clones_share_the_channel() {
        let bus = Watch::new();
        let alias = bus.clone();
        let mut sub = alias.subscribe();
        bus.publish(9u8);
        assert_eq!(bus.version(), 1);
        assert_eq!(alias.version(), 1);
        assert_eq!(sub.latest(), Some(9));
    }
}
