/// A single-server resource with FIFO queuing, used to model contention on
/// cache ports, the split-transaction bus, and memory banks.
///
/// A request arriving at cycle `now` begins service at
/// `max(now, free_at)` and holds the resource for `occupancy` cycles.
/// The queuing delay (`start - now`) is how contention adds latency on top
/// of the unloaded path times.
///
/// # Examples
///
/// ```
/// use interleave_mem::Resource;
///
/// let mut bank = Resource::new();
/// assert_eq!(bank.acquire(10, 26), 10); // idle: starts immediately
/// assert_eq!(bank.acquire(12, 26), 36); // busy until 36: queued
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Resource {
    free_at: u64,
}

impl Resource {
    /// Creates an idle resource.
    pub fn new() -> Resource {
        Resource::default()
    }

    /// Reserves the resource for `occupancy` cycles starting no earlier
    /// than `now`, and returns the cycle at which service begins.
    ///
    /// # Panics
    ///
    /// Panics if `occupancy` is zero.
    #[inline]
    pub fn acquire(&mut self, now: u64, occupancy: u64) -> u64 {
        assert!(occupancy > 0, "occupancy must be at least one cycle");
        let start = self.free_at.max(now);
        self.free_at = start + occupancy;
        start
    }

    /// The cycle at which the resource becomes idle.
    pub fn free_at(&self) -> u64 {
        self.free_at
    }

    /// Whether the resource is idle at cycle `now`.
    pub fn is_free(&self, now: u64) -> bool {
        self.free_at <= now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_resource_starts_immediately() {
        let mut r = Resource::new();
        assert_eq!(r.acquire(5, 3), 5);
        assert_eq!(r.free_at(), 8);
    }

    #[test]
    fn queued_requests_serialize() {
        let mut r = Resource::new();
        r.acquire(0, 10);
        assert_eq!(r.acquire(1, 10), 10);
        assert_eq!(r.acquire(2, 10), 20);
    }

    #[test]
    fn gaps_leave_resource_idle() {
        let mut r = Resource::new();
        r.acquire(0, 2);
        assert!(r.is_free(2));
        assert!(!r.is_free(1));
        assert_eq!(r.acquire(100, 1), 100);
    }

    #[test]
    #[should_panic]
    fn zero_occupancy_rejected() {
        let mut r = Resource::new();
        r.acquire(0, 0);
    }
}
