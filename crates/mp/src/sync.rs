use std::collections::{HashMap, HashSet, VecDeque};

use interleave_isa::{SyncKind, SyncRef};
use interleave_obs::validate::Violation;

/// A thread identity: (node, hardware context).
pub type Who = (usize, usize);

#[derive(Debug, Default)]
struct Lock {
    holder: Option<Who>,
    queue: VecDeque<Who>,
}

#[derive(Debug, Default)]
struct Barrier {
    arrived: HashSet<Who>,
    passed: HashSet<Who>,
}

/// Home-side lock and barrier state for the multiprocessor.
///
/// Lock and barrier identifiers are partitioned across nodes (`id %
/// nodes` picks the home); each home owns one `SyncShard` that only ever
/// sees its own identifiers. Cross-node lock/barrier traffic arrives as
/// messages: a request is processed at its delivery cycle, and every
/// thread it grants or releases is returned so the caller can send grant
/// tokens back through the same deterministic message queues.
///
/// Operations are *idempotent per thread*, because the processor may
/// squash and re-execute a synchronization instruction (e.g. when an
/// older load of the same context misses): re-acquiring a lock you hold,
/// re-releasing a lock you no longer hold, and re-arriving at a barrier
/// instance you already passed are all harmless.
///
/// A release hands the lock straight to the head of its FIFO queue, and
/// the last arrival at a barrier releases every arriver, so a grant token
/// is an unconditional go-ahead for the waiter's pending operation.
///
/// Barrier identifiers are *instance* numbers: each workload thread
/// numbers its barrier arrivals sequentially, and an instance releases
/// when `expected` distinct threads arrive at it.
#[derive(Debug)]
pub struct SyncShard {
    /// Barrier arity: the number of participating threads.
    expected: u32,
    locks: HashMap<u32, Lock>,
    barriers: HashMap<u32, Barrier>,
    /// Operations that had to wait (statistics).
    waits: u64,
    /// Lock grants performed (statistics).
    grants: u64,
}

impl SyncShard {
    /// Creates a shard whose barriers expect `threads` arrivals.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn new(threads: u32) -> SyncShard {
        assert!(threads >= 1, "need at least one thread");
        SyncShard {
            expected: threads,
            locks: HashMap::new(),
            barriers: HashMap::new(),
            waits: 0,
            grants: 0,
        }
    }

    /// Processes one request from `who` and appends every `(thread,
    /// operation)` pair that must receive a grant token to `grants`: the
    /// requester itself when the operation proceeds immediately, the next
    /// holder of a released lock, and every waiter a barrier releases (the
    /// last arriver first, then the others in sorted order, so grant-token
    /// sequence numbers are run-to-run deterministic). Releases produce no
    /// token for the requester (the releasing thread never waits).
    pub fn request(&mut self, who: Who, op: SyncRef, grants: &mut Vec<(Who, SyncRef)>) {
        match op.kind {
            SyncKind::LockAcquire => self.acquire(who, op, grants),
            SyncKind::LockRelease => self.release(who, op, grants),
            SyncKind::BarrierArrive => self.arrive(who, op, grants),
        }
    }

    fn acquire(&mut self, who: Who, op: SyncRef, grants: &mut Vec<(Who, SyncRef)>) {
        let lock = self.locks.entry(op.id).or_default();
        if lock.holder == Some(who) {
            grants.push((who, op)); // re-executed acquire
        } else if lock.holder.is_none() {
            lock.holder = Some(who);
            self.grants += 1;
            grants.push((who, op));
        } else if !lock.queue.contains(&who) {
            lock.queue.push_back(who);
            self.waits += 1;
        }
    }

    fn release(&mut self, who: Who, op: SyncRef, grants: &mut Vec<(Who, SyncRef)>) {
        let lock = self.locks.entry(op.id).or_default();
        if lock.holder != Some(who) {
            return; // re-executed release
        }
        lock.holder = lock.queue.pop_front();
        if let Some(next) = lock.holder {
            self.grants += 1;
            grants.push((next, SyncRef { kind: SyncKind::LockAcquire, id: op.id }));
        }
    }

    fn arrive(&mut self, who: Who, op: SyncRef, grants: &mut Vec<(Who, SyncRef)>) {
        let (instance, expected) = (op.id, self.expected);
        let barrier = self.barriers.entry(instance).or_default();
        if barrier.passed.contains(&who) {
            grants.push((who, op)); // re-executed arrival
            return;
        }
        barrier.arrived.insert(who);
        if (barrier.arrived.len() as u32) < expected {
            self.waits += 1;
            return;
        }
        // Last arriver: release everyone.
        let mut woken: Vec<Who> = barrier.arrived.drain().filter(|&w| w != who).collect();
        woken.sort_unstable();
        barrier.passed.insert(who);
        barrier.passed.extend(woken.iter().copied());
        grants.push((who, op));
        grants.extend(woken.into_iter().map(|w| (w, op)));
        // Full instances are complete; drop old ones to bound memory.
        if self.barriers.len() > 8 {
            self.barriers.retain(|&k, b| k + 4 >= instance || (b.passed.len() as u32) < expected);
        }
    }

    /// Number of operations that had to wait.
    pub fn waits(&self) -> u64 {
        self.waits
    }

    /// Number of lock grants.
    pub fn grants(&self) -> u64 {
        self.grants
    }

    /// Checks the shard's structural invariants at `cycle`: waiters queue
    /// at most once and never while holding the lock (so every NACKed
    /// retry stays drainable — a queued thread is always eventually
    /// reachable by a hand-off), and barrier arrivals never reach the
    /// arity and never overlap the released set.
    pub fn check_invariants(&self, cycle: u64) -> Result<(), Violation> {
        for (&id, lock) in &self.locks {
            for (i, who) in lock.queue.iter().enumerate() {
                if lock.queue.iter().skip(i + 1).any(|w| w == who) {
                    return Err(Violation::new(
                        "mp.sync",
                        "thread queued twice on one lock",
                        cycle,
                        format!("lock {id}, thread {who:?}"),
                    )
                    .with_context(who.0));
                }
                if lock.holder == Some(*who) {
                    return Err(Violation::new(
                        "mp.sync",
                        "lock holder is also queued waiting",
                        cycle,
                        format!("lock {id}, thread {who:?}"),
                    )
                    .with_context(who.0));
                }
            }
        }
        for (&instance, barrier) in &self.barriers {
            if barrier.arrived.len() as u32 >= self.expected {
                return Err(Violation::new(
                    "mp.sync",
                    "barrier instance at arity but never released",
                    cycle,
                    format!(
                        "instance {instance}: {} arrived of {} expected",
                        barrier.arrived.len(),
                        self.expected
                    ),
                ));
            }
            if let Some(who) = barrier.arrived.intersection(&barrier.passed).next() {
                return Err(Violation::new(
                    "mp.sync",
                    "thread both waiting at and released from a barrier",
                    cycle,
                    format!("instance {instance}, thread {who:?}"),
                )
                .with_context(who.0));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acq(id: u32) -> SyncRef {
        SyncRef { kind: SyncKind::LockAcquire, id }
    }
    fn rel(id: u32) -> SyncRef {
        SyncRef { kind: SyncKind::LockRelease, id }
    }
    fn bar(id: u32) -> SyncRef {
        SyncRef { kind: SyncKind::BarrierArrive, id }
    }

    /// The grant tokens one request produces.
    fn req(s: &mut SyncShard, who: Who, op: SyncRef) -> Vec<(Who, SyncRef)> {
        let mut grants = vec![];
        s.request(who, op, &mut grants);
        grants
    }

    #[test]
    fn uncontended_lock_proceeds() {
        let mut s = SyncShard::new(2);
        assert_eq!(req(&mut s, (0, 0), acq(1)), vec![((0, 0), acq(1))]);
        assert!(req(&mut s, (0, 0), rel(1)).is_empty()); // no token for the releaser
        assert_eq!(req(&mut s, (1, 0), acq(1)), vec![((1, 0), acq(1))]);
    }

    #[test]
    fn contended_lock_hands_off_fifo_on_release() {
        let mut s = SyncShard::new(4);
        assert_eq!(req(&mut s, (0, 0), acq(1)), vec![((0, 0), acq(1))]);
        assert!(req(&mut s, (1, 0), acq(1)).is_empty());
        assert!(req(&mut s, (2, 0), acq(1)).is_empty());
        // The release passes the lock to the head of the queue at once.
        assert_eq!(req(&mut s, (0, 0), rel(1)), vec![((1, 0), acq(1))]);
        // A later requester queues behind the one already waiting.
        assert!(req(&mut s, (3, 0), acq(1)).is_empty());
        assert_eq!(req(&mut s, (1, 0), rel(1)), vec![((2, 0), acq(1))]);
        assert_eq!(req(&mut s, (2, 0), rel(1)), vec![((3, 0), acq(1))]);
        assert!(s.check_invariants(10).is_ok());
    }

    #[test]
    fn reacquire_is_idempotent() {
        let mut s = SyncShard::new(2);
        assert_eq!(req(&mut s, (0, 0), acq(1)), vec![((0, 0), acq(1))]);
        assert_eq!(req(&mut s, (0, 0), acq(1)), vec![((0, 0), acq(1))]);
        assert_eq!(s.grants(), 1);
    }

    #[test]
    fn stale_release_ignored() {
        let mut s = SyncShard::new(2);
        req(&mut s, (0, 0), acq(1));
        req(&mut s, (0, 0), rel(1));
        req(&mut s, (1, 0), acq(1));
        // Thread 0's re-executed release must not free thread 1's lock.
        assert!(req(&mut s, (0, 0), rel(1)).is_empty());
        assert!(req(&mut s, (0, 0), acq(1)).is_empty());
    }

    #[test]
    fn barrier_releases_all_at_arity_last_arriver_first() {
        let mut s = SyncShard::new(3);
        assert!(req(&mut s, (2, 0), bar(0)).is_empty());
        assert!(req(&mut s, (0, 1), bar(0)).is_empty());
        // Last arriver first (its own proceed), then the waiters sorted.
        assert_eq!(
            req(&mut s, (1, 0), bar(0)),
            vec![((1, 0), bar(0)), ((0, 1), bar(0)), ((2, 0), bar(0))]
        );
        // Re-executed arrivals at the released instance proceed.
        assert_eq!(req(&mut s, (0, 1), bar(0)), vec![((0, 1), bar(0))]);
        assert_eq!(req(&mut s, (2, 0), bar(0)), vec![((2, 0), bar(0))]);
        assert!(s.check_invariants(20).is_ok());
    }

    #[test]
    fn barrier_instances_are_independent() {
        let mut s = SyncShard::new(2);
        assert!(req(&mut s, (0, 0), bar(0)).is_empty());
        // Thread 1 arrives at the *next* instance early — does not release
        // instance 0.
        assert!(req(&mut s, (1, 0), bar(1)).is_empty());
        assert_eq!(req(&mut s, (1, 0), bar(0)), vec![((1, 0), bar(0)), ((0, 0), bar(0))]);
    }

    #[test]
    fn distinct_locks_are_independent() {
        let mut s = SyncShard::new(2);
        assert_eq!(req(&mut s, (0, 0), acq(1)).len(), 1);
        assert_eq!(req(&mut s, (1, 0), acq(2)).len(), 1);
        assert!(req(&mut s, (1, 0), acq(1)).is_empty());
    }

    #[test]
    fn barrier_rearrival_while_waiting_stays_waiting() {
        let mut s = SyncShard::new(2);
        assert!(req(&mut s, (0, 0), bar(3)).is_empty());
        // A squash re-executes the arrival before release: still waiting.
        assert!(req(&mut s, (0, 0), bar(3)).is_empty());
        assert_eq!(req(&mut s, (1, 0), bar(3)), vec![((1, 0), bar(3)), ((0, 0), bar(3))]);
    }

    #[test]
    fn completed_barrier_instances_are_collected() {
        let mut s = SyncShard::new(1);
        for instance in 0..20 {
            assert_eq!(req(&mut s, (0, 0), bar(instance)).len(), 1);
        }
        // Only instances within four of the newest survive a collection.
        assert!(s.barriers.len() <= 9, "{} instances kept", s.barriers.len());
        assert!(s.barriers.contains_key(&15) && !s.barriers.contains_key(&10));
    }

    #[test]
    fn invariants_hold_through_contention() {
        let mut s = SyncShard::new(4);
        req(&mut s, (0, 0), acq(1));
        req(&mut s, (1, 0), acq(1));
        req(&mut s, (2, 0), acq(1));
        req(&mut s, (0, 0), rel(1));
        assert!(s.check_invariants(50).is_ok());
        for node in 0..3 {
            req(&mut s, (node, 0), bar(0));
        }
        assert!(s.check_invariants(99).is_ok());
    }

    #[test]
    fn wait_and_grant_counters() {
        let mut s = SyncShard::new(2);
        req(&mut s, (0, 0), acq(1));
        req(&mut s, (1, 0), acq(1));
        req(&mut s, (1, 0), acq(1)); // re-executed while queued: no new wait
        assert_eq!((s.waits(), s.grants()), (1, 1));
        req(&mut s, (0, 0), rel(1)); // the hand-off is a grant
        assert_eq!((s.waits(), s.grants()), (1, 2));
        req(&mut s, (0, 0), bar(0));
        req(&mut s, (0, 0), bar(0)); // a re-arrival while waiting counts again
        assert_eq!((s.waits(), s.grants()), (3, 2));
    }
}
