use std::fmt;

/// Capacity of the per-context fill-binding ring — one entry per
/// outstanding fill, capped at the MSHR count.
const FILL_RING_CAP: usize = 8;

/// Fixed-capacity FIFO of `(fetch_index, addr)` fill bindings.
///
/// Replaces a `Vec` with `remove(0)` eviction in the miss path: same
/// first-in-first-out semantics (oldest binding evicted when an
/// insertion finds the ring full, match removal preserves order), no
/// heap traffic.
#[derive(Clone, Copy)]
pub(crate) struct FillRing {
    slots: [(u64, u64); FILL_RING_CAP],
    /// Index of the oldest entry.
    head: usize,
    len: usize,
}

impl FillRing {
    pub fn new() -> FillRing {
        FillRing { slots: [(0, 0); FILL_RING_CAP], head: 0, len: 0 }
    }

    #[inline]
    fn at(&self, i: usize) -> (u64, u64) {
        self.slots[(self.head + i) % FILL_RING_CAP]
    }

    /// Entries in insertion (oldest-first) order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        (0..self.len).map(|i| self.at(i))
    }

    #[inline]
    pub fn contains(&self, entry: (u64, u64)) -> bool {
        self.iter().any(|e| e == entry)
    }

    /// Appends `entry`, evicting the oldest binding if the ring is full
    /// (the MSHR being reused).
    pub fn push_evicting(&mut self, entry: (u64, u64)) {
        if self.len == FILL_RING_CAP {
            self.head = (self.head + 1) % FILL_RING_CAP;
            self.len -= 1;
        }
        self.slots[(self.head + self.len) % FILL_RING_CAP] = entry;
        self.len += 1;
    }

    /// Removes the first entry equal to `entry`, preserving the order of
    /// the rest; returns whether a match was found.
    #[inline]
    pub fn take(&mut self, entry: (u64, u64)) -> bool {
        let Some(pos) = (0..self.len).find(|&i| self.at(i) == entry) else {
            return false;
        };
        for i in pos..self.len - 1 {
            self.slots[(self.head + i) % FILL_RING_CAP] = self.at(i + 1);
        }
        self.len -= 1;
        true
    }

    pub fn clear(&mut self) {
        self.head = 0;
        self.len = 0;
    }
}

impl fmt::Debug for FillRing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Why a context is unavailable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitReason {
    /// Waiting for an outstanding data reference (cache or TLB miss).
    Data,
    /// Waiting on a lock or barrier.
    Sync,
    /// Backing off a long instruction latency (backoff / explicit switch).
    Backoff,
}

/// Availability of one hardware context.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CtxState {
    /// Eligible to fetch and issue.
    Ready,
    /// Unavailable. `until: Some(c)` resumes at cycle `c`; `None` waits for
    /// an external wake (synchronization grant).
    Waiting { reason: WaitReason, until: Option<u64> },
}

/// Per-context scheduling state in struct-of-arrays layout: one
/// fixed-capacity, arena-backed column per field, indexed by context id.
///
/// The processor's hot loops scan one field across every context (the
/// select scan reads `state`, the idle bound reads `state` and `done`,
/// metrics sum `retired`); laying each field out contiguously keeps
/// those scans on a handful of cache lines instead of striding over
/// whole per-context records. Columns are allocated once at
/// construction (`Box<[_]>`, no spare capacity) and never resized —
/// context count is a hardware parameter.
#[derive(Debug)]
pub(crate) struct ContextTable {
    /// Availability of each context.
    pub state: Box<[CtxState]>,
    /// Set while fetching down a mispredicted path.
    pub wrong_path: Box<[bool]>,
    /// Bumped on every squash; pending events carry the epoch at which they
    /// were scheduled and are dropped if stale.
    pub epoch: Box<[u64]>,
    /// A backoff/switch instruction has been fetched but not yet issued:
    /// fetch from this context is suppressed (the hardware detects these
    /// at decode, Table 4).
    pub pending_backoff: Box<[bool]>,
    /// Miss fills bound to each context's re-executed accesses: the
    /// lockup-free cache's MSHRs deliver the data directly, so when the
    /// instruction at a bound fetch index re-executes it completes without
    /// re-probing the cache (guarantees forward progress under conflict
    /// eviction). One entry per outstanding fill, capped at the MSHR
    /// count.
    pub bound_fills: Box<[FillRing]>,
    /// An instruction fetch bound to an outstanding I-fill: when fetch
    /// resumes at this cursor index, the instruction is delivered without
    /// re-probing the I-cache (forward progress under I-TLB/I-cache
    /// conflict eviction by other contexts).
    pub bound_ifetch: Box<[Option<u64>]>,
    /// Retired instruction count (resettable).
    pub retired: Box<[u64]>,
    /// Whether a stream is attached.
    pub attached: Box<[bool]>,
    /// Latched when the context's fetch unit completes (stream exhausted,
    /// everything retired); maintained incrementally so the run loops can
    /// test completion in O(1) instead of scanning every unit per cycle.
    pub done: Box<[bool]>,
}

impl ContextTable {
    pub fn new(contexts: usize) -> ContextTable {
        ContextTable {
            state: vec![CtxState::Ready; contexts].into_boxed_slice(),
            wrong_path: vec![false; contexts].into_boxed_slice(),
            epoch: vec![0; contexts].into_boxed_slice(),
            pending_backoff: vec![false; contexts].into_boxed_slice(),
            bound_fills: vec![FillRing::new(); contexts].into_boxed_slice(),
            bound_ifetch: vec![None; contexts].into_boxed_slice(),
            retired: vec![0; contexts].into_boxed_slice(),
            attached: vec![false; contexts].into_boxed_slice(),
            done: vec![false; contexts].into_boxed_slice(),
        }
    }

    /// Number of hardware contexts.
    #[inline]
    pub fn len(&self) -> usize {
        self.state.len()
    }

    #[inline]
    pub fn is_ready(&self, ctx: usize) -> bool {
        matches!(self.state[ctx], CtxState::Ready)
    }

    /// Read-only snapshot of one context's scheduling state.
    pub fn view(&self, ctx: usize) -> CtxView {
        let (waiting_on, resumes_at) = match self.state[ctx] {
            CtxState::Ready => (None, None),
            CtxState::Waiting { reason, until } => (Some(reason), until),
        };
        CtxView {
            ready: self.is_ready(ctx),
            waiting_on,
            resumes_at,
            retired: self.retired[ctx],
            attached: self.attached[ctx],
        }
    }
}

/// A read-only snapshot of one context's scheduling state, for tests and
/// simulation drivers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CtxView {
    /// Whether the context is currently available for fetch/issue.
    pub ready: bool,
    /// Why it is waiting, if it is.
    pub waiting_on: Option<WaitReason>,
    /// Cycle at which it resumes, when known.
    pub resumes_at: Option<u64>,
    /// Retired instruction count.
    pub retired: u64,
    /// Whether an instruction stream is attached.
    pub attached: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_contexts_are_ready() {
        let t = ContextTable::new(2);
        assert_eq!(t.len(), 2);
        for ctx in 0..2 {
            assert!(t.is_ready(ctx));
            let v = t.view(ctx);
            assert!(v.ready);
            assert_eq!(v.waiting_on, None);
            assert_eq!(v.retired, 0);
            assert!(!v.attached);
        }
    }

    #[test]
    fn waiting_view() {
        let mut t = ContextTable::new(2);
        t.state[1] = CtxState::Waiting { reason: WaitReason::Data, until: Some(42) };
        let v = t.view(1);
        assert!(!v.ready);
        assert_eq!(v.waiting_on, Some(WaitReason::Data));
        assert_eq!(v.resumes_at, Some(42));
        assert!(t.view(0).ready, "columns are per-context");
    }

    #[test]
    fn fill_ring_is_fifo_with_eviction() {
        let mut r = FillRing::new();
        for i in 0..FILL_RING_CAP as u64 {
            r.push_evicting((i, i * 8));
        }
        assert!(r.contains((0, 0)));
        // Full: the next insertion evicts the oldest binding.
        r.push_evicting((99, 99));
        assert!(!r.contains((0, 0)));
        assert!(r.contains((99, 99)));
        assert_eq!(r.iter().next(), Some((1, 8)));
    }

    #[test]
    fn fill_ring_take_removes_match_preserving_order() {
        let mut r = FillRing::new();
        r.push_evicting((1, 1));
        r.push_evicting((2, 2));
        r.push_evicting((3, 3));
        assert!(r.take((2, 2)));
        assert!(!r.take((2, 2)));
        assert_eq!(r.iter().collect::<Vec<_>>(), [(1, 1), (3, 3)]);
        r.clear();
        assert_eq!(r.iter().count(), 0);
    }

    #[test]
    fn sync_wait_has_no_resume_cycle() {
        let mut t = ContextTable::new(1);
        t.state[0] = CtxState::Waiting { reason: WaitReason::Sync, until: None };
        assert_eq!(t.view(0).resumes_at, None);
        assert_eq!(t.view(0).waiting_on, Some(WaitReason::Sync));
    }
}
