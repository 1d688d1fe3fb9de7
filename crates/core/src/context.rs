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

/// Most hardware contexts one processor supports: the processor keeps
/// context readiness in one `u64` bitmask per condition.
pub const MAX_CONTEXTS: usize = 64;

/// The indices of the set bits of `mask`, lowest first.
#[inline]
pub(crate) fn set_bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let c = mask.trailing_zeros() as usize;
        mask &= mask.wrapping_sub(1);
        (c < 64).then_some(c)
    })
}

/// The set bits of `mask` in round-robin order from `start` (`< 64`):
/// the bits at or above `start` first, then the bits below it.
#[inline]
pub(crate) fn rr_order(mask: u64, start: usize) -> impl Iterator<Item = usize> {
    let high = u64::MAX << start;
    set_bits(mask & high).chain(set_bits(mask & !high))
}

/// Per-context scheduling state in struct-of-arrays layout: one
/// fixed-capacity, arena-backed column per field, indexed by context id,
/// plus readiness bitmasks derived from the `state`, `pending_backoff`
/// and `attached` columns.
///
/// Those three columns are private: every write goes through a setter
/// that ends in [`ContextTable::sync_masks`], so the masks are current
/// after every transition and the per-cycle paths (context select, idle
/// bound, bubble attribution) visit only the contexts whose bit is set
/// instead of rescanning every column. Columns are allocated once at
/// construction (`Box<[_]>`, no spare capacity) and never resized —
/// context count is a hardware parameter of at most [`MAX_CONTEXTS`].
#[derive(Debug)]
pub(crate) struct ContextTable {
    /// Availability of each context.
    state: Box<[CtxState]>,
    /// Set while fetching down a mispredicted path.
    pub wrong_path: Box<[bool]>,
    /// Bumped on every squash; pending events carry the epoch at which they
    /// were scheduled and are dropped if stale.
    pub epoch: Box<[u64]>,
    /// A backoff/switch instruction has been fetched but not yet issued:
    /// fetch from this context is suppressed (the hardware detects these
    /// at decode, Table 4).
    pending_backoff: Box<[bool]>,
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
    attached: Box<[bool]>,
    /// Latched when the context's fetch unit completes (stream exhausted,
    /// everything retired); maintained incrementally so the run loops can
    /// test completion in O(1) instead of scanning every unit per cycle.
    pub done: Box<[bool]>,
    /// Bit `c`: context `c` is attached and `Ready` (a pending backoff
    /// included).
    ready: u64,
    /// Bit `c`: context `c` is attached, `Ready` and has no pending
    /// backoff — the contexts fetch may pick.
    avail: u64,
    /// Bit `c`: context `c` is attached and `Waiting`.
    waiting: u64,
}

impl ContextTable {
    /// # Panics
    ///
    /// Panics if `contexts` exceeds [`MAX_CONTEXTS`].
    pub fn new(contexts: usize) -> ContextTable {
        assert!(contexts <= MAX_CONTEXTS, "at most {MAX_CONTEXTS} contexts, got {contexts}");
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
            ready: 0,
            avail: 0,
            waiting: 0,
        }
    }

    /// Number of hardware contexts.
    #[inline]
    pub fn len(&self) -> usize {
        self.state.len()
    }

    #[inline]
    pub fn state(&self, ctx: usize) -> CtxState {
        self.state[ctx]
    }

    #[inline]
    pub fn is_ready(&self, ctx: usize) -> bool {
        matches!(self.state[ctx], CtxState::Ready)
    }

    #[inline]
    pub fn pending_backoff(&self, ctx: usize) -> bool {
        self.pending_backoff[ctx]
    }

    #[inline]
    pub fn attached(&self, ctx: usize) -> bool {
        self.attached[ctx]
    }

    /// Attached `Ready` contexts, one bit each.
    #[inline]
    pub fn ready_mask(&self) -> u64 {
        self.ready
    }

    /// Attached `Ready` contexts without a pending backoff, one bit each.
    #[inline]
    pub fn avail_mask(&self) -> u64 {
        self.avail
    }

    /// Attached `Waiting` contexts, one bit each.
    #[inline]
    pub fn waiting_mask(&self) -> u64 {
        self.waiting
    }

    /// Marks `ctx` attached and ready.
    pub fn attach(&mut self, ctx: usize) {
        self.attached[ctx] = true;
        self.state[ctx] = CtxState::Ready;
        self.sync_masks(ctx);
    }

    #[inline]
    pub fn set_state(&mut self, ctx: usize, state: CtxState) {
        self.state[ctx] = state;
        self.sync_masks(ctx);
    }

    #[inline]
    pub fn set_pending_backoff(&mut self, ctx: usize, pending: bool) {
        self.pending_backoff[ctx] = pending;
        self.sync_masks(ctx);
    }

    /// The mask bits of `ctx` as its columns define them: (ready, avail,
    /// waiting).
    #[inline]
    fn derived_bits(&self, ctx: usize) -> (bool, bool, bool) {
        let attached = self.attached[ctx];
        let ready = attached && matches!(self.state[ctx], CtxState::Ready);
        let waiting = attached && !ready;
        (ready, ready && !self.pending_backoff[ctx], waiting)
    }

    /// Re-derives `ctx`'s mask bits from its columns; every setter ends
    /// here.
    #[inline]
    fn sync_masks(&mut self, ctx: usize) {
        let (ready, avail, waiting) = self.derived_bits(ctx);
        let bit = 1u64 << ctx;
        let put = |mask: &mut u64, on: bool| *mask = (*mask & !bit) | if on { bit } else { 0 };
        put(&mut self.ready, ready);
        put(&mut self.avail, avail);
        put(&mut self.waiting, waiting);
    }

    /// Recomputes every mask from the columns and returns the first
    /// disagreement as `(mask name, stored, recomputed)` (validation).
    pub fn mask_mismatch(&self) -> Option<(&'static str, u64, u64)> {
        let (mut ready, mut avail, mut waiting) = (0u64, 0u64, 0u64);
        for ctx in 0..self.len() {
            let (r, a, w) = self.derived_bits(ctx);
            ready |= u64::from(r) << ctx;
            avail |= u64::from(a) << ctx;
            waiting |= u64::from(w) << ctx;
        }
        [
            ("ready", self.ready, ready),
            ("avail", self.avail, avail),
            ("waiting", self.waiting, waiting),
        ]
        .into_iter()
        .find(|&(_, stored, fresh)| stored != fresh)
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
        t.set_state(1, CtxState::Waiting { reason: WaitReason::Data, until: Some(42) });
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
        t.set_state(0, CtxState::Waiting { reason: WaitReason::Sync, until: None });
        assert_eq!(t.view(0).resumes_at, None);
        assert_eq!(t.view(0).waiting_on, Some(WaitReason::Sync));
    }

    #[test]
    fn masks_follow_every_setter() {
        let mut t = ContextTable::new(4);
        assert_eq!((t.ready_mask(), t.avail_mask(), t.waiting_mask()), (0, 0, 0));
        t.attach(0);
        t.attach(2);
        t.attach(3);
        assert_eq!((t.ready_mask(), t.avail_mask(), t.waiting_mask()), (0b1101, 0b1101, 0));
        t.set_pending_backoff(2, true);
        assert_eq!((t.ready_mask(), t.avail_mask()), (0b1101, 0b1001));
        t.set_state(3, CtxState::Waiting { reason: WaitReason::Backoff, until: Some(9) });
        assert_eq!((t.ready_mask(), t.avail_mask(), t.waiting_mask()), (0b0101, 0b0001, 0b1000));
        // An unattached context is in no mask, whatever its state.
        t.set_state(1, CtxState::Waiting { reason: WaitReason::Data, until: Some(5) });
        assert_eq!(t.waiting_mask(), 0b1000);
        t.set_state(3, CtxState::Ready);
        t.set_pending_backoff(2, false);
        assert_eq!((t.ready_mask(), t.avail_mask(), t.waiting_mask()), (0b1101, 0b1101, 0));
        assert_eq!(t.mask_mismatch(), None);
    }

    #[test]
    fn mask_mismatch_names_a_stale_mask() {
        let mut t = ContextTable::new(2);
        t.attach(1);
        t.pending_backoff[1] = true; // a write that skips the setter
        assert_eq!(t.mask_mismatch(), Some(("avail", 0b10, 0)));
    }

    #[test]
    fn full_width_table_uses_the_top_bit() {
        let mut t = ContextTable::new(MAX_CONTEXTS);
        t.attach(MAX_CONTEXTS - 1);
        assert_eq!(t.avail_mask(), 1 << 63);
        assert_eq!(set_bits(t.avail_mask()).collect::<Vec<_>>(), [63]);
    }

    #[test]
    #[should_panic(expected = "at most 64 contexts")]
    fn table_rejects_more_than_a_word_of_contexts() {
        let _ = ContextTable::new(MAX_CONTEXTS + 1);
    }

    #[test]
    fn rr_order_wraps_from_start() {
        let mask = 0b1011_0110;
        assert_eq!(set_bits(mask).collect::<Vec<_>>(), [1, 2, 4, 5, 7]);
        assert_eq!(rr_order(mask, 4).collect::<Vec<_>>(), [4, 5, 7, 1, 2]);
        assert_eq!(rr_order(mask, 0).collect::<Vec<_>>(), [1, 2, 4, 5, 7]);
        assert_eq!(rr_order(mask, 63).collect::<Vec<_>>(), [1, 2, 4, 5, 7]);
        assert_eq!(rr_order(u64::MAX, 63).take(2).collect::<Vec<_>>(), [63, 0]);
        assert_eq!(rr_order(0, 3).next(), None);
    }
}
