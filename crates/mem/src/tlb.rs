use std::collections::VecDeque;

/// Resident pages remembered by the hit filter in front of the scan: one
/// per hardware context of the largest studied configuration, so
/// interleaved instruction fetch from four contexts stays on the O(1)
/// path.
const RECENT: usize = 4;

/// A fully associative translation lookaside buffer with FIFO replacement
/// over virtual page numbers (the MIPS R4000's TLB was fully associative;
/// FIFO approximates its random replacement deterministically).
///
/// The paper folds TLB stalls into the cache-stall categories ("Inst
/// Cache/TLB", "Data Cache/TLB") and includes a workload (DT) constructed
/// to stress the data TLB. The published text does not give TLB
/// parameters, so this is a reconstruction: 64 entries over 4 KB pages
/// with a fixed refill penalty (see `PathTiming::dtlb_miss`).
///
/// A few recently used resident pages are checked before the
/// associative scan. The filter only ever names resident pages (an
/// evicted or invalidated page leaves it too), and a hit does not change
/// FIFO order, so it changes no outcome.
///
/// # Examples
///
/// ```
/// use interleave_mem::DirectTlb;
///
/// let mut tlb = DirectTlb::new(64, 4096);
/// assert!(!tlb.access(0x1234)); // cold miss (entry refilled)
/// assert!(tlb.access(0x1FFF));  // same page now hits
/// ```
#[derive(Debug, Clone)]
pub struct DirectTlb {
    page_shift: u32,
    capacity: usize,
    /// Resident page numbers in FIFO order (front = oldest).
    entries: VecDeque<u64>,
    /// Recently used resident pages, replaced round-robin.
    recent: [Option<u64>; RECENT],
    /// Next `recent` slot to replace.
    recent_next: usize,
}

impl DirectTlb {
    /// Creates an empty TLB with `entries` slots over `page_size`-byte
    /// pages.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero or `page_size` is not a power of two.
    pub fn new(entries: usize, page_size: u64) -> DirectTlb {
        assert!(entries > 0, "need at least one TLB entry");
        assert!(page_size.is_power_of_two(), "page size must be a power of two");
        DirectTlb {
            page_shift: page_size.trailing_zeros(),
            capacity: entries,
            entries: VecDeque::with_capacity(entries),
            recent: [None; RECENT],
            recent_next: 0,
        }
    }

    #[inline]
    fn vpn(&self, addr: u64) -> u64 {
        addr >> self.page_shift
    }

    /// Translates `addr`; returns whether it hit. On a miss the entry is
    /// refilled (the caller charges the miss penalty), evicting the oldest
    /// entry when full.
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        let vpn = self.vpn(addr);
        if self.recent.contains(&Some(vpn)) {
            return true;
        }
        let hit = self.entries.contains(&vpn);
        if !hit {
            if self.entries.len() == self.capacity {
                let evicted = self.entries.pop_front().expect("full TLB has entries");
                self.forget(evicted);
            }
            self.entries.push_back(vpn);
        }
        self.recent[self.recent_next] = Some(vpn);
        self.recent_next = (self.recent_next + 1) % RECENT;
        hit
    }

    /// Drops `vpn` from the hit filter (it is leaving the TLB).
    fn forget(&mut self, vpn: u64) {
        for slot in &mut self.recent {
            if *slot == Some(vpn) {
                *slot = None;
            }
        }
    }

    /// Whether `addr` would hit, without refilling.
    pub fn probe(&self, addr: u64) -> bool {
        let vpn = self.vpn(addr);
        self.recent.contains(&Some(vpn)) || self.entries.contains(&vpn)
    }

    /// Invalidates the entry at FIFO position `index`, if present (OS
    /// interference model).
    pub fn invalidate_entry(&mut self, index: usize) {
        if let Some(vpn) = self.entries.remove(index) {
            self.forget(vpn);
        }
    }

    /// Number of entry slots.
    pub fn len(&self) -> usize {
        self.capacity
    }

    /// Whether the TLB holds no valid entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Empties the TLB.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.recent = [None; RECENT];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit() {
        let mut t = DirectTlb::new(4, 4096);
        assert!(!t.access(0x1000));
        assert!(t.access(0x1FFF));
        assert!(!t.access(0x2000));
    }

    #[test]
    fn full_associativity_avoids_conflicts() {
        let mut t = DirectTlb::new(4, 4096);
        // Pages 0 and 4 would conflict in a 4-entry direct-mapped TLB;
        // here they coexist.
        t.access(0x0000);
        t.access(0x4000);
        assert!(t.probe(0x0000));
        assert!(t.probe(0x4000));
    }

    #[test]
    fn fifo_eviction_when_full() {
        let mut t = DirectTlb::new(2, 4096);
        t.access(0x0000); // page 0 (oldest)
        t.access(0x1000); // page 1
        t.access(0x2000); // page 2: evicts page 0
        assert!(!t.probe(0x0000));
        assert!(t.probe(0x1000));
        assert!(t.probe(0x2000));
    }

    #[test]
    fn clear_and_empty() {
        let mut t = DirectTlb::new(4, 4096);
        assert!(t.is_empty());
        t.access(0x1000);
        assert!(!t.is_empty());
        t.clear();
        assert!(t.is_empty());
    }

    #[test]
    fn invalidate_entry() {
        let mut t = DirectTlb::new(4, 4096);
        t.access(0x1000);
        t.invalidate_entry(0);
        assert!(!t.probe(0x1000));
        // Out-of-range invalidation is a no-op.
        t.invalidate_entry(10);
    }

    #[test]
    fn filtered_page_leaves_with_its_entry() {
        let mut t = DirectTlb::new(2, 4096);
        t.access(0x0000);
        t.access(0x1000);
        t.access(0x2000); // evicts page 0, which the filter also held
        assert!(!t.probe(0x0000), "evicted page must miss");
        t.invalidate_entry(0); // page 1, now the oldest
        assert!(!t.probe(0x1000));
        assert!(t.probe(0x2000));
        t.clear();
        assert!(!t.probe(0x2000));
    }

    #[test]
    #[should_panic]
    fn zero_entries_rejected() {
        let _ = DirectTlb::new(0, 4096);
    }
}
