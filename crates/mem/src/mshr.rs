use interleave_obs::validate::Violation;

/// Miss-status holding registers for the lockup-free data cache.
///
/// Tracks outstanding line fills so that a second miss to an in-flight line
/// merges with the existing request instead of issuing a duplicate, as in
/// Kroft's lockup-free cache design cited by the paper.
///
/// Entries expire lazily: callers sweep completed fills with
/// [`MshrFile::expire`] before allocating. The entries sit in one array
/// of at most `capacity` slots, allocated once (a handful of registers,
/// as in hardware), and the file keeps the earliest completion cycle
/// among them, so a sweep with nothing complete returns after one
/// comparison.
#[derive(Debug, Clone)]
pub struct MshrFile {
    capacity: usize,
    /// `(line address, cycle at which the fill completes)`.
    entries: Vec<(u64, u64)>,
    /// Earliest completion cycle among `entries` (`u64::MAX` when
    /// empty).
    earliest: u64,
    /// Total fills ever allocated.
    allocations: u64,
    /// Most entries simultaneously outstanding (occupancy high-water).
    high_water: usize,
}

impl MshrFile {
    /// Creates an MSHR file with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> MshrFile {
        assert!(capacity > 0, "need at least one MSHR");
        MshrFile {
            capacity,
            entries: Vec::with_capacity(capacity),
            earliest: u64::MAX,
            allocations: 0,
            high_water: 0,
        }
    }

    /// Removes entries whose fills completed at or before `now`.
    #[inline]
    pub fn expire(&mut self, now: u64) {
        if now < self.earliest {
            return;
        }
        self.entries.retain(|&(_, ready)| ready > now);
        self.earliest = self.entries.iter().map(|&(_, ready)| ready).min().unwrap_or(u64::MAX);
    }

    /// If a fill for `line_addr` is outstanding, returns its completion
    /// cycle (the new miss merges with it).
    #[inline]
    pub fn lookup(&self, line_addr: u64) -> Option<u64> {
        self.entries.iter().find(|&&(line, _)| line == line_addr).map(|&(_, ready)| ready)
    }

    /// Records an outstanding fill completing at `ready_at`.
    ///
    /// # Panics
    ///
    /// Panics if the file is full or the line is already outstanding —
    /// callers must [`MshrFile::lookup`] (and merge) first.
    pub fn allocate(&mut self, line_addr: u64, ready_at: u64) {
        assert!(self.has_free_entry(), "MSHR file is full");
        assert!(self.lookup(line_addr).is_none(), "line {line_addr:#x} already outstanding");
        self.entries.push((line_addr, ready_at));
        self.earliest = self.earliest.min(ready_at);
        self.allocations += 1;
        self.high_water = self.high_water.max(self.entries.len());
    }

    /// Total fills ever allocated.
    pub fn allocations(&self) -> u64 {
        self.allocations
    }

    /// Most entries simultaneously outstanding since the last
    /// [`MshrFile::reset_stats`].
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Clears the allocation counters; the high-water restarts at the
    /// current occupancy. Outstanding fills are untouched.
    pub fn reset_stats(&mut self) {
        self.allocations = 0;
        self.high_water = self.entries.len();
    }

    /// Number of outstanding fills.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no fills are outstanding.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether the file has room for another fill.
    #[inline]
    pub fn has_free_entry(&self) -> bool {
        self.entries.len() < self.capacity
    }

    /// Earliest completion cycle among outstanding fills, if any.
    #[inline]
    pub fn earliest_ready(&self) -> Option<u64> {
        (!self.entries.is_empty()).then_some(self.earliest)
    }

    /// Number of entries the file was built with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Checks the MSHR structural invariants at cycle `now`:
    /// occupancy never exceeds capacity, no line is outstanding twice,
    /// every outstanding line address is aligned to `line_size` (i.e. the
    /// fill targets a real cache line), and no fill completes in the past
    /// without having been expired by more than a full miss round-trip
    /// (`expire` is lazy, so entries may linger a little after
    /// completion; a stale entry whose completion is far behind `now`
    /// means the sweep was skipped).
    ///
    /// Duplicate outstanding lines are also rejected at
    /// [`MshrFile::allocate`] time.
    pub fn check_invariants(&self, now: u64, line_size: u64) -> Result<(), Violation> {
        if self.entries.len() > self.capacity {
            return Err(Violation::new(
                "mem.mshr",
                "occupancy exceeds capacity",
                now,
                format!("{} outstanding, capacity {}", self.entries.len(), self.capacity),
            ));
        }
        for (i, &(line, ready)) in self.entries.iter().enumerate() {
            if self.entries[..i].iter().any(|&(other, _)| other == line) {
                return Err(Violation::new(
                    "mem.mshr",
                    "line outstanding twice",
                    now,
                    format!("line {line:#x} holds two MSHRs"),
                ));
            }
            if line % line_size != 0 {
                return Err(Violation::new(
                    "mem.mshr",
                    "outstanding fill targets an unaligned line",
                    now,
                    format!("line {line:#x} is not {line_size}-byte aligned"),
                ));
            }
            if ready.saturating_add(STALE_FILL_GRACE) < now {
                return Err(Violation::new(
                    "mem.mshr",
                    "completed fill never expired",
                    now,
                    format!("line {line:#x} completed at cycle {ready} and was never swept"),
                ));
            }
        }
        Ok(())
    }
}

/// Cycles a completed fill may linger before [`MshrFile::check_invariants`]
/// treats it as a missed `expire` sweep (expiry is lazy by design).
const STALE_FILL_GRACE: u64 = 4096;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_lookup_expire() {
        let mut m = MshrFile::new(2);
        m.allocate(0x40, 100);
        assert_eq!(m.lookup(0x40), Some(100));
        assert_eq!(m.lookup(0x80), None);
        m.expire(99);
        assert_eq!(m.len(), 1);
        m.expire(100);
        assert!(m.is_empty());
    }

    #[test]
    fn merge_visibility() {
        let mut m = MshrFile::new(4);
        m.allocate(0x40, 50);
        // A second miss to the same line sees the outstanding fill.
        assert_eq!(m.lookup(0x40), Some(50));
    }

    #[test]
    #[should_panic]
    fn double_allocate_panics() {
        let mut m = MshrFile::new(4);
        m.allocate(0x40, 50);
        m.allocate(0x40, 60);
    }

    #[test]
    #[should_panic]
    fn overflow_panics() {
        let mut m = MshrFile::new(1);
        m.allocate(0x40, 50);
        m.allocate(0x80, 60);
    }

    #[test]
    fn high_water_and_allocations() {
        let mut m = MshrFile::new(4);
        m.allocate(0x40, 50);
        m.allocate(0x80, 60);
        m.expire(55);
        m.allocate(0xc0, 70);
        // Peak was 2 outstanding even though only 2 remain now.
        assert_eq!(m.high_water(), 2);
        assert_eq!(m.allocations(), 3);
        m.reset_stats();
        assert_eq!(m.allocations(), 0);
        // High-water restarts at current occupancy, not zero.
        assert_eq!(m.high_water(), 2);
    }

    #[test]
    fn invariants_hold_on_normal_use() {
        let mut m = MshrFile::new(4);
        m.allocate(0x40, 50);
        m.allocate(0x80, 60);
        assert!(m.check_invariants(10, 64).is_ok());
        assert_eq!(m.capacity(), 4);
    }

    #[test]
    fn invariants_flag_unaligned_line() {
        let mut m = MshrFile::new(4);
        m.allocate(0x41, 50);
        let v = m.check_invariants(10, 64).unwrap_err();
        assert_eq!(v.component, "mem.mshr");
        assert!(v.to_string().contains("0x41"), "{v}");
        assert!(v.to_string().contains("cycle 10"), "{v}");
    }

    #[test]
    fn invariants_flag_stale_fill() {
        let mut m = MshrFile::new(4);
        m.allocate(0x40, 50);
        // Lazy expiry: a recently completed fill is fine...
        assert!(m.check_invariants(51, 64).is_ok());
        // ...but one stranded far in the past means expire() never ran.
        let v = m.check_invariants(50 + STALE_FILL_GRACE + 1, 64).unwrap_err();
        assert!(v.to_string().contains("never"), "{v}");
    }

    #[test]
    fn earliest_ready() {
        let mut m = MshrFile::new(4);
        assert_eq!(m.earliest_ready(), None);
        m.allocate(0x40, 70);
        m.allocate(0x80, 50);
        assert_eq!(m.earliest_ready(), Some(50));
        assert!(m.has_free_entry());
    }
}
