use interleave_obs::{Counter, Registry};

/// A direct-mapped branch target buffer (paper Section 4.1: 2048 entries).
///
/// Prediction policy: a branch whose PC hits in the BTB is predicted taken
/// to the stored target; a branch that misses is predicted not-taken
/// (sequential fetch). On resolution the BTB is updated: taken branches
/// install or refresh their entry, not-taken branches evict a matching
/// entry (otherwise they would mispredict forever).
///
/// # Examples
///
/// ```
/// use interleave_pipeline::Btb;
///
/// let mut btb = Btb::new(2048);
/// assert_eq!(btb.predict(0x100), None); // cold: predicted not-taken
/// btb.update(0x100, true, 0x400);
/// assert_eq!(btb.predict(0x100), Some(0x400));
/// ```
#[derive(Debug, Clone)]
pub struct Btb {
    /// (tag, target) per entry, tag [`EMPTY`] if the entry is invalid;
    /// disabled BTB has no entries.
    entries: Vec<(u64, u64)>,
    index_mask: u64,
    /// Word-offset bits plus the index width: a tag is the PC above both
    /// (stored so lookups need no bit count). At least 2, so no tag can
    /// equal [`EMPTY`].
    tag_shift: u32,
    stats: BtbStats,
}

/// The tag of an invalid entry. A tag is a PC shifted right by at least
/// two bits, so it is at most `u64::MAX >> 2`.
const EMPTY: u64 = u64::MAX;

/// Prediction outcome counters for a [`Btb`], accumulated by
/// [`Btb::check`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BtbStats {
    /// Checked predictions (one per fetched branch).
    pub lookups: Counter,
    /// Predictions that matched the resolved outcome.
    pub hits: Counter,
    /// Predictions that did not (wrong direction or wrong target).
    pub mispredicts: Counter,
}

impl Btb {
    /// Creates a BTB with `entries` slots (a power of two), or a disabled
    /// predictor when `entries == 0` (every taken branch mispredicts).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is neither zero nor a power of two.
    pub fn new(entries: usize) -> Btb {
        assert!(
            entries == 0 || entries.is_power_of_two(),
            "BTB entries must be zero or a power of two"
        );
        Btb {
            entries: vec![(EMPTY, 0); entries],
            index_mask: entries.saturating_sub(1) as u64,
            tag_shift: 2 + entries.saturating_sub(1).count_ones(),
            stats: BtbStats::default(),
        }
    }

    /// Whether the predictor is disabled (zero entries).
    pub fn is_disabled(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the BTB holds no valid entries.
    pub fn is_empty(&self) -> bool {
        self.entries.iter().all(|&(tag, _)| tag == EMPTY)
    }

    #[inline]
    fn index(&self, pc: u64) -> usize {
        // Instructions are word-aligned; drop the low two bits.
        ((pc >> 2) & self.index_mask) as usize
    }

    #[inline]
    fn tag(&self, pc: u64) -> u64 {
        pc >> self.tag_shift
    }

    /// Predicted target for the branch at `pc`, or `None` for a predicted
    /// not-taken (sequential) outcome.
    #[inline]
    pub fn predict(&self, pc: u64) -> Option<u64> {
        if self.entries.is_empty() {
            return None;
        }
        let (tag, target) = self.entries[self.index(pc)];
        (tag == self.tag(pc)).then_some(target)
    }

    /// Whether the prediction for this branch matches its resolved outcome.
    #[inline]
    pub fn predicts_correctly(&self, pc: u64, taken: bool, target: u64) -> bool {
        match self.predict(pc) {
            Some(predicted) => taken && predicted == target,
            None => !taken,
        }
    }

    /// Like [`Btb::predicts_correctly`], but also counts the lookup and
    /// its outcome in [`Btb::stats`]. The fetch stage uses this entry
    /// point; the pure predicate remains for tests and offline queries.
    #[inline]
    pub fn check(&mut self, pc: u64, taken: bool, target: u64) -> bool {
        let correct = self.predicts_correctly(pc, taken, target);
        self.stats.lookups.inc();
        if correct {
            self.stats.hits.inc();
        } else {
            self.stats.mispredicts.inc();
        }
        correct
    }

    /// Accumulated prediction counters.
    pub fn stats(&self) -> &BtbStats {
        &self.stats
    }

    /// Clears the prediction counters (entries are kept — warmup resets
    /// discard statistics, not learned state).
    pub fn reset_stats(&mut self) {
        self.stats = BtbStats::default();
    }

    /// Registers prediction counters under `pipeline.btb.*`.
    pub fn collect_metrics(&self, reg: &mut Registry) {
        reg.counter("pipeline.btb.lookups", self.stats.lookups.get());
        reg.counter("pipeline.btb.hits", self.stats.hits.get());
        reg.counter("pipeline.btb.mispredicts", self.stats.mispredicts.get());
    }

    /// Updates the BTB with a resolved branch outcome.
    pub fn update(&mut self, pc: u64, taken: bool, target: u64) {
        if self.entries.is_empty() {
            return;
        }
        let index = self.index(pc);
        if taken {
            self.entries[index] = (self.tag(pc), target);
        } else if self.entries[index].0 == self.tag(pc) {
            self.entries[index] = (EMPTY, 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_btb_predicts_not_taken() {
        let btb = Btb::new(16);
        assert_eq!(btb.predict(0x40), None);
        assert!(btb.predicts_correctly(0x40, false, 0));
        assert!(!btb.predicts_correctly(0x40, true, 0x100));
    }

    #[test]
    fn taken_branch_learns() {
        let mut btb = Btb::new(16);
        btb.update(0x40, true, 0x100);
        assert!(btb.predicts_correctly(0x40, true, 0x100));
        // Wrong target is still a mispredict.
        assert!(!btb.predicts_correctly(0x40, true, 0x200));
    }

    #[test]
    fn not_taken_update_evicts() {
        let mut btb = Btb::new(16);
        btb.update(0x40, true, 0x100);
        btb.update(0x40, false, 0);
        assert_eq!(btb.predict(0x40), None);
    }

    #[test]
    fn aliasing_branches_conflict() {
        let mut btb = Btb::new(4);
        btb.update(0x0, true, 0x100);
        // 4 entries * 4 bytes = 16-byte period: 0x10 aliases 0x0.
        btb.update(0x10, true, 0x200);
        // Different tag: 0x0 no longer predicted.
        assert_eq!(btb.predict(0x0), None);
        assert_eq!(btb.predict(0x10), Some(0x200));
    }

    #[test]
    fn not_taken_update_leaves_alias_alone() {
        let mut btb = Btb::new(4);
        btb.update(0x10, true, 0x200);
        // A not-taken branch aliasing the same set must not evict a
        // different branch's entry.
        btb.update(0x0, false, 0);
        assert_eq!(btb.predict(0x10), Some(0x200));
    }

    #[test]
    fn disabled_btb() {
        let mut btb = Btb::new(0);
        assert!(btb.is_disabled());
        btb.update(0x40, true, 0x100);
        assert_eq!(btb.predict(0x40), None);
        // All taken branches mispredict; not-taken predict correctly.
        assert!(!btb.predicts_correctly(0x40, true, 0x100));
        assert!(btb.predicts_correctly(0x40, false, 0));
    }

    #[test]
    fn paper_btb_is_16_bytes_per_entry() {
        let btb = Btb::new(2048);
        assert_eq!(btb.entries.capacity() * std::mem::size_of::<(u64, u64)>(), 32_768);
    }

    #[test]
    #[should_panic]
    fn non_power_of_two_rejected() {
        let _ = Btb::new(3);
    }

    #[test]
    fn check_counts_outcomes() {
        let mut btb = Btb::new(16);
        btb.update(0x40, true, 0x100);
        assert!(btb.check(0x40, true, 0x100)); // hit
        assert!(!btb.check(0x40, true, 0x200)); // wrong target
        assert!(!btb.check(0x80, true, 0x300)); // cold taken branch
        assert_eq!(btb.stats().lookups.get(), 3);
        assert_eq!(btb.stats().hits.get(), 1);
        assert_eq!(btb.stats().mispredicts.get(), 2);

        let mut reg = Registry::new();
        btb.collect_metrics(&mut reg);
        assert_eq!(reg.counter_value("pipeline.btb.mispredicts"), Some(2));

        btb.reset_stats();
        assert_eq!(btb.stats().lookups.get(), 0);
        // Learned entries survive a stats reset.
        assert_eq!(btb.predict(0x40), Some(0x100));
    }
}
