/// Hit/miss counters for the memory hierarchy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Primary data cache hits.
    pub l1d_hits: u64,
    /// Primary data cache misses (including merges with outstanding fills).
    pub l1d_misses: u64,
    /// Primary instruction cache hits.
    pub l1i_hits: u64,
    /// Primary instruction cache misses.
    pub l1i_misses: u64,
    /// Secondary cache hits (on primary misses).
    pub l2_hits: u64,
    /// Secondary cache misses (serviced by memory).
    pub l2_misses: u64,
    /// Data-TLB misses.
    pub dtlb_misses: u64,
    /// Instruction-TLB misses.
    pub itlb_misses: u64,
    /// Dirty lines written back to the next level.
    pub writebacks: u64,
}
