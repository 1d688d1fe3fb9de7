use interleave_isa::Access;
use interleave_obs::validate::Violation;
use interleave_obs::Registry;

use crate::{DirectCache, DirectTlb, MemConfig, MemStats, MshrFile, Resource};

/// Which level serviced a primary-cache miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MissLevel {
    /// Satisfied by the secondary cache (9 cycles unloaded).
    L2Hit,
    /// Satisfied by main memory (34 cycles unloaded).
    Memory,
}

/// Outcome of a data access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataAccess {
    /// Primary-cache hit: data available at the normal load latency.
    Hit,
    /// The access was delayed by a data-TLB refill but then hit in the
    /// primary cache; data is available at `ready_at`. Charged like a
    /// data-memory stall (the paper lumps TLB and cache stalls).
    TlbMiss {
        /// Absolute cycle at which the refill completes and data is ready.
        ready_at: u64,
    },
    /// Primary-cache miss: the line fill completes at `ready_at`.
    Miss {
        /// Level that serviced the miss.
        level: MissLevel,
        /// Absolute cycle at which the fill completes.
        ready_at: u64,
    },
}

/// Outcome of an instruction fetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstAccess {
    /// Primary I-cache hit.
    Hit,
    /// The fetch was delayed by an instruction-TLB refill; the
    /// instruction is available at `ready_at` (cache outcome folded in).
    TlbMiss {
        /// Absolute cycle at which the fetch completes.
        ready_at: u64,
    },
    /// I-cache miss; fetch stalls until `ready_at` (the I-cache is
    /// blocking — no context switch is taken on instruction misses).
    Miss {
        /// Level that serviced the miss.
        level: MissLevel,
        /// Absolute cycle at which the fill completes.
        ready_at: u64,
    },
}

/// The uniprocessor (workstation) memory hierarchy of paper Figure 4.
///
/// See the crate-level docs for the modeling approach. All methods take the
/// absolute cycle at which the primary-cache lookup begins (for loads and
/// stores this is the DF1 pipeline stage) and return completion cycles with
/// contention folded in.
#[derive(Debug, Clone)]
pub struct UniMemSystem {
    cfg: MemConfig,
    l1d: DirectCache,
    l1i: DirectCache,
    l2: DirectCache,
    dtlb: DirectTlb,
    itlb: DirectTlb,
    mshr: MshrFile,
    l1i_fill_port: Resource,
    l2_port: Resource,
    l2_fill_port: Resource,
    bus_request: Resource,
    bus_reply: Resource,
    banks: Vec<Resource>,
    stats: MemStats,
    /// Completion cycle of the most recent I-cache miss. The I-cache is
    /// blocking, so a second miss whose lookup begins before this cycle
    /// is a structural violation (recorded, surfaced by
    /// [`UniMemSystem::check_invariants`]).
    l1i_outstanding_until: u64,
    pending_violation: Option<Violation>,
}

impl UniMemSystem {
    /// Builds the hierarchy from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`MemConfig::validate`].
    pub fn new(cfg: MemConfig) -> UniMemSystem {
        cfg.validate();
        UniMemSystem {
            l1d: DirectCache::new(cfg.l1d),
            l1i: DirectCache::new(cfg.l1i),
            l2: DirectCache::new(cfg.l2),
            dtlb: DirectTlb::new(cfg.dtlb_entries, cfg.page_size),
            itlb: DirectTlb::new(cfg.itlb_entries, cfg.page_size),
            mshr: MshrFile::new(cfg.mshrs),
            l1i_fill_port: Resource::new(),
            l2_port: Resource::new(),
            l2_fill_port: Resource::new(),
            bus_request: Resource::new(),
            bus_reply: Resource::new(),
            banks: vec![Resource::new(); cfg.banks],
            stats: MemStats::default(),
            l1i_outstanding_until: 0,
            pending_violation: None,
            cfg,
        }
    }

    /// The configuration this system was built with.
    pub fn config(&self) -> &MemConfig {
        &self.cfg
    }

    /// Accumulated hit/miss statistics.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// Resets statistics (used after warmup).
    pub fn reset_stats(&mut self) {
        self.stats = MemStats::default();
        self.mshr.reset_stats();
    }

    /// Registers hierarchy counters under `mem.*`: per-level hits and
    /// misses, TLB misses, writebacks, and MSHR allocation/occupancy
    /// statistics.
    pub fn collect_metrics(&self, reg: &mut Registry) {
        reg.counter("mem.l1d.hits", self.stats.l1d_hits);
        reg.counter("mem.l1d.misses", self.stats.l1d_misses);
        reg.counter("mem.l1i.hits", self.stats.l1i_hits);
        reg.counter("mem.l1i.misses", self.stats.l1i_misses);
        reg.counter("mem.l2.hits", self.stats.l2_hits);
        reg.counter("mem.l2.misses", self.stats.l2_misses);
        reg.counter("mem.dtlb.misses", self.stats.dtlb_misses);
        reg.counter("mem.itlb.misses", self.stats.itlb_misses);
        reg.counter("mem.writebacks", self.stats.writebacks);
        reg.counter("mem.mshr.allocations", self.mshr.allocations());
        reg.counter("mem.mshr.high_water", self.mshr.high_water() as u64);
    }

    /// Performs a data access whose primary lookup starts at `lookup_start`.
    ///
    /// `_ctx` identifies the requesting hardware context (reserved for
    /// per-context statistics).
    #[inline]
    pub fn access_data(
        &mut self,
        lookup_start: u64,
        addr: u64,
        kind: Access,
        _ctx: usize,
    ) -> DataAccess {
        self.mshr.expire(lookup_start);

        // A TLB refill delays the access; the cache outcome is resolved in
        // the same call (the refill hardware replays the access) so that
        // the requester's completion time is bound once, atomically.
        let mut lookup_start = lookup_start;
        let mut tlb_missed = false;
        if self.cfg.tlbs_enabled && !self.dtlb.access(addr) {
            self.stats.dtlb_misses += 1;
            lookup_start += self.cfg.path.dtlb_miss;
            tlb_missed = true;
        }

        if !self.cfg.data_cache_enabled {
            // Cacheless machine (HEP-like): every reference goes to memory.
            self.stats.l1d_misses += 1;
            self.stats.l2_misses += 1;
            let path = self.cfg.path;
            let req = self.bus_request.acquire(lookup_start, path.bus_request);
            let bank = self.bank_for(addr);
            let bank_start = self.banks[bank].acquire(req + path.bus_request, path.bank_access);
            let reply = self.bus_reply.acquire(bank_start + path.bank_access, path.bus_reply);
            return DataAccess::Miss { level: MissLevel::Memory, ready_at: reply + path.bus_reply };
        }

        let line = self.l1d.line_addr(addr);
        if let Some(ready_at) = self.mshr.lookup(line) {
            // Merge with the outstanding fill for this line.
            self.stats.l1d_misses += 1;
            let level = if self.l2.probe(addr) { MissLevel::L2Hit } else { MissLevel::Memory };
            return DataAccess::Miss { level, ready_at };
        }

        if self.l1d.probe(addr) {
            self.stats.l1d_hits += 1;
            if kind == Access::Write {
                self.l1d.mark_dirty(addr);
            }
            if tlb_missed {
                // Hit after refill: data ready after the replayed lookup.
                return DataAccess::TlbMiss { ready_at: lookup_start + self.cfg.path.l1_lookup };
            }
            return DataAccess::Hit;
        }

        self.stats.l1d_misses += 1;
        // If every MSHR is busy the new miss waits for the oldest fill.
        let mut start = lookup_start;
        if !self.mshr.has_free_entry() {
            let drain = self.mshr.earliest_ready().expect("full MSHR file has entries");
            start = start.max(drain);
            self.mshr.expire(start);
        }

        let (level, ready_at) = self.miss_path(start, addr);
        let dirty = kind == Access::Write;
        if let Some(wb) = self.l1d.fill(addr, dirty) {
            self.writeback(ready_at, wb.dirty);
        }
        self.mshr.allocate(line, ready_at);
        DataAccess::Miss { level, ready_at }
    }

    /// Performs an instruction fetch whose primary lookup starts at
    /// `lookup_start`.
    #[inline]
    pub fn access_inst(&mut self, lookup_start: u64, pc: u64) -> InstAccess {
        let mut lookup_start = lookup_start;
        let mut tlb_missed = false;
        if self.cfg.tlbs_enabled && !self.itlb.access(pc) {
            self.stats.itlb_misses += 1;
            lookup_start += self.cfg.path.itlb_miss;
            tlb_missed = true;
        }

        if self.l1i.probe(pc) {
            self.stats.l1i_hits += 1;
            if tlb_missed {
                return InstAccess::TlbMiss { ready_at: lookup_start + 1 };
            }
            return InstAccess::Hit;
        }

        self.stats.l1i_misses += 1;
        // Blocking I-cache: a new miss may not begin while the previous
        // fill is still in flight (resuming at exactly the completion
        // cycle is legal). Record rather than panic so the simulation
        // driver can attach context and seed to the report.
        if lookup_start < self.l1i_outstanding_until && self.pending_violation.is_none() {
            self.pending_violation = Some(Violation::new(
                "mem.l1i",
                "blocking I-cache has more than one outstanding miss",
                lookup_start,
                format!(
                    "fetch of {pc:#x} missed while a fill was outstanding until cycle {}",
                    self.l1i_outstanding_until
                ),
            ));
        }
        // Fills serialize on the I-cache fill port (fill occupancy 8).
        let start = self.l1i_fill_port.acquire(lookup_start, self.cfg.l1i.fill_occupancy);
        let (level, ready_at) = self.miss_path(start, pc);
        self.l1i_outstanding_until = ready_at;
        // The I-cache fetches two lines per miss (Table 1).
        for extra in 0..self.cfg.l1i.fetch_lines {
            let fill_addr = pc + extra * self.cfg.l1i.line;
            if let Some(wb) = self.l1i.fill(fill_addr, false) {
                debug_assert!(!wb.dirty, "instruction lines are never dirty");
            }
        }
        InstAccess::Miss { level, ready_at }
    }

    /// Service a primary miss through L2 and, if needed, memory. Returns
    /// the level that serviced it and the absolute completion cycle.
    fn miss_path(&mut self, lookup_start: u64, addr: u64) -> (MissLevel, u64) {
        interleave_obs::profile::mark("mem.miss");
        let path = self.cfg.path;
        let l2_params = self.cfg.l2;
        let miss_known = lookup_start + path.l1_lookup;
        let l2_start = self.l2_port.acquire(miss_known, l2_params.read_occupancy);
        let l2_done = l2_start + l2_params.read_occupancy;

        if self.l2.probe(addr) {
            self.stats.l2_hits += 1;
            let ready_at = l2_done + path.l2_transfer + 1;
            (MissLevel::L2Hit, ready_at)
        } else {
            self.stats.l2_misses += 1;
            let req = self.bus_request.acquire(l2_done, path.bus_request);
            let bank = self.bank_for(addr);
            let bank_start = self.banks[bank].acquire(req + path.bus_request, path.bank_access);
            let reply = self.bus_reply.acquire(bank_start + path.bank_access, path.bus_reply);
            let data_at = reply + path.bus_reply;
            // Fill the secondary cache (fills contend with other fills on
            // a dedicated fill port so a reserved future fill slot cannot
            // retroactively delay earlier lookups).
            self.l2_fill_port.acquire(data_at, l2_params.fill_occupancy);
            if let Some(wb) = self.l2.fill(addr, false) {
                self.writeback(data_at, wb.dirty);
            }
            (MissLevel::Memory, data_at + 1)
        }
    }

    /// Models a writeback of an evicted line: consumes bus and bank
    /// occupancy without delaying the triggering access (victim buffers).
    fn writeback(&mut self, now: u64, dirty: bool) {
        if !dirty {
            return;
        }
        self.stats.writebacks += 1;
        let path = self.cfg.path;
        let req = self.bus_request.acquire(now, path.bus_request);
        // Writebacks address-agnostic here; spread across banks round-robin.
        let bank = (self.stats.writebacks as usize) % self.banks.len();
        self.banks[bank].acquire(req + path.bus_request, path.bank_access);
    }

    #[inline]
    fn bank_for(&self, addr: u64) -> usize {
        ((addr / self.cfg.l1d.line) % self.banks.len() as u64) as usize
    }

    /// Pre-warms the data hierarchy with the line containing `addr`
    /// (fills both primary and secondary caches and the D-TLB).
    pub fn preload_data(&mut self, addr: u64) {
        self.dtlb.access(addr);
        self.l1d.fill(addr, false);
        self.l2.fill(addr, false);
    }

    /// Pre-warms the instruction hierarchy with the line containing `pc`.
    pub fn preload_inst(&mut self, pc: u64) {
        self.itlb.access(pc);
        self.l1i.fill(pc, false);
        self.l2.fill(pc, false);
    }

    /// Invalidates the data line containing `addr` from the primary cache
    /// only (models external interference).
    pub fn invalidate_data_line(&mut self, addr: u64) -> bool {
        self.l1d.invalidate(addr)
    }

    /// Models operating-system cache interference at a scheduler call
    /// (paper Table 6): displaces `icache_lines` instruction-cache sets,
    /// `dcache_lines` data-cache sets, and a proportional number of TLB
    /// entries, at pseudo-random positions derived from `seed`.
    pub fn os_displace(&mut self, icache_lines: usize, dcache_lines: usize, seed: u64) {
        let _displace = interleave_obs::profile::enter("mem.os_displace");
        let mut state = seed | 1;
        let mut next = || {
            // xorshift64* — deterministic, dependency-free.
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        for _ in 0..icache_lines {
            let set = (next() as usize) % self.l1i.sets();
            self.l1i.invalidate_set(set);
        }
        for _ in 0..dcache_lines {
            let set = (next() as usize) % self.l1d.sets();
            self.l1d.invalidate_set(set);
        }
        if self.cfg.tlbs_enabled {
            let dtlb_hit = dcache_lines.min(self.dtlb.len() / 4);
            let itlb_hit = icache_lines.min(self.itlb.len() / 4);
            for _ in 0..dtlb_hit {
                let entry = (next() as usize) % self.dtlb.len();
                self.dtlb.invalidate_entry(entry);
            }
            for _ in 0..itlb_hit {
                let entry = (next() as usize) % self.itlb.len();
                self.itlb.invalidate_entry(entry);
            }
        }
    }

    /// Line size in bytes.
    pub fn line_size(&self) -> u64 {
        self.cfg.l1d.line
    }

    /// Checks the hierarchy's structural invariants at cycle `now`:
    /// surfaces any recorded blocking-I-cache violation, then checks the
    /// MSHR file (occupancy within capacity, fills target real lines,
    /// lazy expiry not stranded). Cheap — O(outstanding MSHRs).
    pub fn check_invariants(&self, now: u64) -> Result<(), Violation> {
        if let Some(v) = &self.pending_violation {
            return Err(v.clone());
        }
        self.mshr.check_invariants(now, self.cfg.l1d.line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh() -> UniMemSystem {
        UniMemSystem::new(MemConfig::workstation())
    }

    /// A system with TLBs disabled, for latency-focused tests.
    fn no_tlb() -> UniMemSystem {
        let mut cfg = MemConfig::workstation();
        cfg.tlbs_enabled = false;
        UniMemSystem::new(cfg)
    }

    #[test]
    fn cold_access_reaches_memory_in_34() {
        let mut m = no_tlb();
        match m.access_data(1000, 0x4_0000, Access::Read, 0) {
            DataAccess::Miss { level, ready_at } => {
                assert_eq!(level, MissLevel::Memory);
                assert_eq!(ready_at, 1034);
            }
            other => panic!("expected memory miss, got {other:?}"),
        }
        assert_eq!(m.stats().l1d_misses, 1);
        assert_eq!(m.stats().l2_misses, 1);
    }

    #[test]
    fn secondary_hit_takes_9() {
        let mut m = no_tlb();
        // Warm L2 then knock the line out of L1.
        m.access_data(0, 0x4_0000, Access::Read, 0);
        m.invalidate_data_line(0x4_0000);
        match m.access_data(1000, 0x4_0000, Access::Read, 0) {
            DataAccess::Miss { level, ready_at } => {
                assert_eq!(level, MissLevel::L2Hit);
                assert_eq!(ready_at, 1009);
            }
            other => panic!("expected L2 hit, got {other:?}"),
        }
    }

    #[test]
    fn second_access_hits_after_fill() {
        let mut m = no_tlb();
        let ready = match m.access_data(0, 0x4_0000, Access::Read, 0) {
            DataAccess::Miss { ready_at, .. } => ready_at,
            other => panic!("{other:?}"),
        };
        // While the fill is outstanding, a second access merges.
        match m.access_data(ready - 5, 0x4_0010, Access::Read, 0) {
            DataAccess::Miss { ready_at, .. } => assert_eq!(ready_at, ready),
            other => panic!("expected merged miss, got {other:?}"),
        }
        // After the fill completes, it hits.
        assert_eq!(m.access_data(ready + 1, 0x4_0000, Access::Read, 0), DataAccess::Hit);
    }

    #[test]
    fn bank_contention_delays_second_miss() {
        let mut m = no_tlb();
        let first = match m.access_data(0, 0x0, Access::Read, 0) {
            DataAccess::Miss { ready_at, .. } => ready_at,
            other => panic!("{other:?}"),
        };
        // Same bank (4 banks * 32 B = 128 B period), different L1 set.
        let second = match m.access_data(0, 0x8000, Access::Read, 1) {
            DataAccess::Miss { ready_at, .. } => ready_at,
            other => panic!("{other:?}"),
        };
        assert!(second > first, "second miss should queue behind the first at the bank");
    }

    #[test]
    fn different_banks_overlap() {
        let mut m = no_tlb();
        let a = match m.access_data(0, 0x0, Access::Read, 0) {
            DataAccess::Miss { ready_at, .. } => ready_at,
            other => panic!("{other:?}"),
        };
        // Next line: different bank.
        let b = match m.access_data(1, 0x8020, Access::Read, 1) {
            DataAccess::Miss { ready_at, .. } => ready_at,
            other => panic!("{other:?}"),
        };
        // Only serialized on L2 port & bus, not the 26-cycle bank.
        assert!(b < a + 20, "different banks should mostly overlap: {a} vs {b}");
    }

    #[test]
    fn dtlb_miss_composes_with_cache_outcome() {
        let mut m = fresh();
        // Cold: TLB refill (25) + full memory path (34) in one outcome.
        match m.access_data(0, 0x12345, Access::Read, 0) {
            DataAccess::Miss { ready_at, level } => {
                assert_eq!(level, MissLevel::Memory);
                assert_eq!(ready_at, 25 + 34);
            }
            other => panic!("expected composed miss, got {other:?}"),
        }
        assert_eq!(m.stats().dtlb_misses, 1);
        // Warm line, cold page: TLB refill + replayed lookup only.
        let far = 0x12345 + 64 * 4096; // same line impossible; use preload
        m.preload_data(far);
        // Displace `far`'s TLB entry by touching 64 other pages (FIFO).
        for i in 0..m.config().dtlb_entries as u64 {
            m.preload_data(0x100_0000 + i * 4096);
        }
        match m.access_data(1000, far, Access::Read, 0) {
            DataAccess::TlbMiss { ready_at } => assert_eq!(ready_at, 1000 + 25 + 2),
            other => panic!("expected TLB-delayed hit, got {other:?}"),
        }
    }

    #[test]
    fn inst_fetch_hit_after_preload() {
        let mut m = fresh();
        m.preload_inst(0x400);
        assert_eq!(m.access_inst(0, 0x400), InstAccess::Hit);
        assert_eq!(m.stats().l1i_hits, 1);
    }

    #[test]
    fn inst_miss_prefetches_next_line() {
        let mut m = no_tlb();
        match m.access_inst(0, 0x400) {
            InstAccess::Miss { .. } => {}
            other => panic!("{other:?}"),
        }
        // The following line was prefetched.
        assert_eq!(m.access_inst(100, 0x420), InstAccess::Hit);
    }

    #[test]
    fn store_miss_fills_dirty_and_writes_back() {
        let mut m = no_tlb();
        m.access_data(0, 0x0, Access::Write, 0);
        // Conflict: 64 KB away maps to the same L1 set.
        m.access_data(100, 0x1_0000, Access::Read, 0);
        assert_eq!(m.stats().writebacks, 1);
    }

    #[test]
    fn os_displacement_evicts() {
        let mut m = fresh();
        for i in 0..512u64 {
            m.preload_data(i * 32);
            m.preload_inst(0x10_0000 + i * 32);
        }
        let d_before = m.l1d.occupancy();
        let i_before = m.l1i.occupancy();
        m.os_displace(600, 600, 42);
        assert!(m.l1d.occupancy() < d_before);
        assert!(m.l1i.occupancy() < i_before);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut m = no_tlb();
        m.preload_data(0x40);
        assert_eq!(m.access_data(0, 0x40, Access::Write, 0), DataAccess::Hit);
        // Evict it: should cause a writeback.
        m.access_data(10, 0x1_0040, Access::Read, 0);
        assert_eq!(m.stats().writebacks, 1);
    }

    #[test]
    fn mshr_overflow_degrades_gracefully() {
        let mut cfg = MemConfig::workstation();
        cfg.tlbs_enabled = false;
        cfg.mshrs = 1;
        let mut m = UniMemSystem::new(cfg);
        let a = match m.access_data(0, 0x0, Access::Read, 0) {
            DataAccess::Miss { ready_at, .. } => ready_at,
            other => panic!("{other:?}"),
        };
        // Second miss to a different line with a full MSHR file waits.
        let b = match m.access_data(1, 0x2000, Access::Read, 1) {
            DataAccess::Miss { ready_at, .. } => ready_at,
            other => panic!("{other:?}"),
        };
        assert!(b >= a + 9, "stalled request should start after the first fill");
    }

    #[test]
    fn cacheless_machine_always_goes_to_memory() {
        let mut cfg = MemConfig::workstation();
        cfg.tlbs_enabled = false;
        cfg.data_cache_enabled = false;
        let mut m = UniMemSystem::new(cfg);
        for i in 0..4u64 {
            match m.access_data(i * 100, 0x40, Access::Read, 0) {
                DataAccess::Miss { level: MissLevel::Memory, .. } => {}
                other => panic!("expected a memory access every time, got {other:?}"),
            }
        }
        assert_eq!(m.stats().l1d_misses, 4);
    }

    #[test]
    fn os_displacement_causes_re_misses() {
        let mut cfg = MemConfig::workstation();
        cfg.tlbs_enabled = false;
        let mut m = UniMemSystem::new(cfg);
        // Warm a working set, then displace most of the cache.
        for i in 0..256u64 {
            m.preload_data(0x4000 + i * 32);
        }
        m.reset_stats();
        m.os_displace(0, 2048, 7);
        let mut misses = 0;
        for i in 0..256u64 {
            if m.access_data(10_000 + i * 50, 0x4000 + i * 32, Access::Read, 0) != DataAccess::Hit {
                misses += 1;
            }
        }
        assert!(misses > 100, "heavy displacement should force re-misses, got {misses}");
    }

    #[test]
    fn invariants_clean_after_traffic() {
        let mut m = no_tlb();
        for i in 0..32u64 {
            m.access_data(i * 100, i * 0x200, Access::Read, 0);
        }
        assert!(m.check_invariants(32 * 100).is_ok());
    }

    #[test]
    fn overlapping_inst_misses_are_flagged() {
        let mut m = no_tlb();
        let ready = match m.access_inst(0, 0x400) {
            InstAccess::Miss { ready_at, .. } => ready_at,
            other => panic!("{other:?}"),
        };
        // A second I-miss that begins before the first fill completes
        // violates the blocking-I-cache model...
        match m.access_inst(ready - 5, 0x10_0000) {
            InstAccess::Miss { .. } => {}
            other => panic!("{other:?}"),
        }
        let v = m.check_invariants(ready).unwrap_err();
        assert_eq!(v.component, "mem.l1i");
        assert!(v.to_string().contains("outstanding"), "{v}");
    }

    #[test]
    fn back_to_back_inst_misses_are_legal() {
        let mut m = no_tlb();
        let ready = match m.access_inst(0, 0x400) {
            InstAccess::Miss { ready_at, .. } => ready_at,
            other => panic!("{other:?}"),
        };
        // ...but resuming at exactly the completion cycle is fine.
        match m.access_inst(ready, 0x10_0000) {
            InstAccess::Miss { .. } => {}
            other => panic!("{other:?}"),
        }
        assert!(m.check_invariants(ready + 100).is_ok());
    }

    #[test]
    fn reset_stats() {
        let mut m = no_tlb();
        m.access_data(0, 0x0, Access::Read, 0);
        m.reset_stats();
        assert_eq!(*m.stats(), MemStats::default());
    }
}
