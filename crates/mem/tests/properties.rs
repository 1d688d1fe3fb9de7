//! Property-based tests for the memory hierarchy: the direct-mapped cache,
//! the MSHR file and the TLB against reference models, and system-level
//! timing invariants under random access sequences.

use interleave_isa::Access;
use interleave_mem::{
    CacheParams, DirectCache, DirectTlb, MemConfig, MshrFile, Resource, UniMemSystem,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};

#[derive(Debug, Clone)]
enum CacheOp {
    Fill { addr: u64, dirty: bool },
    Invalidate { addr: u64 },
    Probe { addr: u64 },
    MarkDirty { addr: u64 },
    InvalidateSet { set: usize },
    Clear,
}

/// Full 64-bit addresses over the small cache's 512-byte period: the
/// bits above it come from a few fixed values (including all ones, so
/// the tag is the largest possible) or are random, so fills collide and
/// refill often.
fn cache_addr() -> impl Strategy<Value = u64> {
    (0u8..5, any::<u64>(), 0u64..512).prop_map(|(high, random, low)| {
        let top = match high {
            0 => 0,
            1 => 1,
            2 => u64::MAX >> 9,
            3 => (u64::MAX >> 9) - 1,
            _ => random >> 9,
        };
        top << 9 | low
    })
}

fn cache_op() -> impl Strategy<Value = CacheOp> {
    prop_oneof![
        (cache_addr(), any::<bool>()).prop_map(|(addr, dirty)| CacheOp::Fill { addr, dirty }),
        cache_addr().prop_map(|addr| CacheOp::Invalidate { addr }),
        cache_addr().prop_map(|addr| CacheOp::Probe { addr }),
        cache_addr().prop_map(|addr| CacheOp::MarkDirty { addr }),
        (0usize..16).prop_map(|set| CacheOp::InvalidateSet { set }),
        (0u8..20).prop_map(|_| CacheOp::Clear),
    ]
}

fn small_params() -> CacheParams {
    CacheParams {
        size: 512,
        line: 32,
        fetch_lines: 1,
        read_occupancy: 1,
        write_occupancy: 1,
        invalidate_occupancy: 1,
        fill_occupancy: 1,
    }
}

proptest! {
    /// The direct-mapped cache agrees with a trivial index -> (line,
    /// dirty) map over full 64-bit addresses, for every operation.
    #[test]
    fn cache_matches_reference_model(ops in proptest::collection::vec(cache_op(), 1..200)) {
        let mut cache = DirectCache::new(small_params());
        let lines = 512 / 32;
        // index -> (line addr, dirty)
        let mut reference: HashMap<u64, (u64, bool)> = HashMap::new();
        let place = |addr: u64| (addr / 32 * 32, (addr / 32) % lines);
        for op in ops {
            match op {
                CacheOp::Fill { addr, dirty } => {
                    let (line, index) = place(addr);
                    let evicted = cache.fill(addr, dirty);
                    let prev = reference.insert(index, (line, dirty));
                    match (evicted, prev) {
                        (Some(wb), Some((old, old_dirty))) => {
                            prop_assert_ne!(old, line, "refill reported as eviction");
                            prop_assert_eq!(wb.addr, old);
                            prop_assert_eq!(wb.dirty, old_dirty);
                        }
                        (Some(_), None) => prop_assert!(false, "evicted from empty set"),
                        (None, Some((old, _))) => prop_assert_eq!(old, line, "silent eviction"),
                        (None, None) => {}
                    }
                }
                CacheOp::Invalidate { addr } => {
                    let (line, index) = place(addr);
                    let was_present = reference.get(&index).map(|e| e.0) == Some(line);
                    prop_assert_eq!(cache.invalidate(addr), was_present);
                    if was_present {
                        reference.remove(&index);
                    }
                }
                CacheOp::Probe { addr } => {
                    let (line, index) = place(addr);
                    let entry = reference.get(&index).filter(|e| e.0 == line);
                    prop_assert_eq!(cache.probe(addr), entry.is_some());
                    prop_assert_eq!(cache.is_dirty(addr), entry.is_some_and(|e| e.1));
                }
                CacheOp::MarkDirty { addr } => {
                    let (line, index) = place(addr);
                    // Marking needs a resident line; otherwise it panics.
                    if let Some(entry) = reference.get_mut(&index).filter(|e| e.0 == line) {
                        cache.mark_dirty(addr);
                        entry.1 = true;
                    }
                    prop_assert_eq!(cache.is_dirty(addr), reference.contains_key(&index)
                        && reference[&index] == (line, true));
                }
                CacheOp::InvalidateSet { set } => {
                    cache.invalidate_set(set);
                    reference.remove(&(set as u64));
                }
                CacheOp::Clear => {
                    cache.clear();
                    reference.clear();
                }
            }
            prop_assert_eq!(cache.occupancy(), reference.len());
            for (&index, &(line, dirty)) in &reference {
                prop_assert_eq!(cache.set_of(line), index as usize);
                prop_assert!(cache.probe(line));
                prop_assert_eq!(cache.is_dirty(line), dirty);
            }
        }
    }

    /// The FIFO TLB holds exactly the most recent `capacity` distinct
    /// pages.
    #[test]
    fn tlb_holds_fifo_window(pages in proptest::collection::vec(0u64..64, 1..150)) {
        let capacity = 8;
        let mut tlb = DirectTlb::new(capacity, 4096);
        let mut fifo: Vec<u64> = Vec::new();
        for page in pages {
            let hit = tlb.access(page * 4096);
            let expect_hit = fifo.contains(&page);
            prop_assert_eq!(hit, expect_hit, "page {}", page);
            if !expect_hit {
                if fifo.len() == capacity {
                    fifo.remove(0);
                }
                fifo.push(page);
            }
        }
        for &page in &fifo {
            prop_assert!(tlb.probe(page * 4096));
        }
    }

    /// The TLB agrees with a plain FIFO scan under accesses, probes,
    /// positional invalidations and flushes (the hit filter in front of
    /// the scan changes no outcome).
    #[test]
    fn tlb_matches_fifo_scan(
        ops in proptest::collection::vec((0u8..8, 0u64..24), 1..300),
    ) {
        let capacity = 8;
        let mut tlb = DirectTlb::new(capacity, 4096);
        let mut fifo: Vec<u64> = Vec::new();
        for (kind, arg) in ops {
            match kind {
                0..=4 => {
                    let expect_hit = fifo.contains(&arg);
                    prop_assert_eq!(tlb.access(arg * 4096 + 8), expect_hit, "page {}", arg);
                    if !expect_hit {
                        if fifo.len() == capacity {
                            fifo.remove(0);
                        }
                        fifo.push(arg);
                    }
                }
                5 => prop_assert_eq!(tlb.probe(arg * 4096), fifo.contains(&arg)),
                6 => {
                    let index = (arg % 10) as usize;
                    tlb.invalidate_entry(index);
                    if index < fifo.len() {
                        fifo.remove(index);
                    }
                }
                _ => {
                    if arg == 0 {
                        tlb.clear();
                        fifo.clear();
                    }
                }
            }
            prop_assert_eq!(tlb.is_empty(), fifo.is_empty());
        }
        for page in 0..24 {
            prop_assert_eq!(tlb.probe(page * 4096), fifo.contains(&page));
        }
    }

    /// The MSHR file agrees with a line-keyed ordered map (its former
    /// representation) under random expire / lookup / allocate
    /// sequences, including the occupancy and allocation statistics.
    #[test]
    fn mshr_matches_map_model(
        ops in proptest::collection::vec((0u8..4, 0u64..12, 1u64..60), 1..300),
    ) {
        let capacity = 4;
        let mut mshr = MshrFile::new(capacity);
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let mut high_water = 0;
        let mut allocations = 0;
        let mut now = 0u64;
        for (kind, line, delay) in ops {
            let line = line * 64;
            match kind {
                0 => {
                    now += delay / 4;
                    mshr.expire(now);
                    model.retain(|_, &mut ready| ready > now);
                }
                1 => prop_assert_eq!(mshr.lookup(line), model.get(&line).copied()),
                2 => {
                    if model.len() < capacity && !model.contains_key(&line) {
                        mshr.allocate(line, now + delay);
                        model.insert(line, now + delay);
                        allocations += 1;
                        high_water = high_water.max(model.len());
                    }
                }
                _ => {
                    mshr.reset_stats();
                    allocations = 0;
                    high_water = model.len();
                }
            }
            prop_assert_eq!(mshr.len(), model.len());
            prop_assert_eq!(mshr.has_free_entry(), model.len() < capacity);
            prop_assert_eq!(mshr.earliest_ready(), model.values().copied().min());
            prop_assert_eq!(mshr.allocations(), allocations);
            prop_assert_eq!(mshr.high_water(), high_water);
            prop_assert!(mshr.check_invariants(now, 64).is_ok());
        }
    }

    /// Resources serve FIFO and never travel back in time.
    #[test]
    fn resource_is_monotone(reqs in proptest::collection::vec((0u64..1000, 1u64..20), 1..100)) {
        let mut resource = Resource::new();
        let mut now = 0;
        let mut last_end = 0u64;
        for (delay, occupancy) in reqs {
            now += delay;
            let start = resource.acquire(now, occupancy);
            prop_assert!(start >= now, "service before request");
            prop_assert!(start >= last_end, "overlapping service");
            last_end = start + occupancy;
            prop_assert_eq!(resource.free_at(), last_end);
        }
    }

    /// System-level timing: every miss completes after its lookup, no
    /// earlier than the unloaded minimum, and re-accessing a filled line
    /// after completion hits.
    #[test]
    fn system_timing_invariants(
        accesses in proptest::collection::vec((any::<u16>(), any::<bool>(), 1u64..200), 1..120),
    ) {
        let mut cfg = MemConfig::workstation();
        cfg.tlbs_enabled = false;
        let mut mem = UniMemSystem::new(cfg);
        let mut now = 0u64;
        for (addr, write, gap) in accesses {
            now += gap;
            let addr = u64::from(addr) * 8;
            let kind = if write { Access::Write } else { Access::Read };
            match mem.access_data(now, addr, kind, 0) {
                interleave_mem::DataAccess::Hit => {}
                interleave_mem::DataAccess::Miss { ready_at, .. } => {
                    prop_assert!(ready_at >= now + 9, "faster than an L2 hit");
                    // Contention is bounded in this single-requester test.
                    prop_assert!(ready_at <= now + 2000, "implausible queueing");
                    // After completion the line is resident.
                    match mem.access_data(ready_at + 1, addr, Access::Read, 0) {
                        interleave_mem::DataAccess::Hit => {}
                        other => prop_assert!(false, "expected a hit after fill, got {other:?}"),
                    }
                    now = ready_at;
                }
                interleave_mem::DataAccess::TlbMiss { .. } => {
                    prop_assert!(false, "TLBs are disabled");
                }
            }
        }
        let stats = mem.stats();
        prop_assert_eq!(
            stats.l2_hits + stats.l2_misses <= stats.l1d_misses,
            true,
            "every secondary access stems from a primary miss"
        );
    }
}
