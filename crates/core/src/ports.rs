use interleave_isa::{Access, SyncRef};
use interleave_mem::{DataAccess, InstAccess, UniMemSystem};
use interleave_obs::validate::Violation;

/// Outcome of a data access as seen by the processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataOutcome {
    /// Primary hit: the load's normal latency (Table 3) applies.
    Hit,
    /// The access stalls the issuing context; the data itself is bound to
    /// the requester and available at `ready_at` (line fills are delivered
    /// to the destination register by the lockup-free cache's MSHRs, so a
    /// re-executed access never depends on the line still being cached).
    Stall {
        /// Absolute cycle at which the data is available.
        ready_at: u64,
    },
}

/// Outcome of an instruction fetch as seen by the processor.
///
/// Fetch stalls always retry (the fetch unit simply re-attempts the same
/// PC once `ready_at` passes), so no retry flag is needed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstOutcome {
    /// Primary I-cache hit.
    Hit,
    /// Fetch stalls until `ready_at` (blocking I-cache: no context switch).
    Stall {
        /// Absolute cycle at which fetch may resume.
        ready_at: u64,
    },
}

/// Outcome of a synchronization operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncOutcome {
    /// The operation completed (lock granted / released, barrier passed).
    Proceed,
    /// The context must wait; the simulation driver wakes it via
    /// [`crate::Processor::wake_context`] when the operation is granted,
    /// after which the re-executed instruction will receive `Proceed`.
    Wait,
}

/// The processor's view of the memory system and synchronization substrate.
///
/// Implemented by [`interleave_mem::UniMemSystem`] for the workstation
/// study and by the multiprocessor node port in `interleave-mp`. All
/// timing methods take absolute cycles and fold contention into the
/// returned completion cycles.
pub trait SystemPort {
    /// Data access whose primary lookup starts at `lookup_start` (the DF1
    /// stage, one cycle after issue).
    fn data(&mut self, lookup_start: u64, addr: u64, kind: Access, ctx: usize) -> DataOutcome;

    /// Instruction fetch at `pc`, looked up at `lookup_start` (the IF1
    /// stage).
    fn inst(&mut self, lookup_start: u64, pc: u64) -> InstOutcome;

    /// Synchronization operation issued at `now` by context `ctx`.
    ///
    /// The default implementation always proceeds (uniprocessor workloads
    /// do not synchronize).
    fn sync(&mut self, now: u64, ctx: usize, op: SyncRef) -> SyncOutcome {
        let _ = (now, ctx, op);
        SyncOutcome::Proceed
    }

    /// Checks the port's structural invariants at cycle `now`; called by
    /// the processor's validation pass when `ProcConfig.validate` is on.
    ///
    /// Defaults to no checks. Ports whose per-tick checks would be too
    /// expensive (the multiprocessor node port shares one directory
    /// across all nodes) keep the default and are validated by their
    /// simulation driver at coarser boundaries instead.
    fn check_invariants(&self, now: u64) -> Result<(), Violation> {
        let _ = now;
        Ok(())
    }
}

impl SystemPort for UniMemSystem {
    #[inline]
    fn data(&mut self, lookup_start: u64, addr: u64, kind: Access, ctx: usize) -> DataOutcome {
        match self.access_data(lookup_start, addr, kind, ctx) {
            DataAccess::Hit => DataOutcome::Hit,
            DataAccess::TlbMiss { ready_at } | DataAccess::Miss { ready_at, .. } => {
                DataOutcome::Stall { ready_at }
            }
        }
    }

    #[inline]
    fn inst(&mut self, lookup_start: u64, pc: u64) -> InstOutcome {
        match self.access_inst(lookup_start, pc) {
            InstAccess::Hit => InstOutcome::Hit,
            InstAccess::TlbMiss { ready_at } | InstAccess::Miss { ready_at, .. } => {
                InstOutcome::Stall { ready_at }
            }
        }
    }

    fn check_invariants(&self, now: u64) -> Result<(), Violation> {
        UniMemSystem::check_invariants(self, now)
    }
}

/// A perfect memory system: every access hits. Useful for pipeline-focused
/// tests and the paper's Figure 2/3 illustrations (where misses are
/// injected explicitly).
#[derive(Debug, Clone, Copy, Default)]
pub struct PerfectMemory;

impl SystemPort for PerfectMemory {
    #[inline]
    fn data(&mut self, _: u64, _: u64, _: Access, _: usize) -> DataOutcome {
        DataOutcome::Hit
    }

    #[inline]
    fn inst(&mut self, _: u64, _: u64) -> InstOutcome {
        InstOutcome::Hit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use interleave_mem::MemConfig;

    #[test]
    fn uni_mem_port_maps_outcomes() {
        let mut cfg = MemConfig::workstation();
        cfg.tlbs_enabled = false;
        let mut mem = UniMemSystem::new(cfg);
        match mem.data(0, 0x8000, Access::Read, 0) {
            DataOutcome::Stall { ready_at } => assert_eq!(ready_at, 34),
            other => panic!("expected stall, got {other:?}"),
        }
        mem.preload_data(0x100);
        assert_eq!(mem.data(40, 0x100, Access::Read, 0), DataOutcome::Hit);
    }

    #[test]
    fn tlb_penalty_composes_into_stall() {
        let mut mem = UniMemSystem::new(MemConfig::workstation());
        match mem.data(0, 0x8000, Access::Read, 0) {
            DataOutcome::Stall { ready_at } => assert_eq!(ready_at, 25 + 34),
            other => panic!("expected composed stall, got {other:?}"),
        }
    }

    #[test]
    fn perfect_memory_always_hits() {
        let mut p = PerfectMemory;
        assert_eq!(p.data(0, 0xDEAD, Access::Write, 3), DataOutcome::Hit);
        assert_eq!(p.inst(0, 0xBEEF), InstOutcome::Hit);
        assert_eq!(
            p.sync(0, 0, SyncRef { kind: interleave_isa::SyncKind::LockAcquire, id: 0 }),
            SyncOutcome::Proceed
        );
    }
}
