use crate::{Op, Reg};

/// Direction of a data-memory reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Access {
    /// A load.
    Read,
    /// A store.
    Write,
}

/// A resolved data-memory reference carried by a load or store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRef {
    /// Effective byte address.
    pub addr: u64,
    /// Read (load) or write (store).
    pub kind: Access,
}

/// Resolved branch behaviour carried by a branch instruction.
///
/// The stream generators pre-resolve every branch: the pipeline model
/// compares this ground truth against the BTB's prediction to charge
/// misprediction penalties.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchInfo {
    /// Whether the branch is taken.
    pub taken: bool,
    /// Target address when taken.
    pub target: u64,
}

/// What a synchronization instruction does when it issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SyncKind {
    /// Acquire a lock; the context waits until the lock is granted.
    LockAcquire,
    /// Release a lock (never waits).
    LockRelease,
    /// Arrive at a barrier; the context waits until all participants arrive.
    BarrierArrive,
}

/// A synchronization reference carried by an [`Op::Sync`] instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyncRef {
    /// Operation kind.
    pub kind: SyncKind,
    /// Lock or barrier identifier, scoped by the synchronization port.
    pub id: u32,
}

/// A decoded instruction as consumed by the pipeline model.
///
/// Operands are already resolved (the workload generators know outcomes),
/// so an `Instr` carries at most one destination register, up to two source
/// registers, an optional memory reference, and optional branch information.
///
/// Construct instructions with the typed constructors ([`Instr::alu`],
/// [`Instr::load`], [`Instr::branch`], ...) rather than filling fields by
/// hand; the constructors keep op-class and operand kinds consistent.
///
/// # Examples
///
/// ```
/// use interleave_isa::{Instr, Op, Reg};
///
/// let i = Instr::alu(0x40, Some(Reg::int(3)), Some(Reg::int(1)), Some(Reg::int(2)));
/// assert_eq!(i.op, Op::IntAlu);
/// assert_eq!(i.dst, Some(Reg::int(3)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Instr {
    /// Program counter of this instruction.
    pub pc: u64,
    /// Operation class.
    pub op: Op,
    /// Destination register, if any.
    pub dst: Option<Reg>,
    /// First source register, if any.
    pub src1: Option<Reg>,
    /// Second source register, if any.
    pub src2: Option<Reg>,
    /// Memory reference for loads/stores.
    pub mem: Option<MemRef>,
    /// Resolved branch behaviour for branches.
    pub branch: Option<BranchInfo>,
    /// Backoff duration in cycles for [`Op::Backoff`] instructions.
    pub backoff: u32,
    /// Synchronization reference for [`Op::Sync`] instructions.
    pub sync: Option<SyncRef>,
}

impl Instr {
    fn base(pc: u64, op: Op) -> Instr {
        Instr {
            pc,
            op,
            dst: None,
            src1: None,
            src2: None,
            mem: None,
            branch: None,
            backoff: 0,
            sync: None,
        }
    }

    /// A single-cycle integer ALU operation.
    pub fn alu(pc: u64, dst: Option<Reg>, src1: Option<Reg>, src2: Option<Reg>) -> Instr {
        Instr { dst, src1, src2, ..Self::base(pc, Op::IntAlu) }
    }

    /// A generic arithmetic operation of the given class.
    ///
    /// # Panics
    ///
    /// Panics if `op` is a memory, branch, backoff, or switch operation —
    /// use the dedicated constructors for those.
    pub fn arith(pc: u64, op: Op, dst: Option<Reg>, src1: Option<Reg>, src2: Option<Reg>) -> Instr {
        assert!(
            !op.is_mem() && !op.is_branch() && !matches!(op, Op::Backoff | Op::SwitchHint),
            "use the dedicated constructor for {op}"
        );
        Instr { dst, src1, src2, ..Self::base(pc, op) }
    }

    /// A load from `addr` into `dst`, addressed via base register `base`.
    pub fn load(pc: u64, dst: Reg, base: Reg, addr: u64) -> Instr {
        Instr {
            dst: Some(dst),
            src1: Some(base),
            mem: Some(MemRef { addr, kind: Access::Read }),
            ..Self::base(pc, Op::Load)
        }
    }

    /// A store of register `value` to `addr`, addressed via base register
    /// `base`.
    pub fn store(pc: u64, value: Reg, base: Reg, addr: u64) -> Instr {
        Instr {
            src1: Some(base),
            src2: Some(value),
            mem: Some(MemRef { addr, kind: Access::Write }),
            ..Self::base(pc, Op::Store)
        }
    }

    /// A branch at `pc` with resolved outcome, conditioned on `cond`.
    pub fn branch(pc: u64, cond: Option<Reg>, taken: bool, target: u64) -> Instr {
        Instr {
            src1: cond,
            branch: Some(BranchInfo { taken, target }),
            ..Self::base(pc, Op::Branch)
        }
    }

    /// A backoff instruction making the issuing context unavailable for
    /// `cycles` cycles (interleaved scheme; a no-op elsewhere).
    ///
    /// # Panics
    ///
    /// Panics if `cycles` is zero.
    pub fn backoff(pc: u64, cycles: u32) -> Instr {
        assert!(cycles > 0, "backoff must cover at least one cycle");
        Instr { backoff: cycles, ..Self::base(pc, Op::Backoff) }
    }

    /// A no-op (also used to model wrong-path fetch bubbles).
    pub fn nop(pc: u64) -> Instr {
        Self::base(pc, Op::Nop)
    }

    /// A non-binding software prefetch of the line containing `addr`.
    pub fn prefetch(pc: u64, base: Reg, addr: u64) -> Instr {
        Instr {
            src1: Some(base),
            mem: Some(MemRef { addr, kind: Access::Read }),
            ..Self::base(pc, Op::Prefetch)
        }
    }

    /// A synchronization operation on lock/barrier `id`.
    pub fn sync(pc: u64, kind: SyncKind, id: u32) -> Instr {
        Instr { sync: Some(SyncRef { kind, id }), ..Self::base(pc, Op::Sync) }
    }

    /// Source registers that participate in dependence checking.
    ///
    /// The hardwired-zero register is filtered out.
    pub fn sources(&self) -> impl Iterator<Item = Reg> + '_ {
        [self.src1, self.src2].into_iter().flatten().filter(|r| !r.is_zero())
    }

    /// Destination register that participates in dependence checking.
    ///
    /// Writes to the hardwired-zero register are discarded.
    #[inline]
    pub fn dest(&self) -> Option<Reg> {
        self.dst.filter(|r| !r.is_zero())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_carries_mem_ref() {
        let i = Instr::load(0, Reg::int(2), Reg::int(29), 0xABC0);
        assert_eq!(i.op, Op::Load);
        let m = i.mem.unwrap();
        assert_eq!(m.addr, 0xABC0);
        assert_eq!(m.kind, Access::Read);
        assert_eq!(i.dest(), Some(Reg::int(2)));
    }

    #[test]
    fn store_has_no_dest() {
        let i = Instr::store(0, Reg::int(2), Reg::int(29), 0xABC0);
        assert_eq!(i.dest(), None);
        assert_eq!(i.mem.unwrap().kind, Access::Write);
        assert_eq!(i.sources().count(), 2);
    }

    #[test]
    fn branch_carries_outcome() {
        let i = Instr::branch(0x10, Some(Reg::int(5)), true, 0x80);
        let b = i.branch.unwrap();
        assert!(b.taken);
        assert_eq!(b.target, 0x80);
    }

    #[test]
    fn zero_register_filtered_from_deps() {
        let i = Instr::alu(0, Some(Reg::ZERO), Some(Reg::ZERO), Some(Reg::int(1)));
        assert_eq!(i.dest(), None);
        assert_eq!(i.sources().collect::<Vec<_>>(), vec![Reg::int(1)]);
    }

    #[test]
    fn backoff_duration() {
        let i = Instr::backoff(0, 25);
        assert_eq!(i.op, Op::Backoff);
        assert_eq!(i.backoff, 25);
    }

    #[test]
    #[should_panic]
    fn zero_backoff_rejected() {
        let _ = Instr::backoff(0, 0);
    }

    #[test]
    #[should_panic]
    fn arith_rejects_mem_ops() {
        let _ = Instr::arith(0, Op::Load, None, None, None);
    }

    #[test]
    fn prefetch_is_memory_but_binds_nothing() {
        let i = Instr::prefetch(0, Reg::int(29), 0x2000);
        assert_eq!(i.op, Op::Prefetch);
        assert_eq!(i.dest(), None);
        assert_eq!(i.mem.unwrap().addr, 0x2000);
    }

    #[test]
    fn sync_carries_ref() {
        let i = Instr::sync(0, SyncKind::BarrierArrive, 7);
        assert_eq!(i.op, Op::Sync);
        let s = i.sync.unwrap();
        assert_eq!(s.kind, SyncKind::BarrierArrive);
        assert_eq!(s.id, 7);
    }

    #[test]
    fn arith_accepts_fp() {
        let i =
            Instr::arith(0, Op::FpDivDouble, Some(Reg::fp(0)), Some(Reg::fp(1)), Some(Reg::fp(2)));
        assert_eq!(i.op, Op::FpDivDouble);
        assert_eq!(i.sources().count(), 2);
    }
}
