use std::fmt;

/// Operation classes distinguished by the timing model (paper Table 3).
///
/// The simulator does not interpret instruction semantics — workloads are
/// synthetic streams — so only the properties that affect timing are
/// modelled: which functional unit an operation occupies, how long it
/// occupies it, when its result becomes available for forwarding, whether it
/// references memory, and whether it redirects control flow.
///
/// Two special operations exist for latency tolerance (paper Section 4.2):
///
/// * [`Op::Backoff`] — the interleaved scheme's backoff instruction: makes
///   the issuing context unavailable for a number of cycles encoded in the
///   instruction (cost 1 cycle, Table 4).
/// * [`Op::SwitchHint`] — the blocked scheme's explicit context-switch
///   instruction (cost 3 cycles, Table 4). On the interleaved and
///   single-context processors it retires as a no-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Single-cycle integer ALU operation (add, logical, compare, ...).
    IntAlu,
    /// Shift operation (issue 1, latency 2).
    Shift,
    /// Integer multiply (reconstructed: issue 1, latency 4).
    IntMul,
    /// Integer divide (reconstructed: non-pipelined, issue 35, latency 35).
    IntDiv,
    /// Memory load (two delay slots: result at end of DF2, latency 3).
    Load,
    /// Memory store (no register result).
    Store,
    /// Non-binding software prefetch (Mowry-style): starts a line fill but
    /// never blocks or switches the context. One of the alternative
    /// latency-tolerance techniques the paper's introduction compares
    /// against.
    Prefetch,
    /// Conditional or unconditional branch, resolved in EX.
    Branch,
    /// Floating-point add/subtract (issue 1, latency 5).
    FpAdd,
    /// Floating-point multiply (issue 1, latency 5).
    FpMul,
    /// Floating-point conversion (issue 1, latency 5).
    FpConv,
    /// Single-precision FP divide (non-pipelined, issue 31, latency 31).
    FpDivSingle,
    /// Double-precision FP divide (non-pipelined, issue 61, latency 61).
    FpDivDouble,
    /// Backoff instruction: context becomes unavailable for `Instr::backoff`
    /// cycles (interleaved scheme only; retires as a no-op elsewhere).
    Backoff,
    /// Explicit context-switch instruction (blocked scheme only; retires as
    /// a no-op elsewhere).
    SwitchHint,
    /// Synchronization operation (lock acquire/release, barrier arrival).
    /// The processor consults its synchronization port when this issues;
    /// see `Instr::sync`.
    Sync,
    /// No-operation (also used for wrong-path fetch bubbles).
    Nop,
}

/// Functional units the scoreboard tracks for structural hazards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FuKind {
    /// Integer ALU (also executes branches' condition evaluation).
    IntAlu,
    /// Integer multiply/divide unit (non-pipelined divides).
    IntMulDiv,
    /// Data-memory port (address generation + D-cache access).
    Mem,
    /// Floating-point adder (add/sub/convert).
    FpAdd,
    /// Floating-point multiplier.
    FpMul,
    /// Floating-point divider (non-pipelined).
    FpDiv,
}

impl Op {
    /// The functional unit this operation occupies, if any.
    ///
    /// `Nop`, `Backoff`, and `SwitchHint` occupy no unit.
    #[inline]
    pub fn fu(self) -> Option<FuKind> {
        match self {
            Op::IntAlu | Op::Shift | Op::Branch => Some(FuKind::IntAlu),
            Op::IntMul | Op::IntDiv => Some(FuKind::IntMulDiv),
            Op::Load | Op::Store | Op::Prefetch => Some(FuKind::Mem),
            Op::FpAdd | Op::FpConv => Some(FuKind::FpAdd),
            Op::FpMul => Some(FuKind::FpMul),
            Op::FpDivSingle | Op::FpDivDouble => Some(FuKind::FpDiv),
            Op::Backoff | Op::SwitchHint | Op::Sync | Op::Nop => None,
        }
    }

    /// Whether this operation references data memory.
    pub fn is_mem(self) -> bool {
        matches!(self, Op::Load | Op::Store | Op::Prefetch)
    }

    /// Whether this operation redirects control flow.
    pub fn is_branch(self) -> bool {
        matches!(self, Op::Branch)
    }

    /// Whether this operation executes in the nine-stage FP pipeline.
    ///
    /// FP loads/stores use the integer pipeline's memory stages (as on the
    /// R4000); only FP arithmetic flows down the FP pipe.
    #[inline]
    pub fn is_fp(self) -> bool {
        matches!(self, Op::FpAdd | Op::FpMul | Op::FpConv | Op::FpDivSingle | Op::FpDivDouble)
    }

    /// Whether this is one of the non-pipelined long operations (divides).
    pub fn is_divide(self) -> bool {
        matches!(self, Op::IntDiv | Op::FpDivSingle | Op::FpDivDouble)
    }

    /// All operation classes, for exhaustive table construction and tests.
    pub const ALL: [Op; 17] = [
        Op::IntAlu,
        Op::Shift,
        Op::IntMul,
        Op::IntDiv,
        Op::Load,
        Op::Store,
        Op::Prefetch,
        Op::Branch,
        Op::FpAdd,
        Op::FpMul,
        Op::FpConv,
        Op::FpDivSingle,
        Op::FpDivDouble,
        Op::Backoff,
        Op::SwitchHint,
        Op::Sync,
        Op::Nop,
    ];
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Op::IntAlu => "alu",
            Op::Shift => "shift",
            Op::IntMul => "mul",
            Op::IntDiv => "div",
            Op::Load => "load",
            Op::Store => "store",
            Op::Prefetch => "prefetch",
            Op::Branch => "branch",
            Op::FpAdd => "fadd",
            Op::FpMul => "fmul",
            Op::FpConv => "fconv",
            Op::FpDivSingle => "fdiv.s",
            Op::FpDivDouble => "fdiv.d",
            Op::Backoff => "backoff",
            Op::SwitchHint => "switch",
            Op::Sync => "sync",
            Op::Nop => "nop",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_is_exhaustive_and_unique() {
        for (i, a) in Op::ALL.iter().enumerate() {
            for b in &Op::ALL[i + 1..] {
                assert_ne!(a, b);
            }
        }
        assert_eq!(Op::ALL.len(), 17);
    }

    #[test]
    fn mem_ops() {
        assert!(Op::Load.is_mem());
        assert!(Op::Store.is_mem());
        assert!(Op::Prefetch.is_mem());
        assert!(!Op::IntAlu.is_mem());
        assert_eq!(Op::Load.fu(), Some(FuKind::Mem));
    }

    #[test]
    fn fp_ops_use_fp_pipe() {
        for op in [Op::FpAdd, Op::FpMul, Op::FpConv, Op::FpDivSingle, Op::FpDivDouble] {
            assert!(op.is_fp(), "{op} should be FP");
        }
        // FP loads use the integer pipe.
        assert!(!Op::Load.is_fp());
    }

    #[test]
    fn divides_are_divides() {
        assert!(Op::IntDiv.is_divide());
        assert!(Op::FpDivSingle.is_divide());
        assert!(Op::FpDivDouble.is_divide());
        assert!(!Op::FpMul.is_divide());
    }

    #[test]
    fn pseudo_ops_have_no_fu() {
        assert_eq!(Op::Nop.fu(), None);
        assert_eq!(Op::Backoff.fu(), None);
        assert_eq!(Op::SwitchHint.fu(), None);
        assert_eq!(Op::Sync.fu(), None);
    }

    #[test]
    fn branch_uses_int_alu() {
        assert!(Op::Branch.is_branch());
        assert_eq!(Op::Branch.fu(), Some(FuKind::IntAlu));
    }

    #[test]
    fn display_is_nonempty() {
        for op in Op::ALL {
            assert!(!op.to_string().is_empty());
        }
    }
}
