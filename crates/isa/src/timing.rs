use crate::Op;

/// Issue occupancy and result latency for one operation class.
///
/// * `issue` — cycles the functional unit is occupied before the next
///   operation of the same class may enter it (non-pipelined units such as
///   the dividers have `issue == latency`).
/// * `latency` — cycles from entering EX until the result is available for
///   forwarding to a dependent instruction's EX stage. A latency of 1 means
///   a dependent instruction can execute in the very next cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpTiming {
    /// Functional-unit occupancy in cycles.
    pub issue: u32,
    /// Result latency in cycles.
    pub latency: u32,
}

impl OpTiming {
    /// Creates a timing entry.
    ///
    /// # Panics
    ///
    /// Panics if either field is zero — every operation takes at least one
    /// cycle.
    pub fn new(issue: u32, latency: u32) -> OpTiming {
        assert!(issue >= 1 && latency >= 1, "timings must be >= 1 cycle");
        OpTiming { issue, latency }
    }
}

/// Per-operation timing table — the paper's Table 3.
///
/// The published table lists: shift 1/2, load 1/3, FP add/sub/conv/mult 1/5,
/// FP divide 61/61 double (31/31 single). The integer multiply/divide rows
/// are corrupted in the source text; [`TimingModel::r4000_like`] reconstructs
/// them with R4000-era values (multiply 1/4, divide 35/35) as documented in
/// DESIGN.md.
///
/// # Examples
///
/// ```
/// use interleave_isa::{Op, TimingModel};
///
/// let t = TimingModel::r4000_like();
/// assert_eq!(t.timing(Op::FpAdd).latency, 5);
/// assert_eq!(t.timing(Op::FpDivDouble).issue, 61);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimingModel {
    entries: [OpTiming; Op::ALL.len()],
}

impl TimingModel {
    /// The paper's Table 3 timings (with the reconstructed integer
    /// multiply/divide rows).
    pub fn r4000_like() -> TimingModel {
        let mut entries = [OpTiming::new(1, 1); Op::ALL.len()];
        let mut set = |op: Op, issue: u32, latency: u32| {
            entries[Self::slot(op)] = OpTiming::new(issue, latency);
        };
        set(Op::IntAlu, 1, 1);
        set(Op::Shift, 1, 2);
        set(Op::IntMul, 1, 4);
        set(Op::IntDiv, 35, 35);
        set(Op::Load, 1, 3);
        set(Op::Store, 1, 1);
        set(Op::Prefetch, 1, 1);
        set(Op::Branch, 1, 1);
        set(Op::FpAdd, 1, 5);
        set(Op::FpMul, 1, 5);
        set(Op::FpConv, 1, 5);
        set(Op::FpDivSingle, 31, 31);
        set(Op::FpDivDouble, 61, 61);
        set(Op::Backoff, 1, 1);
        set(Op::SwitchHint, 1, 1);
        set(Op::Sync, 1, 1);
        set(Op::Nop, 1, 1);
        TimingModel { entries }
    }

    /// Looks up the timing for an operation class.
    #[inline]
    pub fn timing(&self, op: Op) -> OpTiming {
        self.entries[Self::slot(op)]
    }

    /// Overrides the timing for one operation class (for ablation studies).
    pub fn set_timing(&mut self, op: Op, timing: OpTiming) {
        self.entries[Self::slot(op)] = timing;
    }

    /// Table row of `op`: its declaration index, which is also its
    /// position in [`Op::ALL`] (pinned by a test).
    #[inline]
    fn slot(op: Op) -> usize {
        op as usize
    }
}

impl Default for TimingModel {
    fn default() -> Self {
        TimingModel::r4000_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_published_rows() {
        let t = TimingModel::r4000_like();
        assert_eq!(t.timing(Op::Shift), OpTiming::new(1, 2));
        assert_eq!(t.timing(Op::Load), OpTiming::new(1, 3));
        assert_eq!(t.timing(Op::FpAdd), OpTiming::new(1, 5));
        assert_eq!(t.timing(Op::FpMul), OpTiming::new(1, 5));
        assert_eq!(t.timing(Op::FpConv), OpTiming::new(1, 5));
        assert_eq!(t.timing(Op::FpDivSingle), OpTiming::new(31, 31));
        assert_eq!(t.timing(Op::FpDivDouble), OpTiming::new(61, 61));
    }

    #[test]
    fn reconstructed_rows() {
        let t = TimingModel::r4000_like();
        assert_eq!(t.timing(Op::IntMul), OpTiming::new(1, 4));
        assert_eq!(t.timing(Op::IntDiv), OpTiming::new(35, 35));
    }

    #[test]
    fn divides_are_non_pipelined() {
        let t = TimingModel::r4000_like();
        for op in Op::ALL {
            if op.is_divide() {
                let timing = t.timing(op);
                assert_eq!(timing.issue, timing.latency, "{op} should be non-pipelined");
            }
        }
    }

    #[test]
    fn fp_add_max_dependent_stall_is_four() {
        // The paper labels pipeline stalls of <= 4 cycles "short" because 4
        // is the maximum stall from an FP add/sub/mult result hazard: a
        // back-to-back dependent pair stalls latency - 1 = 4 cycles.
        let t = TimingModel::r4000_like();
        assert_eq!(t.timing(Op::FpAdd).latency - 1, 4);
    }

    #[test]
    fn override_for_ablation() {
        let mut t = TimingModel::r4000_like();
        t.set_timing(Op::IntDiv, OpTiming::new(10, 10));
        assert_eq!(t.timing(Op::IntDiv), OpTiming::new(10, 10));
        // Others untouched.
        assert_eq!(t.timing(Op::Load), OpTiming::new(1, 3));
    }

    #[test]
    #[should_panic]
    fn zero_timing_rejected() {
        let _ = OpTiming::new(0, 1);
    }

    #[test]
    fn slot_is_position_in_all() {
        for (i, op) in Op::ALL.into_iter().enumerate() {
            assert_eq!(TimingModel::slot(op), i, "{op}");
        }
    }

    #[test]
    fn every_op_has_an_entry() {
        let t = TimingModel::default();
        for op in Op::ALL {
            let timing = t.timing(op);
            assert!(timing.issue >= 1 && timing.latency >= 1);
        }
    }
}
