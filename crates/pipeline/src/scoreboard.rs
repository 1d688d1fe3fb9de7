use interleave_isa::{FuKind, Instr, Reg, TimingModel};
use interleave_obs::validate::Violation;

const FU_COUNT: usize = 6;

// The per-context register masks are one `u64` each.
const _: () = assert!(Reg::COUNT <= 64);

#[inline]
fn fu_slot(fu: FuKind) -> usize {
    match fu {
        FuKind::IntAlu => 0,
        FuKind::IntMulDiv => 1,
        FuKind::Mem => 2,
        FuKind::FpAdd => 3,
        FuKind::FpMul => 4,
        FuKind::FpDiv => 5,
    }
}

#[derive(Debug, Clone, Copy)]
struct FuState {
    free_at: u64,
    owner: usize,
    prev_free_at: u64,
}

/// Register and functional-unit scoreboard.
///
/// Tracks, per hardware context, the cycle at which each architectural
/// register's value becomes available for forwarding to a dependent
/// instruction's EX stage, plus the shared functional units' busy times
/// (the non-pipelined dividers are the only multi-cycle-occupancy units in
/// the default timing model).
///
/// Hazards enforced at issue:
///
/// * **true (RAW)** — sources must be ready at the EX cycle;
/// * **output (WAW)** — a write may not complete before an older write to
///   the same register;
/// * **structural** — the required functional unit must be free.
///
/// Anti-dependences (WAR) cannot be violated because reads happen in order
/// at issue time.
///
/// # Examples
///
/// ```
/// use interleave_isa::{Instr, Reg, TimingModel};
/// use interleave_pipeline::Scoreboard;
///
/// let timing = TimingModel::r4000_like();
/// let mut sb = Scoreboard::new(1);
/// let load = Instr::load(0, Reg::int(4), Reg::int(29), 0x100);
/// sb.issue(0, &load, &timing, 10);
/// // A dependent ALU op must wait for the two load delay slots.
/// let use_it = Instr::alu(4, Some(Reg::int(5)), Some(Reg::int(4)), None);
/// assert_eq!(sb.earliest_issue(0, &use_it, &timing, 11), 13);
/// ```
#[derive(Debug, Clone)]
pub struct Scoreboard {
    contexts: usize,
    /// `contexts * Reg::COUNT` ready cycles. Boxed slices: sized once at
    /// construction (context count is a hardware parameter), no spare
    /// capacity, contiguous per-context index ranges.
    reg_ready: Box<[u64]>,
    /// Per context, a bit per register ([`Reg::index`]) whose pending
    /// value comes from an outstanding memory operation (drives
    /// data-stall vs pipeline-stall attribution).
    mem_pending: Box<[u64]>,
    /// Per context, a bit per register whose ready cycle was written
    /// since the context's last [`Scoreboard::clear_context`]. Every
    /// other register's ready cycle is at most that clear's `now`, so
    /// the next clear only needs to visit these.
    written: Box<[u64]>,
    fu: [FuState; FU_COUNT],
}

impl Scoreboard {
    /// Creates a scoreboard for `contexts` hardware contexts with all
    /// registers ready and all units free.
    ///
    /// # Panics
    ///
    /// Panics if `contexts` is zero.
    pub fn new(contexts: usize) -> Scoreboard {
        assert!(contexts > 0, "need at least one context");
        Scoreboard {
            contexts,
            reg_ready: vec![0; contexts * Reg::COUNT].into_boxed_slice(),
            mem_pending: vec![0; contexts].into_boxed_slice(),
            written: vec![0; contexts].into_boxed_slice(),
            fu: [FuState { free_at: 0, owner: usize::MAX, prev_free_at: 0 }; FU_COUNT],
        }
    }

    #[inline]
    fn slot(&self, ctx: usize, reg: Reg) -> usize {
        debug_assert!(ctx < self.contexts);
        ctx * Reg::COUNT + reg.index()
    }

    #[inline]
    fn is_mem_pending(&self, ctx: usize, reg: Reg) -> bool {
        self.mem_pending[ctx] >> reg.index() & 1 != 0
    }

    /// Earliest cycle at or after `candidate` at which `instr` may enter EX.
    #[inline]
    pub fn earliest_issue(
        &self,
        ctx: usize,
        instr: &Instr,
        timing: &TimingModel,
        candidate: u64,
    ) -> u64 {
        // The zero register is never tracked (its ready cycle stays 0),
        // so it needs no filtering here.
        let ready = |reg: Option<Reg>| reg.map_or(0, |r| self.reg_ready[self.slot(ctx, r)]);
        let mut earliest = candidate.max(ready(instr.src1)).max(ready(instr.src2));
        let t = timing.timing(instr.op);
        if let Some(dst) = instr.dest() {
            let prior = self.reg_ready[self.slot(ctx, dst)];
            earliest = earliest.max(prior.saturating_sub(u64::from(t.latency)));
        }
        if let Some(fu) = instr.op.fu() {
            earliest = earliest.max(self.fu[fu_slot(fu)].free_at);
        }
        earliest
    }

    /// Whether the constraint delaying `instr` past `now` is a register
    /// pending on an outstanding memory operation (used by the
    /// single-context scheme to charge data-stall rather than
    /// pipeline-stall cycles).
    #[inline]
    pub fn blocked_on_memory(&self, ctx: usize, instr: &Instr, now: u64) -> bool {
        instr
            .sources()
            .chain(instr.dest())
            .any(|reg| self.is_mem_pending(ctx, reg) && self.reg_ready[self.slot(ctx, reg)] > now)
    }

    /// Records the effects of `instr` entering EX at `ex`: reserves its
    /// functional unit and schedules its result.
    #[inline]
    pub fn issue(&mut self, ctx: usize, instr: &Instr, timing: &TimingModel, ex: u64) {
        let t = timing.timing(instr.op);
        if let Some(fu) = instr.op.fu() {
            let state = &mut self.fu[fu_slot(fu)];
            state.prev_free_at = state.free_at;
            state.free_at = ex + u64::from(t.issue);
            state.owner = ctx;
        }
        if let Some(dst) = instr.dest() {
            let slot = self.slot(ctx, dst);
            self.reg_ready[slot] = ex + u64::from(t.latency);
            self.mem_pending[ctx] &= !(1 << dst.index());
            self.written[ctx] |= 1 << dst.index();
        }
    }

    /// Overrides a destination register's ready time (a load whose fill
    /// completes at `ready_at`), marking it memory-pending.
    #[inline]
    pub fn set_mem_pending(&mut self, ctx: usize, reg: Reg, ready_at: u64) {
        if reg.is_zero() {
            return;
        }
        let slot = self.slot(ctx, reg);
        self.reg_ready[slot] = ready_at;
        self.mem_pending[ctx] |= 1 << reg.index();
        self.written[ctx] |= 1 << reg.index();
    }

    /// Cycle at which `reg` becomes available for forwarding.
    pub fn ready_at(&self, ctx: usize, reg: Reg) -> u64 {
        self.reg_ready[self.slot(ctx, reg)]
    }

    /// Undoes the effects of a context's squashed instructions: its pending
    /// register writes are cancelled (made ready at `now`) and a functional
    /// unit it reserved is rolled back one reservation.
    ///
    /// Rolling back only the most recent reservation per unit is an
    /// approximation; it is exact for the dominant squash cause (a load
    /// miss with at most one in-flight long operation per context).
    ///
    /// Only registers written since the previous clear are visited: the
    /// rest are ready by that clear's `now`, and time never goes back.
    pub fn clear_context(&mut self, ctx: usize, now: u64) {
        let base = ctx * Reg::COUNT;
        let mut written = std::mem::take(&mut self.written[ctx]);
        while written != 0 {
            let ready = &mut self.reg_ready[base + written.trailing_zeros() as usize];
            *ready = (*ready).min(now);
            written &= written - 1;
        }
        self.mem_pending[ctx] = 0;
        for state in &mut self.fu {
            if state.owner == ctx && state.free_at > now {
                // prev_free_at <= free_at and now < free_at, so this only
                // ever shortens the reservation.
                state.free_at = state.prev_free_at.max(now);
                state.owner = usize::MAX;
            }
        }
    }

    /// Checks the scoreboard's standing structural invariants at `now`:
    /// every busy functional unit is owned by a real context, reservation
    /// history is ordered (`prev_free_at <= free_at`), and the
    /// hard-wired zero register is never tracked (always ready, never
    /// memory-pending). O(contexts + units).
    pub fn check_invariants(&self, now: u64) -> Result<(), Violation> {
        for (i, state) in self.fu.iter().enumerate() {
            if state.owner != usize::MAX && state.owner >= self.contexts {
                return Err(Violation::new(
                    "pipeline.scoreboard",
                    "functional unit owned by a nonexistent context",
                    now,
                    format!("unit {i} owned by context {} of {}", state.owner, self.contexts),
                ));
            }
            if state.prev_free_at > state.free_at {
                return Err(Violation::new(
                    "pipeline.scoreboard",
                    "functional-unit reservation history out of order",
                    now,
                    format!(
                        "unit {i}: prev_free_at {} > free_at {}",
                        state.prev_free_at, state.free_at
                    ),
                )
                .with_context(if state.owner == usize::MAX {
                    0
                } else {
                    state.owner
                }));
            }
        }
        for ctx in 0..self.contexts {
            let slot = self.slot(ctx, Reg::ZERO);
            let mem_pending = self.is_mem_pending(ctx, Reg::ZERO);
            if self.reg_ready[slot] != 0 || mem_pending {
                return Err(Violation::new(
                    "pipeline.scoreboard",
                    "hard-wired zero register acquired scoreboard state",
                    now,
                    format!("ready_at {}, mem_pending {mem_pending}", self.reg_ready[slot]),
                )
                .with_context(ctx));
            }
        }
        Ok(())
    }

    /// Checks that issuing `instr` into EX at cycle `ex` is hazard-legal:
    /// every forwarding source is ready by `ex` (i.e. comes from a
    /// completed or exactly-forwardable in-flight op), the write does not
    /// complete before an older write to the same register (no
    /// dual-writer WB), and the functional unit is free.
    pub fn check_issue(
        &self,
        ctx: usize,
        instr: &Instr,
        timing: &TimingModel,
        ex: u64,
    ) -> Result<(), Violation> {
        for src in instr.sources() {
            let ready = self.reg_ready[self.slot(ctx, src)];
            if ready > ex {
                return Err(Violation::new(
                    "pipeline.scoreboard",
                    "issued with a forwarding source that is not live",
                    ex,
                    format!("{:?} source {src:?} not ready until cycle {ready}", instr.op),
                )
                .with_context(ctx));
            }
        }
        let t = timing.timing(instr.op);
        if let Some(dst) = instr.dest() {
            let prior = self.reg_ready[self.slot(ctx, dst)];
            if ex + u64::from(t.latency) < prior {
                return Err(Violation::new(
                    "pipeline.scoreboard",
                    "write would complete before an older write (dual-writer WB)",
                    ex,
                    format!(
                        "{:?} writes {dst:?} at cycle {} but an older write lands at {prior}",
                        instr.op,
                        ex + u64::from(t.latency)
                    ),
                )
                .with_context(ctx));
            }
        }
        if let Some(fu) = instr.op.fu() {
            let state = &self.fu[fu_slot(fu)];
            if state.free_at > ex {
                return Err(Violation::new(
                    "pipeline.scoreboard",
                    "issued to a busy functional unit",
                    ex,
                    format!("{:?} unit busy until cycle {}", fu, state.free_at),
                )
                .with_context(ctx));
            }
        }
        Ok(())
    }

    /// Checks that [`Scoreboard::clear_context`] removed exactly the
    /// squashed context's state: none of its registers remains pending
    /// past `now` and no functional unit is still held by it beyond
    /// `now`. Other contexts' slots are untouched by construction
    /// (per-context index ranges), so this completes the "squash removes
    /// exactly the squashed context's slots" invariant.
    pub fn check_cleared(&self, ctx: usize, now: u64) -> Result<(), Violation> {
        let base = ctx * Reg::COUNT;
        for (i, slot) in (base..base + Reg::COUNT).enumerate() {
            if self.reg_ready[slot] > now {
                return Err(Violation::new(
                    "pipeline.scoreboard",
                    "squashed context still has a pending register write",
                    now,
                    format!("register index {i} ready at cycle {}", self.reg_ready[slot]),
                )
                .with_context(ctx));
            }
            if self.is_mem_pending(ctx, Reg::from_index(i)) {
                return Err(Violation::new(
                    "pipeline.scoreboard",
                    "squashed context still has a memory-pending register",
                    now,
                    format!("register index {i}"),
                )
                .with_context(ctx));
            }
        }
        for (i, state) in self.fu.iter().enumerate() {
            if state.owner == ctx && state.free_at > now {
                return Err(Violation::new(
                    "pipeline.scoreboard",
                    "squashed context still holds a functional unit",
                    now,
                    format!("unit {i} busy until cycle {}", state.free_at),
                )
                .with_context(ctx));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use interleave_isa::Op;

    fn timing() -> TimingModel {
        TimingModel::r4000_like()
    }

    #[test]
    fn independent_instr_issues_immediately() {
        let sb = Scoreboard::new(2);
        let i = Instr::alu(0, Some(Reg::int(1)), Some(Reg::int(2)), None);
        assert_eq!(sb.earliest_issue(0, &i, &timing(), 5), 5);
    }

    #[test]
    fn raw_hazard_delays_consumer() {
        let mut sb = Scoreboard::new(1);
        let load = Instr::load(0, Reg::int(4), Reg::int(29), 0x100);
        sb.issue(0, &load, &timing(), 10);
        let consumer = Instr::alu(4, Some(Reg::int(5)), Some(Reg::int(4)), None);
        // Load latency 3: result forwardable to EX at cycle 13.
        assert_eq!(sb.earliest_issue(0, &consumer, &timing(), 11), 13);
    }

    #[test]
    fn forwarding_allows_back_to_back_alu() {
        let mut sb = Scoreboard::new(1);
        let a = Instr::alu(0, Some(Reg::int(1)), None, None);
        sb.issue(0, &a, &timing(), 10);
        let b = Instr::alu(4, Some(Reg::int(2)), Some(Reg::int(1)), None);
        assert_eq!(sb.earliest_issue(0, &b, &timing(), 11), 11);
    }

    #[test]
    fn fp_add_dependent_stalls_four() {
        let mut sb = Scoreboard::new(1);
        let a = Instr::arith(0, Op::FpAdd, Some(Reg::fp(1)), Some(Reg::fp(2)), Some(Reg::fp(3)));
        sb.issue(0, &a, &timing(), 10);
        let b = Instr::arith(4, Op::FpMul, Some(Reg::fp(4)), Some(Reg::fp(1)), None);
        // Would issue at 11; must wait until 15 — a 4-cycle stall, the
        // paper's short/long boundary.
        assert_eq!(sb.earliest_issue(0, &b, &timing(), 11), 15);
    }

    #[test]
    fn contexts_are_independent() {
        let mut sb = Scoreboard::new(2);
        let load = Instr::load(0, Reg::int(4), Reg::int(29), 0x100);
        sb.issue(0, &load, &timing(), 10);
        let other = Instr::alu(4, Some(Reg::int(5)), Some(Reg::int(4)), None);
        // Context 1's r4 is unrelated to context 0's.
        assert_eq!(sb.earliest_issue(1, &other, &timing(), 11), 11);
    }

    #[test]
    fn divider_is_shared_across_contexts() {
        let mut sb = Scoreboard::new(2);
        let div = Instr::arith(0, Op::FpDivDouble, Some(Reg::fp(1)), Some(Reg::fp(2)), None);
        sb.issue(0, &div, &timing(), 10);
        let div2 = Instr::arith(0, Op::FpDivDouble, Some(Reg::fp(1)), Some(Reg::fp(2)), None);
        // Non-pipelined: busy 61 cycles, even for another context.
        assert_eq!(sb.earliest_issue(1, &div2, &timing(), 11), 71);
    }

    #[test]
    fn waw_hazard_orders_writes() {
        let mut sb = Scoreboard::new(1);
        let div = Instr::arith(0, Op::IntDiv, Some(Reg::int(3)), Some(Reg::int(1)), None);
        sb.issue(0, &div, &timing(), 10); // r3 ready at 45
        let alu = Instr::alu(4, Some(Reg::int(3)), Some(Reg::int(2)), None);
        // ALU write (latency 1) may not complete before cycle 45.
        assert_eq!(sb.earliest_issue(0, &alu, &timing(), 11), 44);
    }

    #[test]
    fn mem_pending_attribution() {
        let mut sb = Scoreboard::new(1);
        sb.set_mem_pending(0, Reg::int(4), 100);
        let consumer = Instr::alu(4, None, Some(Reg::int(4)), None);
        assert!(sb.blocked_on_memory(0, &consumer, 50));
        assert!(!sb.blocked_on_memory(0, &consumer, 100));
        let unrelated = Instr::alu(4, None, Some(Reg::int(5)), None);
        assert!(!sb.blocked_on_memory(0, &unrelated, 50));
    }

    #[test]
    fn clear_context_cancels_pending_writes() {
        let mut sb = Scoreboard::new(2);
        let load = Instr::load(0, Reg::int(4), Reg::int(29), 0x100);
        sb.issue(0, &load, &timing(), 10);
        sb.clear_context(0, 11);
        assert_eq!(sb.ready_at(0, Reg::int(4)), 11);
    }

    #[test]
    fn clear_context_rolls_back_fu() {
        let mut sb = Scoreboard::new(2);
        let div = Instr::arith(0, Op::FpDivDouble, Some(Reg::fp(1)), None, None);
        sb.issue(0, &div, &timing(), 10); // FpDiv busy until 71
        sb.clear_context(0, 12);
        let div2 = Instr::arith(0, Op::FpDivDouble, Some(Reg::fp(1)), None, None);
        assert_eq!(sb.earliest_issue(1, &div2, &timing(), 12), 12);
    }

    #[test]
    fn clear_context_leaves_other_owners_alone() {
        let mut sb = Scoreboard::new(2);
        let div = Instr::arith(0, Op::FpDivDouble, Some(Reg::fp(1)), None, None);
        sb.issue(1, &div, &timing(), 10);
        sb.clear_context(0, 12);
        let div2 = Instr::arith(0, Op::FpDivDouble, Some(Reg::fp(1)), None, None);
        assert_eq!(sb.earliest_issue(0, &div2, &timing(), 12), 71);
    }

    #[test]
    fn check_issue_accepts_legal_and_flags_hazards() {
        let mut sb = Scoreboard::new(1);
        let load = Instr::load(0, Reg::int(4), Reg::int(29), 0x100);
        sb.issue(0, &load, &timing(), 10);
        let consumer = Instr::alu(4, Some(Reg::int(5)), Some(Reg::int(4)), None);
        // Result forwardable at cycle 13: issuing then is legal...
        assert!(sb.check_issue(0, &consumer, &timing(), 13).is_ok());
        // ...but issuing at 12 reads a value that is not live yet.
        let v = sb.check_issue(0, &consumer, &timing(), 12).unwrap_err();
        assert_eq!(v.context, Some(0));
        assert!(v.to_string().contains("not ready until"), "{v}");
    }

    #[test]
    fn check_issue_flags_dual_writer_wb() {
        let mut sb = Scoreboard::new(1);
        let div = Instr::arith(0, Op::IntDiv, Some(Reg::int(3)), Some(Reg::int(1)), None);
        sb.issue(0, &div, &timing(), 10); // r3 ready at 45
        let alu = Instr::alu(4, Some(Reg::int(3)), Some(Reg::int(2)), None);
        // An ALU write at EX 20 completes at 21 — before the divide's WB.
        let v = sb.check_issue(0, &alu, &timing(), 20).unwrap_err();
        assert!(v.to_string().contains("older write"), "{v}");
        // At EX 44 the writes are ordered; legal.
        assert!(sb.check_issue(0, &alu, &timing(), 44).is_ok());
    }

    #[test]
    fn check_issue_flags_busy_fu() {
        let mut sb = Scoreboard::new(2);
        let div = Instr::arith(0, Op::FpDivDouble, Some(Reg::fp(1)), None, None);
        sb.issue(0, &div, &timing(), 10); // FpDiv busy until 71
        let div2 = Instr::arith(0, Op::FpDivDouble, Some(Reg::fp(2)), None, None);
        let v = sb.check_issue(1, &div2, &timing(), 50).unwrap_err();
        assert!(v.to_string().contains("busy"), "{v}");
    }

    #[test]
    fn check_cleared_after_squash() {
        let mut sb = Scoreboard::new(2);
        let load = Instr::load(0, Reg::int(4), Reg::int(29), 0x100);
        sb.issue(0, &load, &timing(), 10);
        sb.set_mem_pending(0, Reg::int(4), 100);
        let div = Instr::arith(4, Op::FpDivDouble, Some(Reg::fp(1)), None, None);
        sb.issue(0, &div, &timing(), 11);
        // Before the squash, the cleared-state check must fail...
        assert!(sb.check_cleared(0, 12).is_err());
        sb.clear_context(0, 12);
        // ...and pass afterwards, for the squashed context only.
        assert!(sb.check_cleared(0, 12).is_ok());
        assert!(sb.check_invariants(12).is_ok());
    }

    #[test]
    fn standing_invariants_hold_through_traffic() {
        let mut sb = Scoreboard::new(4);
        let t = timing();
        for ctx in 0..4 {
            let load = Instr::load(0, Reg::int(4), Reg::int(29), 0x100);
            let ex = sb.earliest_issue(ctx, &load, &t, 10 + ctx as u64);
            assert!(sb.check_issue(ctx, &load, &t, ex).is_ok());
            sb.issue(ctx, &load, &t, ex);
        }
        assert!(sb.check_invariants(20).is_ok());
    }

    #[test]
    fn zero_register_never_tracked() {
        let mut sb = Scoreboard::new(1);
        let writer = Instr::arith(0, Op::IntDiv, Some(Reg::ZERO), Some(Reg::int(1)), None);
        sb.issue(0, &writer, &timing(), 10);
        let reader = Instr::alu(4, None, Some(Reg::ZERO), None);
        assert_eq!(sb.earliest_issue(0, &reader, &timing(), 11), 11);
        sb.set_mem_pending(0, Reg::ZERO, 100);
        assert_eq!(sb.ready_at(0, Reg::ZERO), 0);
    }
}
