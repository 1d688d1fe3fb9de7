use interleave_obs::Registry;

use crate::FRONT_DEPTH;

/// Why a front-end slot carries no instruction.
///
/// The cause travels with the bubble so the cycle in which it reaches the
/// issue point can be attributed to the right execution-time category
/// (paper Figures 6–9).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BubbleCause {
    /// Refill after a context squash or pipeline flush: context-switch
    /// overhead.
    Switch,
    /// Squashed wrong-path fetch after a branch misprediction: a control
    /// hazard, charged as a (short) pipeline-dependency stall.
    Mispredict,
    /// Fetch stalled on instruction memory (I-cache or I-TLB miss).
    InstMem,
    /// No context was available to fetch from because all were waiting on
    /// outstanding data references.
    DataWait,
    /// No context available: all waiting on synchronization.
    SyncWait,
    /// No context available: all backing off long instruction latencies.
    BackoffWait,
    /// Nothing left to fetch (streams exhausted); not charged to any
    /// category.
    Drained,
}

impl BubbleCause {
    /// Every cause, in a fixed order matching [`BubbleCause::slot`].
    pub const ALL: [BubbleCause; 7] = [
        BubbleCause::Switch,
        BubbleCause::Mispredict,
        BubbleCause::InstMem,
        BubbleCause::DataWait,
        BubbleCause::SyncWait,
        BubbleCause::BackoffWait,
        BubbleCause::Drained,
    ];

    /// Stable metric-name suffix for this cause.
    pub fn label(self) -> &'static str {
        match self {
            BubbleCause::Switch => "switch",
            BubbleCause::Mispredict => "mispredict",
            BubbleCause::InstMem => "inst_mem",
            BubbleCause::DataWait => "data_wait",
            BubbleCause::SyncWait => "sync_wait",
            BubbleCause::BackoffWait => "backoff_wait",
            BubbleCause::Drained => "drained",
        }
    }

    /// Index into per-cause count arrays.
    #[inline]
    fn slot(self) -> usize {
        match self {
            BubbleCause::Switch => 0,
            BubbleCause::Mispredict => 1,
            BubbleCause::InstMem => 2,
            BubbleCause::DataWait => 3,
            BubbleCause::SyncWait => 4,
            BubbleCause::BackoffWait => 5,
            BubbleCause::Drained => 6,
        }
    }
}

/// A fetched instruction travelling down the front end.
///
/// The slot names the instruction rather than carrying it: the context's
/// fetch unit holds every fetched instruction until it retires, and the
/// issue stage reads it there by `fetch_index`. That keeps a slot (and a
/// [`FrontSlot`]) at 24 bytes, so shifting the pipe moves no instruction
/// bodies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    /// Hardware context the instruction was fetched from.
    pub ctx: usize,
    /// Position in the context's instruction stream.
    pub fetch_index: u64,
    /// Whether this was fetched down a mispredicted path (it will be
    /// squashed when the branch resolves and must never issue).
    pub wrong_path: bool,
    /// For branches: whether the BTB mispredicted this instance *at fetch
    /// time*. The prediction is bound here because the shared BTB may be
    /// updated by other contexts between fetch and issue.
    pub mispredicted: bool,
}

/// One front-end stage: either an instruction or an attributed bubble.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrontSlot {
    /// No instruction; carries the cause for attribution.
    Bubble(BubbleCause),
    /// A fetched instruction.
    Instr(Slot),
}

impl FrontSlot {
    /// The instruction slot, if occupied.
    #[inline]
    pub fn slot(&self) -> Option<&Slot> {
        match self {
            FrontSlot::Instr(s) => Some(s),
            FrontSlot::Bubble(_) => None,
        }
    }
}

/// Slots removed from the front end by a squash — at most one per stage,
/// held inline so the per-squash path allocates nothing.
#[derive(Debug, Clone, Copy)]
pub struct SquashedSlots {
    slots: [Option<Slot>; FRONT_DEPTH],
    len: usize,
}

impl SquashedSlots {
    fn new() -> SquashedSlots {
        SquashedSlots { slots: [None; FRONT_DEPTH], len: 0 }
    }

    fn push(&mut self, slot: Slot) {
        self.slots[self.len] = Some(slot);
        self.len += 1;
    }

    /// Number of removed slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the squash removed nothing.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates over the removed slots in stage order (IF1 first).
    pub fn iter(&self) -> impl Iterator<Item = &Slot> {
        self.slots[..self.len].iter().map(|s| s.as_ref().expect("slot within len"))
    }
}

/// The three pre-issue pipeline stages (IF1, IF2, RF) as a rigid shift
/// register.
///
/// "Rigid" means bubbles do not compress: when the RF stage stalls the
/// whole front end holds, exactly like the simple in-order pipelines the
/// paper models. The interleaved scheme's key mechanism lives here:
/// [`FrontEnd::squash_ctx`] removes only one context's instructions,
/// leaving other contexts' work in place.
#[derive(Debug, Clone)]
pub struct FrontEnd {
    /// `stages[0]` is IF1 (youngest), `stages[FRONT_DEPTH - 1]` is RF.
    stages: [FrontSlot; FRONT_DEPTH],
    /// Per-cause bubble cycles entering IF1 (via [`FrontEnd::shift`]) or
    /// created in place by a squash, indexed by [`BubbleCause::slot`].
    bubbles: [u64; 7],
}

impl FrontEnd {
    /// Creates an empty front end (drained bubbles).
    pub fn new() -> FrontEnd {
        FrontEnd { stages: [FrontSlot::Bubble(BubbleCause::Drained); FRONT_DEPTH], bubbles: [0; 7] }
    }

    /// The slot currently at the issue point (RF).
    #[inline]
    pub fn rf(&self) -> &FrontSlot {
        &self.stages[FRONT_DEPTH - 1]
    }

    /// Advances the pipe one stage, inserting `incoming` at IF1 and
    /// returning what left RF. Call only when the RF occupant issued or
    /// was a bubble.
    #[inline]
    pub fn shift(&mut self, incoming: FrontSlot) -> FrontSlot {
        if let FrontSlot::Bubble(cause) = incoming {
            self.bubbles[cause.slot()] += 1;
        }
        let outgoing = self.stages[FRONT_DEPTH - 1];
        for i in (1..FRONT_DEPTH).rev() {
            self.stages[i] = self.stages[i - 1];
        }
        self.stages[0] = incoming;
        outgoing
    }

    /// Squashes all of `ctx`'s instructions (replacing them with
    /// switch-overhead bubbles) and returns the removed slots so the
    /// caller can roll the context's fetch cursor back.
    pub fn squash_ctx(&mut self, ctx: usize) -> SquashedSlots {
        self.squash_where(|s| s.ctx == ctx, BubbleCause::Switch)
    }

    /// Squashes `ctx`'s wrong-path fetches after a branch resolves,
    /// replacing them with mispredict bubbles.
    pub fn squash_wrong_path(&mut self, ctx: usize) -> SquashedSlots {
        self.squash_where(|s| s.ctx == ctx && s.wrong_path, BubbleCause::Mispredict)
    }

    /// Flushes every instruction (the blocked scheme's full-pipe flush on a
    /// cache miss) and returns the removed slots.
    pub fn squash_all(&mut self) -> SquashedSlots {
        self.squash_where(|_| true, BubbleCause::Switch)
    }

    fn squash_where(&mut self, pred: impl Fn(&Slot) -> bool, cause: BubbleCause) -> SquashedSlots {
        interleave_obs::profile::mark("pipeline.squash");
        let mut squashed = SquashedSlots::new();
        for stage in &mut self.stages {
            if let FrontSlot::Instr(s) = stage {
                if pred(s) {
                    squashed.push(*s);
                    *stage = FrontSlot::Bubble(cause);
                    self.bubbles[cause.slot()] += 1;
                }
            }
        }
        squashed
    }

    /// Number of instructions (non-bubbles) currently in the front end.
    #[inline]
    pub fn occupancy(&self) -> usize {
        self.stages.iter().filter(|s| matches!(s, FrontSlot::Instr(_))).count()
    }

    /// Instructions of `ctx` currently in the front end.
    #[inline]
    pub fn count_ctx(&self, ctx: usize) -> usize {
        self.stages.iter().filter_map(FrontSlot::slot).filter(|s| s.ctx == ctx).count()
    }

    /// Iterates over the stages from IF1 (youngest) to RF (oldest).
    pub fn iter(&self) -> impl Iterator<Item = &FrontSlot> {
        self.stages.iter()
    }

    /// If every stage holds a bubble of the same cause, that cause.
    ///
    /// This is the precondition for the idle-skip bulk path: shifting in
    /// another bubble of the same cause leaves the pipe contents unchanged,
    /// so `n` such cycles can be charged with [`FrontEnd::record_bubbles`].
    #[inline]
    pub fn uniform_bubble(&self) -> Option<BubbleCause> {
        match self.stages[0] {
            FrontSlot::Bubble(c) if self.stages.iter().all(|s| *s == FrontSlot::Bubble(c)) => {
                Some(c)
            }
            _ => None,
        }
    }

    /// Charges `n` bubble cycles of `cause` without shifting the pipe —
    /// the bulk equivalent of `n` [`FrontEnd::shift`] calls with that
    /// bubble when the pipe is already uniformly filled with it.
    pub fn record_bubbles(&mut self, cause: BubbleCause, n: u64) {
        self.bubbles[cause.slot()] += n;
    }

    /// Bubble cycles accumulated for `cause` (entered at IF1 or created
    /// in place by a squash).
    pub fn bubble_count(&self, cause: BubbleCause) -> u64 {
        self.bubbles[cause.slot()]
    }

    /// Clears the bubble counters (pipe contents are untouched).
    pub fn reset_stats(&mut self) {
        self.bubbles = [0; 7];
    }

    /// Registers bubble counters under `pipeline.front.bubbles.*`.
    pub fn collect_metrics(&self, reg: &mut Registry) {
        for cause in BubbleCause::ALL {
            reg.counter(
                &format!("pipeline.front.bubbles.{}", cause.label()),
                self.bubbles[cause.slot()],
            );
        }
    }
}

impl Default for FrontEnd {
    fn default() -> Self {
        FrontEnd::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slot(ctx: usize, index: u64) -> FrontSlot {
        FrontSlot::Instr(Slot { ctx, fetch_index: index, wrong_path: false, mispredicted: false })
    }

    fn wrong(ctx: usize, index: u64) -> FrontSlot {
        FrontSlot::Instr(Slot { ctx, fetch_index: index, wrong_path: true, mispredicted: false })
    }

    #[test]
    fn front_slots_name_instructions_without_carrying_them() {
        // A slot is a context, a fetch index and two flags; an `Instr`
        // (64 bytes) must not creep back into the shifted pipe.
        assert!(std::mem::size_of::<FrontSlot>() <= 24);
        assert!(std::mem::size_of::<Slot>() <= 24);
    }

    #[test]
    fn instructions_take_three_cycles_to_reach_rf() {
        let mut fe = FrontEnd::new();
        fe.shift(slot(0, 0));
        assert!(fe.rf().slot().is_none());
        fe.shift(slot(0, 1));
        assert!(fe.rf().slot().is_none());
        fe.shift(slot(0, 2));
        assert_eq!(fe.rf().slot().unwrap().fetch_index, 0);
    }

    #[test]
    fn shift_returns_outgoing() {
        let mut fe = FrontEnd::new();
        for i in 0..3 {
            fe.shift(slot(0, i));
        }
        let out = fe.shift(slot(0, 3));
        assert_eq!(out.slot().unwrap().fetch_index, 0);
    }

    #[test]
    fn squash_returns_slots_for_rollback() {
        let mut fe = FrontEnd::new();
        fe.shift(slot(0, 7));
        fe.shift(slot(1, 3));
        let removed = fe.squash_all();
        assert_eq!(removed.len(), 2);
        assert!(removed.iter().any(|s| s.ctx == 0 && s.fetch_index == 7));
        assert!(removed.iter().any(|s| s.ctx == 1 && s.fetch_index == 3));
    }

    #[test]
    fn squash_ctx_is_selective() {
        let mut fe = FrontEnd::new();
        fe.shift(slot(0, 0));
        fe.shift(slot(1, 0));
        fe.shift(slot(0, 1));
        assert_eq!(fe.squash_ctx(0).len(), 2);
        assert_eq!(fe.count_ctx(0), 0);
        assert_eq!(fe.count_ctx(1), 1);
        // Squashed slots became switch bubbles.
        assert_eq!(
            fe.iter().filter(|s| matches!(s, FrontSlot::Bubble(BubbleCause::Switch))).count(),
            2
        );
    }

    #[test]
    fn squash_all_flushes() {
        let mut fe = FrontEnd::new();
        fe.shift(slot(0, 0));
        fe.shift(slot(1, 0));
        fe.shift(slot(2, 0));
        assert_eq!(fe.squash_all().len(), 3);
        assert_eq!(fe.occupancy(), 0);
    }

    #[test]
    fn squash_wrong_path_leaves_real_instrs() {
        let mut fe = FrontEnd::new();
        fe.shift(slot(0, 5));
        fe.shift(wrong(0, 6));
        fe.shift(wrong(1, 9));
        assert_eq!(fe.squash_wrong_path(0).len(), 1);
        assert_eq!(fe.count_ctx(0), 1);
        assert_eq!(fe.count_ctx(1), 1);
        assert_eq!(
            fe.iter().filter(|s| matches!(s, FrontSlot::Bubble(BubbleCause::Mispredict))).count(),
            1
        );
    }

    #[test]
    fn empty_front_has_drained_bubbles() {
        let fe = FrontEnd::new();
        assert_eq!(fe.occupancy(), 0);
        assert!(matches!(fe.rf(), FrontSlot::Bubble(BubbleCause::Drained)));
    }

    #[test]
    fn uniform_bubble_detects_homogeneous_pipe() {
        let mut fe = FrontEnd::new();
        assert_eq!(fe.uniform_bubble(), Some(BubbleCause::Drained));
        fe.shift(FrontSlot::Bubble(BubbleCause::DataWait));
        assert_eq!(fe.uniform_bubble(), None); // mixed DataWait/Drained
        fe.shift(FrontSlot::Bubble(BubbleCause::DataWait));
        fe.shift(FrontSlot::Bubble(BubbleCause::DataWait));
        assert_eq!(fe.uniform_bubble(), Some(BubbleCause::DataWait));
        fe.shift(slot(0, 0));
        assert_eq!(fe.uniform_bubble(), None);
    }

    #[test]
    fn record_bubbles_charges_in_bulk() {
        let mut fe = FrontEnd::new();
        fe.record_bubbles(BubbleCause::SyncWait, 17);
        assert_eq!(fe.bubble_count(BubbleCause::SyncWait), 17);
        assert_eq!(fe.occupancy(), 0);
    }

    #[test]
    fn bubble_counters_track_entry_and_squash() {
        let mut fe = FrontEnd::new();
        fe.shift(FrontSlot::Bubble(BubbleCause::InstMem));
        fe.shift(FrontSlot::Bubble(BubbleCause::InstMem));
        fe.shift(slot(0, 0));
        fe.shift(slot(0, 1));
        fe.squash_ctx(0); // two instrs become switch bubbles
        assert_eq!(fe.bubble_count(BubbleCause::InstMem), 2);
        assert_eq!(fe.bubble_count(BubbleCause::Switch), 2);
        assert_eq!(fe.bubble_count(BubbleCause::Drained), 0);

        let mut reg = interleave_obs::Registry::new();
        fe.collect_metrics(&mut reg);
        assert_eq!(reg.counter_value("pipeline.front.bubbles.inst_mem"), Some(2));
        assert_eq!(reg.counter_value("pipeline.front.bubbles.switch"), Some(2));

        fe.reset_stats();
        assert_eq!(fe.bubble_count(BubbleCause::Switch), 0);
    }
}
