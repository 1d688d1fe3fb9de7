//! Property-based tests for the pipeline building blocks: the scoreboard
//! must never permit a true-dependence violation, and the BTB and the
//! issue window must agree with reference models.

use interleave_isa::{Instr, Op, Reg, TimingModel};
use interleave_pipeline::{
    Btb, InFlight, IssueWindow, Scoreboard, FP_ISSUE_TO_RETIRE, INT_ISSUE_TO_RETIRE,
};
use proptest::prelude::*;
use std::collections::HashMap;

#[derive(Debug, Clone, Copy)]
struct OpSpec {
    op_sel: u8,
    dst: u8,
    src: u8,
}

fn op_spec() -> impl Strategy<Value = OpSpec> {
    (0u8..6, 0u8..16, 0u8..16).prop_map(|(op_sel, dst, src)| OpSpec { op_sel, dst, src })
}

fn materialize(spec: OpSpec, pc: u64) -> Instr {
    let dst = Reg::int(8 + spec.dst);
    let src = Reg::int(8 + spec.src);
    match spec.op_sel {
        0 => Instr::alu(pc, Some(dst), Some(src), None),
        1 => Instr::arith(pc, Op::Shift, Some(dst), Some(src), None),
        2 => Instr::arith(pc, Op::IntMul, Some(dst), Some(src), None),
        3 => Instr::arith(pc, Op::IntDiv, Some(dst), Some(src), None),
        4 => Instr::load(pc, dst, Reg::int(29), pc * 8),
        _ => Instr::store(pc, src, Reg::int(29), pc * 8),
    }
}

proptest! {
    /// In-order issue through the scoreboard never reads a register before
    /// its producer's latency has elapsed, never starts before the
    /// candidate cycle, and keeps the functional units exclusive.
    #[test]
    fn scoreboard_never_violates_dependences(
        specs in proptest::collection::vec(op_spec(), 1..80),
    ) {
        let timing = TimingModel::r4000_like();
        let mut sb = Scoreboard::new(1);
        // reference: register -> cycle its value becomes forwardable
        let mut ready: HashMap<usize, u64> = HashMap::new();
        let mut fu_free: HashMap<u8, u64> = HashMap::new();
        let mut now = 0u64;
        for (i, spec) in specs.iter().enumerate() {
            let instr = materialize(*spec, i as u64);
            let earliest = sb.earliest_issue(0, &instr, &timing, now + 1);
            prop_assert!(earliest > now, "issue before candidate");

            // True dependences respected.
            for src in instr.sources() {
                if let Some(&r) = ready.get(&src.index()) {
                    prop_assert!(earliest >= r, "RAW violation on {src}");
                }
            }
            // Structural: the unit must be free.
            if let Some(fu) = instr.op.fu() {
                if let Some(&f) = fu_free.get(&(fu as u8)) {
                    prop_assert!(earliest >= f, "structural violation on {fu:?}");
                }
            }

            sb.issue(0, &instr, &timing, earliest);
            let t = timing.timing(instr.op);
            if let Some(dst) = instr.dest() {
                ready.insert(dst.index(), earliest + u64::from(t.latency));
            }
            if let Some(fu) = instr.op.fu() {
                fu_free.insert(fu as u8, earliest + u64::from(t.issue));
            }
            now = earliest;
        }
    }

    /// Clearing a context releases every pending write it owns.
    #[test]
    fn scoreboard_clear_releases_everything(
        specs in proptest::collection::vec(op_spec(), 1..40),
        clear_at in 0usize..40,
    ) {
        let timing = TimingModel::r4000_like();
        let mut sb = Scoreboard::new(2);
        let mut now = 0u64;
        for (i, spec) in specs.iter().enumerate() {
            let instr = materialize(*spec, i as u64);
            let earliest = sb.earliest_issue(0, &instr, &timing, now + 1);
            sb.issue(0, &instr, &timing, earliest);
            now = earliest;
            if i == clear_at.min(specs.len() - 1) {
                sb.clear_context(0, now);
                for r in 0..32u8 {
                    prop_assert!(
                        sb.ready_at(0, Reg::int(r)) <= now,
                        "register r{r} still pending after clear"
                    );
                }
            }
        }
    }

    /// The scoreboard, whose clear visits only the registers written
    /// since the context's previous clear, answers every `ready_at` and
    /// `blocked_on_memory` query exactly like a reference that sweeps all
    /// 64 registers on every clear, under random issue, memory-pending
    /// and clear sequences over three contexts with time moving forward.
    #[test]
    fn scoreboard_clear_matches_full_sweep(
        ops in proptest::collection::vec(
            ((0u8..4, 0usize..3, 0u8..6), (0usize..64, 0usize..64, 0u64..40, 0u64..4)),
            1..120,
        ),
    ) {
        let timing = TimingModel::r4000_like();
        let contexts = 3;
        let mut sb = Scoreboard::new(contexts);
        // Reference per context and register: (ready cycle, mem-pending).
        let mut reference = vec![[(0u64, false); Reg::COUNT]; contexts];
        let mut now = 0u64;
        for ((kind, ctx, op_sel), (a, b, delay, step)) in ops {
            now += step;
            let (dst, src) = (Reg::from_index(a), Reg::from_index(b));
            match kind {
                0 | 1 => {
                    let instr = match op_sel {
                        0 => Instr::alu(0, Some(dst), Some(src), None),
                        1 => Instr::arith(0, Op::IntMul, Some(dst), Some(src), None),
                        2 => Instr::arith(0, Op::IntDiv, Some(dst), Some(src), None),
                        3 => Instr::arith(0, Op::FpDivDouble, Some(dst), Some(src), None),
                        4 => Instr::load(0, dst, src, 0x100),
                        _ => Instr::store(0, dst, src, 0x100),
                    };
                    let ex = now + delay;
                    sb.issue(ctx, &instr, &timing, ex);
                    if let Some(d) = instr.dest() {
                        let latency = u64::from(timing.timing(instr.op).latency);
                        reference[ctx][d.index()] = (ex + latency, false);
                    }
                }
                2 => {
                    sb.set_mem_pending(ctx, dst, now + delay);
                    if !dst.is_zero() {
                        reference[ctx][dst.index()] = (now + delay, true);
                    }
                }
                _ => {
                    sb.clear_context(ctx, now);
                    for slot in &mut reference[ctx] {
                        *slot = (slot.0.min(now), false);
                    }
                    prop_assert!(sb.check_cleared(ctx, now).is_ok());
                }
            }
            for (c, regs) in reference.iter().enumerate() {
                for (i, &(ready, _)) in regs.iter().enumerate() {
                    prop_assert_eq!(sb.ready_at(c, Reg::from_index(i)), ready, "ctx {} reg {}", c, i);
                }
                for i in 0..Reg::COUNT {
                    let reg = Reg::from_index(i);
                    let blocked = |r: Reg| regs[r.index()].1 && regs[r.index()].0 > now;
                    let reader = Instr::alu(0, None, Some(reg), None);
                    prop_assert_eq!(sb.blocked_on_memory(c, &reader, now), blocked(reg));
                    let writer = Instr::alu(0, Some(reg), None, None);
                    prop_assert_eq!(
                        sb.blocked_on_memory(c, &writer, now),
                        writer.dest().is_some_and(blocked)
                    );
                }
            }
        }
    }

    /// The BTB behaves exactly like a direct-mapped map of (index ->
    /// (tag, target)) with install-on-taken / evict-on-not-taken, for PCs
    /// at the bottom and at the very top of the address space.
    #[test]
    fn btb_matches_reference_model(
        branches in proptest::collection::vec(
            (any::<bool>(), 0u64..4096, 0u64..4, any::<bool>(), 0u64..1 << 20),
            1..200,
        ),
    ) {
        let entries = 64u64;
        let mut btb = Btb::new(entries as usize);
        let mut reference: HashMap<u64, (u64, u64)> = HashMap::new(); // index -> (tag, target)
        for (high, word, byte, taken, target) in branches {
            // The top 4,096 words end at u64::MAX itself.
            let word = if high { (u64::MAX >> 2) - 4095 + word } else { word };
            let pc = word * 4 + byte;
            let index = word % entries;
            let tag = word / entries;
            let target = target * 4;

            let model_prediction = match reference.get(&index) {
                Some(&(t, tgt)) if t == tag => Some(tgt),
                _ => None,
            };
            prop_assert_eq!(btb.predict(pc), model_prediction);
            let model_correct = match model_prediction {
                Some(tgt) => taken && tgt == target,
                None => !taken,
            };
            prop_assert_eq!(btb.predicts_correctly(pc, taken, target), model_correct);

            btb.update(pc, taken, target);
            if taken {
                reference.insert(index, (tag, target));
            } else if matches!(reference.get(&index), Some(&(t, _)) if t == tag) {
                reference.remove(&index);
            }
            prop_assert_eq!(btb.is_empty(), reference.is_empty());
        }
    }
}

/// Moves the rows of `model` matching `pred` out, in issue order — the
/// single issue-ordered vector `IssueWindow` used before its per-pipe
/// FIFOs.
fn model_take(model: &mut Vec<InFlight>, pred: impl Fn(&InFlight) -> bool) -> Vec<InFlight> {
    let (taken, kept) = model.drain(..).partition(|i| pred(i));
    *model = kept;
    taken
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `IssueWindow` matches an issue-ordered vector over random issue,
    /// retire, `squash_ctx_from` and `squash_all` sequences: same rows
    /// out, in the same order, same occupancy and squash counters.
    #[test]
    fn issue_window_matches_vector_model(
        ops in proptest::collection::vec((0u8..6, 0usize..4, any::<bool>(), 0u64..4), 1..300),
    ) {
        let mut window = IssueWindow::new();
        let mut model: Vec<InFlight> = Vec::new();
        let mut next_index = [0u64; 4];
        let mut now = 0u64;
        let mut events = 0u64;
        let mut squashed = 0u64;
        for (kind, ctx, fp, step) in ops {
            match kind {
                0..=2 => {
                    let ex = now + 1;
                    let inflight = InFlight {
                        ctx,
                        fetch_index: next_index[ctx],
                        op: if fp { Op::FpMul } else { Op::Load },
                        issued_at: ex,
                        retires_at: ex + if fp { FP_ISSUE_TO_RETIRE } else { INT_ISSUE_TO_RETIRE },
                    };
                    next_index[ctx] += 1;
                    window.issue(inflight);
                    model.push(inflight);
                }
                3 => {
                    now += step;
                    let expect = model_take(&mut model, |i| i.retires_at <= now);
                    prop_assert_eq!(window.retire_due(now), expect);
                }
                4 => {
                    let from = next_index[ctx].saturating_sub(step);
                    let expect = model_take(&mut model, |i| i.ctx == ctx && i.fetch_index >= from);
                    let got = window.squash_ctx_from(ctx, from);
                    if !expect.is_empty() {
                        events += 1;
                        squashed += expect.len() as u64;
                    }
                    prop_assert_eq!(got, expect);
                }
                _ => {
                    let expect = std::mem::take(&mut model);
                    if !expect.is_empty() {
                        events += 1;
                        squashed += expect.len() as u64;
                    }
                    prop_assert_eq!(window.squash_all(), expect);
                }
            }
            prop_assert_eq!(window.len(), model.len());
            prop_assert_eq!(window.is_empty(), model.is_empty());
            prop_assert_eq!(window.count_ctx(ctx), model.iter().filter(|i| i.ctx == ctx).count());
            prop_assert_eq!(window.stats().squash_events.get(), events);
            prop_assert_eq!(window.stats().squashed_instrs.get(), squashed);
        }
    }
}
