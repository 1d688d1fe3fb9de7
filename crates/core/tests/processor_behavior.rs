//! Behavioral tests for the multiple-context processor, including the
//! paper's Figure 2 (switch cost) and Figure 3 (four-thread timeline)
//! micro-experiments.

use interleave_core::{
    DataOutcome, InstOutcome, PerfectMemory, ProcConfig, Processor, Scheme, SystemPort, VecSource,
};
use interleave_isa::{Access, Instr, Op, Reg};
use interleave_stats::Category;

/// Addresses at or above this threshold miss (once) with a fixed service
/// time and then stay warm; everything else hits. Lets tests inject
/// misses deterministically while re-executed accesses hit as they would
/// after a real line fill.
#[derive(Debug, Clone, Default)]
struct FixedMissMemory {
    miss_latency: u64,
    warmed: std::collections::HashMap<u64, u64>,
}

const MISS_BASE: u64 = 0x8000_0000;

impl FixedMissMemory {
    fn new(miss_latency: u64) -> FixedMissMemory {
        FixedMissMemory { miss_latency, warmed: Default::default() }
    }
}

impl SystemPort for FixedMissMemory {
    fn data(&mut self, lookup_start: u64, addr: u64, _kind: Access, _ctx: usize) -> DataOutcome {
        if addr < MISS_BASE {
            return DataOutcome::Hit;
        }
        let line = addr >> 5;
        match self.warmed.get(&line) {
            Some(&ready) if lookup_start >= ready => DataOutcome::Hit,
            Some(&ready) => DataOutcome::Stall { ready_at: ready },
            None => {
                let ready = lookup_start + self.miss_latency;
                self.warmed.insert(line, ready);
                DataOutcome::Stall { ready_at: ready }
            }
        }
    }

    fn inst(&mut self, _: u64, _: u64) -> InstOutcome {
        InstOutcome::Hit
    }
}

fn alu(pc: u64) -> Instr {
    Instr::alu(pc, Some(Reg::int(1)), Some(Reg::int(2)), None)
}

fn run_to_completion<P: SystemPort>(cpu: &mut Processor<P>) -> u64 {
    let cycles = cpu.run_until_done(100_000);
    assert!(cpu.is_done(), "simulation did not complete");
    cycles
}

#[test]
fn single_context_straight_line_ipc_one() {
    let mut cpu = Processor::new(ProcConfig::new(Scheme::Single, 1), PerfectMemory);
    cpu.attach(0, Box::new(VecSource::new((0..100).map(|i| alu(i * 4)))));
    run_to_completion(&mut cpu);
    assert_eq!(cpu.retired(0), 100);
    // 100 busy cycles; everything else is pipeline fill/drain.
    assert_eq!(cpu.breakdown().get(Category::Busy), 100);
    assert_eq!(cpu.breakdown().instr_stall(), 0);
}

#[test]
fn load_use_stalls_two_cycles() {
    let mut cpu = Processor::new(ProcConfig::new(Scheme::Single, 1), PerfectMemory);
    let prog = vec![
        Instr::load(0, Reg::int(4), Reg::int(29), 0x100),
        Instr::alu(4, Some(Reg::int(5)), Some(Reg::int(4)), None),
    ];
    cpu.attach(0, Box::new(VecSource::new(prog)));
    run_to_completion(&mut cpu);
    // Load latency 3: a back-to-back consumer stalls 2 cycles (the two
    // delay slots of Section 4.1).
    assert_eq!(cpu.breakdown().get(Category::InstrShort), 2);
    assert_eq!(cpu.breakdown().get(Category::Busy), 2);
}

#[test]
fn fp_divide_consumer_is_long_stall() {
    let mut cpu = Processor::new(ProcConfig::new(Scheme::Single, 1), PerfectMemory);
    let prog = vec![
        Instr::arith(0, Op::FpDivDouble, Some(Reg::fp(1)), Some(Reg::fp(2)), Some(Reg::fp(3))),
        Instr::arith(4, Op::FpAdd, Some(Reg::fp(4)), Some(Reg::fp(1)), None),
    ];
    cpu.attach(0, Box::new(VecSource::new(prog)));
    run_to_completion(&mut cpu);
    assert_eq!(cpu.breakdown().get(Category::InstrLong), 60);
    assert_eq!(cpu.breakdown().get(Category::InstrShort), 0);
}

#[test]
fn mispredict_costs_three_cycles() {
    let mut cpu = Processor::new(ProcConfig::new(Scheme::Single, 1), PerfectMemory);
    let prog = vec![
        alu(0),
        Instr::branch(4, None, true, 0x100), // cold BTB: mispredicted
        alu(0x100),
        alu(0x104),
    ];
    cpu.attach(0, Box::new(VecSource::new(prog)));
    run_to_completion(&mut cpu);
    assert_eq!(cpu.retired(0), 4);
    // Three wrong-path bubbles charged as short instruction stalls.
    assert_eq!(cpu.breakdown().get(Category::InstrShort), 3);
}

#[test]
fn predicted_branch_is_free() {
    let mut cpu = Processor::new(ProcConfig::new(Scheme::Single, 1), PerfectMemory);
    // Same branch twice: first time trains the BTB, second is free.
    let prog = vec![
        Instr::branch(4, None, true, 0x100),
        alu(0x100),
        Instr::branch(4, None, true, 0x100),
        alu(0x100),
        alu(0x104),
    ];
    cpu.attach(0, Box::new(VecSource::new(prog)));
    run_to_completion(&mut cpu);
    assert_eq!(cpu.breakdown().get(Category::InstrShort), 3); // first only
}

#[test]
fn not_taken_branches_never_mispredict_cold() {
    let mut cpu = Processor::new(ProcConfig::new(Scheme::Single, 1), PerfectMemory);
    let prog: Vec<Instr> = (0..10).map(|i| Instr::branch(i * 4, None, false, 0x1000)).collect();
    cpu.attach(0, Box::new(VecSource::new(prog)));
    run_to_completion(&mut cpu);
    assert_eq!(cpu.breakdown().get(Category::InstrShort), 0);
    assert_eq!(cpu.breakdown().get(Category::Busy), 10);
}

/// Paper Figure 2: with four contexts, a cache miss costs the blocked
/// scheme ~7 cycles (full flush) but the interleaved scheme only the
/// missing context's pipeline occupancy (~2 cycles).
#[test]
fn figure2_switch_costs() {
    let build = |scheme: Scheme| {
        let mut cpu = Processor::new(ProcConfig::new(scheme, 4), FixedMissMemory::new(34));
        // Context 0: work, then a miss, then more work.
        let mut prog = vec![alu(0), alu(4)];
        prog.push(Instr::load(8, Reg::int(4), Reg::int(29), MISS_BASE));
        prog.extend((0..8).map(|i| alu(0x20 + i * 4)));
        cpu.attach(0, Box::new(VecSource::new(prog)));
        // Other contexts: plenty of independent work.
        for c in 1..4 {
            cpu.attach(
                c,
                Box::new(VecSource::new((0..40).map(move |i| alu(0x1000 * c as u64 + i * 4)))),
            );
        }
        cpu
    };

    let mut blocked = build(Scheme::Blocked);
    run_to_completion(&mut blocked);
    let blocked_switch = blocked.breakdown().get(Category::Switch);

    let mut interleaved = build(Scheme::Interleaved);
    run_to_completion(&mut interleaved);
    let interleaved_switch = interleaved.breakdown().get(Category::Switch);

    assert!(
        (6..=8).contains(&blocked_switch),
        "blocked switch cost should be ~7, got {blocked_switch}"
    );
    assert!(
        (1..=3).contains(&interleaved_switch),
        "interleaved switch cost should be ~2, got {interleaved_switch}"
    );
}

/// Paper Figure 3: four threads (A: 2 instrs; B: 3 with a 2-cycle
/// dependency; C: 4; D: 6), each ending with a cache miss. The interleaved
/// scheme finishes well before the blocked scheme.
#[test]
fn figure3_interleaved_beats_blocked() {
    let threads = || {
        let a = vec![alu(0x100), Instr::load(0x104, Reg::int(4), Reg::int(29), MISS_BASE)];
        let b = vec![
            Instr::load(0x200, Reg::int(4), Reg::int(29), 0x10), // hit, latency 3
            Instr::alu(0x204, Some(Reg::int(5)), Some(Reg::int(4)), None), // 2-cycle dep
            Instr::load(0x208, Reg::int(6), Reg::int(29), MISS_BASE + 0x40),
        ];
        let c = vec![
            alu(0x300),
            alu(0x304),
            alu(0x308),
            Instr::load(0x30C, Reg::int(4), Reg::int(29), MISS_BASE + 0x80),
        ];
        let d = vec![
            alu(0x400),
            alu(0x404),
            alu(0x408),
            alu(0x40C),
            alu(0x410),
            Instr::load(0x414, Reg::int(4), Reg::int(29), MISS_BASE + 0xC0),
        ];
        [a, b, c, d]
    };

    let run = |scheme: Scheme| {
        let mut cpu = Processor::new(ProcConfig::new(scheme, 4), FixedMissMemory::new(20));
        for (i, t) in threads().into_iter().enumerate() {
            cpu.attach(i, Box::new(VecSource::new(t)));
        }
        run_to_completion(&mut cpu)
    };

    let blocked = run(Scheme::Blocked);
    let interleaved = run(Scheme::Interleaved);
    assert!(
        interleaved < blocked,
        "interleaved ({interleaved}) should finish before blocked ({blocked})"
    );
}

/// The interleaved scheme hides pipeline dependencies by spacing out each
/// context's instructions (Section 3).
#[test]
fn interleaving_hides_pipeline_dependencies() {
    // A chain of dependent shifts: each stalls 1 cycle on a single context.
    let chain = |base: u64| {
        VecSource::new((0..50).map(move |i| {
            Instr::arith(base + i * 4, Op::Shift, Some(Reg::int(3)), Some(Reg::int(3)), None)
        }))
    };

    let mut single = Processor::new(ProcConfig::new(Scheme::Single, 1), PerfectMemory);
    single.attach(0, Box::new(chain(0)));
    run_to_completion(&mut single);
    let single_stall = single.breakdown().instr_stall();
    assert!(single_stall >= 49, "dependent shifts should stall a single context");

    let mut inter = Processor::new(ProcConfig::new(Scheme::Interleaved, 2), PerfectMemory);
    inter.attach(0, Box::new(chain(0)));
    inter.attach(1, Box::new(chain(0x1000)));
    run_to_completion(&mut inter);
    // Interleaving two chains spaces dependent instructions apart.
    assert_eq!(inter.breakdown().instr_stall(), 0);
    assert_eq!(inter.breakdown().get(Category::Busy), 100);
}

/// A miss-detect squash of the context holding the FP divider releases
/// the divider early; another context's divide already stalled in RF on
/// that divider must issue at once, not when the squashed reservation
/// would have ended (the cached RF scoreboard verdict is dropped on
/// every handled event, and validation re-checks it each cycle). With
/// validation off, the stalled divide is fast-forwarded instead, and the
/// frozen stretch must end at the miss-detect event.
#[test]
fn squash_releases_divider_to_context_stalled_in_rf() {
    for validate in [true, false] {
        let mut cfg = ProcConfig::new(Scheme::Interleaved, 2);
        cfg.validate = validate;
        let mut cpu = Processor::new(cfg, FixedMissMemory::new(200));
        let fdiv = |pc| Instr::arith(pc, Op::FpDivDouble, Some(Reg::fp(1)), Some(Reg::fp(2)), None);
        // ctx0's divide takes the divider right behind its missing load;
        // ctx1's divide reaches RF next and stalls on it.
        let ctx0 = vec![Instr::load(0, Reg::int(4), Reg::int(29), MISS_BASE), fdiv(4)];
        cpu.attach(0, Box::new(VecSource::new(ctx0)));
        cpu.attach(1, Box::new(VecSource::new(vec![alu(0x100), fdiv(0x104)])));
        cpu.run_cycles(20);
        // The load's miss is detected a few cycles later, freeing the
        // divider: ctx1's divide issues then and leaves its pipe well
        // before cycle 20 instead of waiting out the 61-cycle reservation.
        assert_eq!(cpu.retired(1), 2, "validate={validate}");
        assert_eq!(cpu.retired(0), 0, "ctx0 is still waiting on its miss");
        run_to_completion(&mut cpu);
        assert_eq!(cpu.retired(0), 2);
    }
}

#[test]
fn backoff_on_interleaved_yields_to_other_context() {
    let mut cpu = Processor::new(ProcConfig::new(Scheme::Interleaved, 2), PerfectMemory);
    // Context 0 backs off for 30 cycles after one instruction.
    cpu.attach(0, Box::new(VecSource::new(vec![alu(0), Instr::backoff(4, 30), alu(8)])));
    cpu.attach(1, Box::new(VecSource::new((0..40).map(|i| alu(0x1000 + i * 4)))));
    run_to_completion(&mut cpu);
    // All work retires; backoff cost is a single switch cycle.
    assert_eq!(cpu.retired(0), 3);
    assert_eq!(cpu.retired(1), 40);
    assert_eq!(cpu.breakdown().get(Category::Switch), 1);
}

#[test]
fn backoff_on_single_is_a_nop() {
    let mut cpu = Processor::new(ProcConfig::new(Scheme::Single, 1), PerfectMemory);
    cpu.attach(0, Box::new(VecSource::new(vec![alu(0), Instr::backoff(4, 30), alu(8)])));
    let cycles = run_to_completion(&mut cpu);
    assert_eq!(cpu.retired(0), 3);
    assert!(cycles < 15, "backoff must not delay the single-context scheme");
}

#[test]
fn explicit_switch_on_blocked_costs_three() {
    let mut cpu = Processor::new(ProcConfig::new(Scheme::Blocked, 2), PerfectMemory);
    cpu.attach(0, Box::new(VecSource::new(vec![alu(0), Instr::backoff(4, 40), alu(8)])));
    cpu.attach(1, Box::new(VecSource::new((0..30).map(|i| alu(0x1000 + i * 4)))));
    run_to_completion(&mut cpu);
    // Cost 3: the switch instruction's slot plus the two flushed fetch
    // stages behind it (Table 4).
    assert_eq!(cpu.breakdown().get(Category::Switch), 3);
    assert_eq!(cpu.retired(0), 3);
    assert_eq!(cpu.retired(1), 30);
}

#[test]
fn single_context_overlaps_independent_work_under_miss() {
    let mut cpu = Processor::new(ProcConfig::new(Scheme::Single, 1), FixedMissMemory::new(34));
    // Load misses; ten independent instructions follow, then a consumer.
    let mut prog = vec![Instr::load(0, Reg::int(4), Reg::int(29), MISS_BASE)];
    prog.extend((0..10).map(|i| alu(0x100 + i * 4)));
    prog.push(Instr::alu(0x200, Some(Reg::int(5)), Some(Reg::int(4)), None));
    cpu.attach(0, Box::new(VecSource::new(prog)));
    run_to_completion(&mut cpu);
    // The independent work overlapped with the miss; the consumer's wait is
    // charged to data memory.
    assert_eq!(cpu.breakdown().get(Category::Busy), 12);
    let data = cpu.breakdown().get(Category::DataMem);
    assert!((20..=32).contains(&data), "expected partial overlap, got {data} data-stall cycles");
}

#[test]
fn interleaved_with_one_thread_matches_single_on_clean_code() {
    let prog: Vec<Instr> = (0..200).map(|i| alu(i * 4)).collect();

    let mut single = Processor::new(ProcConfig::new(Scheme::Single, 1), PerfectMemory);
    single.attach(0, Box::new(VecSource::new(prog.clone())));
    let single_cycles = run_to_completion(&mut single);

    let mut inter = Processor::new(ProcConfig::new(Scheme::Interleaved, 4), PerfectMemory);
    inter.attach(0, Box::new(VecSource::new(prog)));
    let inter_cycles = run_to_completion(&mut inter);

    assert_eq!(
        single_cycles, inter_cycles,
        "an interleaved processor with one loaded context must match single-context performance"
    );
}

#[test]
fn retirement_is_exact_under_misses_and_squashes() {
    for scheme in [Scheme::Blocked, Scheme::Interleaved] {
        let mut cpu = Processor::new(ProcConfig::new(scheme, 3), FixedMissMemory::new(17));
        for c in 0..3 {
            let base = 0x1000 * (c as u64 + 1);
            let prog: Vec<Instr> = (0..60)
                .map(|i| {
                    if i % 7 == 3 {
                        Instr::load(base + i * 4, Reg::int(4), Reg::int(29), MISS_BASE + i * 64)
                    } else {
                        alu(base + i * 4)
                    }
                })
                .collect();
            cpu.attach(c, Box::new(VecSource::new(prog)));
        }
        run_to_completion(&mut cpu);
        for c in 0..3 {
            assert_eq!(cpu.retired(c), 60, "{scheme:?} context {c} retired count");
        }
    }
}

#[test]
fn breakdown_accounts_every_cycle() {
    let mut cpu = Processor::new(ProcConfig::new(Scheme::Interleaved, 2), FixedMissMemory::new(21));
    cpu.attach(
        0,
        Box::new(VecSource::new(vec![
            alu(0),
            Instr::load(4, Reg::int(4), Reg::int(29), MISS_BASE),
            Instr::alu(8, Some(Reg::int(5)), Some(Reg::int(4)), None),
        ])),
    );
    cpu.attach(1, Box::new(VecSource::new((0..10).map(|i| alu(0x1000 + i * 4)))));
    let cycles = run_to_completion(&mut cpu);
    assert_eq!(
        cpu.breakdown().total() + cpu.drained_cycles(),
        cycles,
        "every cycle must be attributed exactly once"
    );
}

/// Paper Section 2.1: a fine-grained (HEP-like) processor without
/// pipeline interlocks issues one instruction per thread per pipeline
/// depth — single-thread performance is extremely poor.
#[test]
fn fine_grained_single_thread_is_pipeline_depth_limited() {
    let mut fine = Processor::new(ProcConfig::new(Scheme::FineGrained, 8), PerfectMemory);
    fine.attach(0, Box::new(VecSource::new((0..50).map(|i| alu(i * 4)))));
    let fine_cycles = run_to_completion(&mut fine);

    let mut single = Processor::new(ProcConfig::new(Scheme::Single, 1), PerfectMemory);
    single.attach(0, Box::new(VecSource::new((0..50).map(|i| alu(i * 4)))));
    let single_cycles = run_to_completion(&mut single);

    assert!(
        fine_cycles >= single_cycles * 5,
        "fine-grained single-thread ({fine_cycles}) should be several times slower than \
         the interlocked pipeline ({single_cycles})"
    );
}

/// With enough threads the fine-grained machine fills its pipeline again.
#[test]
fn fine_grained_needs_many_threads_to_fill_the_pipeline() {
    let run = |threads: usize| {
        let mut cpu = Processor::new(ProcConfig::new(Scheme::FineGrained, 8), PerfectMemory);
        for c in 0..threads {
            let base = 0x1000 * c as u64;
            cpu.attach(c, Box::new(VecSource::new((0..50).map(move |i| alu(base + i * 4)))));
        }
        let cycles = run_to_completion(&mut cpu);
        (threads * 50) as f64 / cycles as f64
    };
    let two = run(2);
    let eight = run(8);
    assert!(eight > two * 2.5, "throughput should scale with threads ({two:.2} -> {eight:.2})");
    assert!(eight > 0.8, "eight threads should nearly fill the pipeline, got {eight:.2}");
}

/// Fine-grained contexts never have more than one instruction in flight.
#[test]
fn fine_grained_one_instruction_per_context() {
    let mut cpu = Processor::new(ProcConfig::new(Scheme::FineGrained, 4), PerfectMemory);
    cpu.set_trace(true);
    for c in 0..4 {
        let base = 0x1000 * c as u64;
        cpu.attach(c, Box::new(VecSource::new((0..20).map(move |i| alu(base + i * 4)))));
    }
    run_to_completion(&mut cpu);
    // Issues from one context must be at least 6 cycles apart (retire
    // before next fetch; fetch-to-issue adds the front-end depth).
    let mut last_issue = [None::<usize>; 4];
    for (cycle, record) in cpu.trace().iter().enumerate() {
        if let interleave_core::IssueRecord::Issued { ctx, .. } = record {
            if let Some(prev) = last_issue[*ctx] {
                assert!(cycle - prev >= 6, "ctx {ctx} issued at {prev} and {cycle}");
            }
            last_issue[*ctx] = Some(cycle);
        }
    }
}

#[test]
fn trace_records_issue_slots() {
    let mut cpu = Processor::new(ProcConfig::new(Scheme::Interleaved, 2), PerfectMemory);
    cpu.set_trace(true);
    cpu.attach(0, Box::new(VecSource::new((0..5).map(|i| alu(i * 4)))));
    cpu.attach(1, Box::new(VecSource::new((0..5).map(|i| alu(0x100 + i * 4)))));
    run_to_completion(&mut cpu);
    let issues: Vec<usize> = cpu
        .trace()
        .iter()
        .filter_map(|r| match r {
            interleave_core::IssueRecord::Issued { ctx, .. } => Some(*ctx),
            _ => None,
        })
        .collect();
    assert_eq!(issues.len(), 10);
    // Round-robin: contexts alternate.
    for pair in issues.windows(2) {
        assert_ne!(pair[0], pair[1], "round-robin issue should alternate contexts");
    }
}

#[test]
fn prefetch_never_blocks_and_warms_the_line() {
    let mut cpu = Processor::new(ProcConfig::new(Scheme::Single, 1), FixedMissMemory::new(30));
    let prog = vec![Instr::prefetch(0, Reg::int(29), MISS_BASE), alu(4), alu(8), alu(12)];
    cpu.attach(0, Box::new(VecSource::new(prog)));
    let cycles = run_to_completion(&mut cpu);
    // The prefetch retires like a one-cycle op; nothing waits on it.
    assert!(cycles < 15, "prefetch must not block, took {cycles}");
    assert_eq!(cpu.breakdown().get(Category::DataMem), 0);
}

#[test]
fn write_buffer_policy_removes_store_switches() {
    let run = |policy| {
        let mut cfg = ProcConfig::new(Scheme::Interleaved, 2);
        cfg.store_policy = policy;
        let mut cpu = Processor::new(cfg, FixedMissMemory::new(25));
        let mut prog = vec![alu(0)];
        prog.push(Instr::store(4, Reg::int(2), Reg::int(29), MISS_BASE));
        prog.extend((0..6).map(|i| alu(8 + i * 4)));
        cpu.attach(0, Box::new(VecSource::new(prog)));
        cpu.attach(1, Box::new(VecSource::new((0..20).map(|i| alu(0x1000 + i * 4)))));
        run_to_completion(&mut cpu);
        cpu.breakdown().get(Category::Switch)
    };
    let switching = run(interleave_core::StorePolicy::SwitchOnMiss);
    let buffered = run(interleave_core::StorePolicy::WriteBuffer);
    assert!(switching > 0, "a store miss should switch under the default policy");
    assert_eq!(buffered, 0, "a buffered store must not switch");
}

#[test]
fn run_lengths_reflect_miss_spacing() {
    let mut cpu = Processor::new(ProcConfig::new(Scheme::Interleaved, 2), FixedMissMemory::new(20));
    // Context 0: a miss every 5 instructions, three times.
    let mut prog = Vec::new();
    for burst in 0..3u64 {
        for i in 0..4u64 {
            prog.push(alu(burst * 0x40 + i * 4));
        }
        prog.push(Instr::load(
            burst * 0x40 + 16,
            Reg::int(4),
            Reg::int(29),
            MISS_BASE + burst * 64,
        ));
    }
    cpu.attach(0, Box::new(VecSource::new(prog)));
    cpu.attach(1, Box::new(VecSource::new((0..40).map(|i| alu(0x1000 + i * 4)))));
    run_to_completion(&mut cpu);
    let rl = cpu.run_lengths();
    assert_eq!(rl.count(), 3, "three unavailability events");
    // Slightly above 5: issues squashed at the miss are re-counted when
    // they re-execute (documented on Processor::run_lengths).
    assert!(rl.mean() >= 4.0 && rl.mean() <= 8.0, "mean run ~5-7, got {}", rl.mean());
}

#[test]
fn swap_unit_preserves_application_progress() {
    use interleave_core::FetchUnit;
    let mut cpu = Processor::new(ProcConfig::new(Scheme::Single, 1), PerfectMemory);
    cpu.attach(0, Box::new(VecSource::new((0..30).map(|i| alu(i * 4)))));
    cpu.run_cycles(12); // partway through app A
    let a_done = cpu.retired(0);
    assert!(a_done > 0 && a_done < 30);
    // Swap in app B; park A.
    let parked_a = cpu.swap_unit(
        0,
        FetchUnit::new(Box::new(VecSource::new((0..10).map(|i| alu(0x1000 + i * 4))))),
    );
    cpu.run_cycles(40); // B finishes
    assert_eq!(cpu.retired(0), 10);
    // Swap A back; it must finish exactly its remaining instructions.
    let _parked_b = cpu.swap_unit(0, parked_a);
    run_to_completion(&mut cpu);
    assert_eq!(a_done + cpu.retired(0), 30, "no instruction lost or repeated across swaps");
}

#[test]
#[should_panic]
fn waking_a_non_sync_context_panics() {
    let mut cpu = Processor::new(ProcConfig::new(Scheme::Interleaved, 2), PerfectMemory);
    cpu.attach(0, Box::new(VecSource::new(vec![alu(0)])));
    cpu.wake_context(0);
}

#[test]
fn blocked_runs_one_context_until_miss() {
    let mut cpu = Processor::new(ProcConfig::new(Scheme::Blocked, 2), PerfectMemory);
    cpu.set_trace(true);
    cpu.attach(0, Box::new(VecSource::new((0..6).map(|i| alu(i * 4)))));
    cpu.attach(1, Box::new(VecSource::new((0..6).map(|i| alu(0x100 + i * 4)))));
    run_to_completion(&mut cpu);
    let issues: Vec<usize> = cpu
        .trace()
        .iter()
        .filter_map(|r| match r {
            interleave_core::IssueRecord::Issued { ctx, .. } => Some(*ctx),
            _ => None,
        })
        .collect();
    // With no misses, the blocked scheme never leaves context 0 until its
    // stream ends.
    assert_eq!(&issues[..6], &[0, 0, 0, 0, 0, 0]);
}

#[test]
fn frozen_rf_stall_fast_forward_is_bit_identical() {
    // A double divide feeding an FP add: the add sits in RF for most of
    // the divide's latency, and the other context queues behind it.
    let program = |base: u64| {
        let (f1, f2, f3) = (Reg::fp(1), Reg::fp(2), Reg::fp(3));
        VecSource::new([
            Instr::arith(base, Op::FpDivDouble, Some(f1), Some(f2), Some(f3)),
            Instr::arith(base + 4, Op::FpAdd, Some(f2), Some(f1), None),
            alu(base + 8),
            alu(base + 12),
        ])
    };
    let run = |idle_skip: bool| {
        let mut cfg = ProcConfig::new(Scheme::Interleaved, 2);
        cfg.idle_skip = idle_skip;
        cfg.validate = false;
        let mut cpu = Processor::new(cfg, PerfectMemory);
        cpu.attach(0, Box::new(program(0)));
        cpu.attach(1, Box::new(program(0x1000)));
        let mut frozen = 0;
        while !cpu.is_done() {
            frozen += u64::from(cpu.stall_bound().is_some_and(|t| t > cpu.now() + 1));
            if !cpu.fast_forward(u64::MAX) {
                cpu.tick();
            }
        }
        (cpu.now(), cpu.breakdown().clone(), frozen)
    };
    let (cycles, breakdown, frozen) = run(true);
    assert!(frozen > 0, "the dependent add must freeze the RF");
    assert!(breakdown.get(Category::InstrLong) > 20, "{breakdown:?}");
    let (cycles_off, breakdown_off, _) = run(false);
    assert_eq!((cycles, breakdown), (cycles_off, breakdown_off));
}
