//! Integration tests asserting the paper's qualitative claims at reduced
//! scale (the full tables and figures are printed by `interleave-sim
//! sweep --artifact NAME`; see `tests/artifacts.rs`).

use interleave::core::{ProcConfig, Processor, Scheme, VecSource};
use interleave::isa::{Instr, Reg};
use interleave::mem::{MemConfig, UniMemSystem};
use interleave::stats::Category;

fn alu(pc: u64) -> Instr {
    Instr::alu(pc, Some(Reg::int(1)), Some(Reg::int(2)), None)
}

fn machine(scheme: Scheme, contexts: usize) -> Processor<UniMemSystem> {
    let mut cfg = MemConfig::workstation();
    cfg.tlbs_enabled = false;
    let mut cpu = Processor::new(ProcConfig::new(scheme, contexts), UniMemSystem::new(cfg));
    for pc in (0..0x8000u64).step_by(32) {
        cpu.port_mut().preload_inst(pc);
        cpu.port_mut().preload_inst(0x1000_0000 + pc);
    }
    cpu
}

/// Section 2.2 / Figure 2: the blocked scheme's cache-miss switch costs
/// about the pipeline depth; Section 3: the interleaved scheme's costs
/// only that context's pipeline occupancy.
#[test]
fn claim_switch_costs() {
    let cost = |scheme| {
        let mut cpu = machine(scheme, 4);
        let mut prog = vec![alu(0x100), alu(0x104)];
        prog.push(Instr::load(0x108, Reg::int(4), Reg::int(29), 0x8000_0000));
        prog.extend((0..8).map(|i| alu(0x10C + i * 4)));
        cpu.attach(0, Box::new(VecSource::new(prog)));
        for c in 1..4 {
            let base = 0x1000_0000 + 0x400 * c as u64;
            cpu.attach(c, Box::new(VecSource::new((0..40).map(move |i| alu(base + i * 4)))));
        }
        cpu.run_until_done(100_000);
        assert!(cpu.is_done());
        cpu.breakdown().get(Category::Switch)
    };
    let blocked = cost(Scheme::Blocked);
    let interleaved = cost(Scheme::Interleaved);
    assert_eq!(blocked, 7, "blocked scheme should pay the pipeline depth");
    assert!(interleaved <= 3, "interleaved cost should be tiny, got {interleaved}");
}

/// Section 3: interleaving contexts hides pipeline dependencies that
/// would stall a single context.
#[test]
fn claim_dependency_hiding() {
    let chain = |base: u64| {
        VecSource::new((0..64).map(move |i| {
            Instr::arith(
                base + i * 4,
                interleave::isa::Op::FpAdd,
                Some(Reg::fp(3)),
                Some(Reg::fp(3)),
                None,
            )
        }))
    };
    let mut single = machine(Scheme::Single, 1);
    single.attach(0, Box::new(chain(0x100)));
    single.run_until_done(100_000);
    let single_stall = single.breakdown().instr_stall();
    // FP add latency 5: back-to-back dependent adds stall 4 cycles each.
    assert!(single_stall >= 4 * 60, "single context should stall, got {single_stall}");

    let mut inter = machine(Scheme::Interleaved, 4);
    for c in 0..4 {
        inter.attach(c, Box::new(chain(0x1000_0000 + 0x400 * c as u64)));
    }
    inter.run_until_done(100_000);
    // Four interleaved chains space the dependent adds four cycles apart,
    // leaving one residual stall cycle per add (latency 5 needs five
    // contexts to hide completely).
    let inter_stall = inter.breakdown().instr_stall();
    assert!(
        inter_stall <= single_stall / 3,
        "interleaving should hide most dependency stalls ({inter_stall} vs {single_stall})"
    );
}

/// Introduction: the multiple-context processor must run a single thread
/// as fast as the single-context processor.
#[test]
fn claim_single_thread_parity() {
    let prog: Vec<Instr> = (0..512).map(|i| alu(0x100 + i * 4)).collect();
    let run = |scheme, contexts| {
        let mut cpu = machine(scheme, contexts);
        cpu.attach(0, Box::new(VecSource::new(prog.clone())));
        cpu.run_until_done(100_000)
    };
    let single = run(Scheme::Single, 1);
    let interleaved = run(Scheme::Interleaved, 4);
    assert_eq!(
        single, interleaved,
        "one loaded context on the interleaved processor must match single-context speed"
    );
}

/// Section 4.2 / Table 4: the backoff instruction tolerates long
/// instruction latencies (FP divides) on the interleaved scheme.
#[test]
fn claim_backoff_tolerates_divides() {
    let divider_thread = |base: u64| {
        let mut prog = Vec::new();
        for i in 0..8u64 {
            let pc = base + i * 16;
            prog.push(Instr::arith(
                pc,
                interleave::isa::Op::FpDivDouble,
                Some(Reg::fp(1)),
                Some(Reg::fp(2)),
                None,
            ));
            prog.push(Instr::backoff(pc + 4, 57));
            prog.push(Instr::arith(
                pc + 8,
                interleave::isa::Op::FpAdd,
                Some(Reg::fp(3)),
                Some(Reg::fp(1)),
                None,
            ));
        }
        VecSource::new(prog)
    };
    let filler = |base: u64| VecSource::new((0..600).map(move |i| alu(base + i * 4)));

    let mut cpu = machine(Scheme::Interleaved, 2);
    cpu.attach(0, Box::new(divider_thread(0x100)));
    cpu.attach(1, Box::new(filler(0x1000_0000)));
    cpu.run_until_done(100_000);
    assert!(cpu.is_done());
    // The filler work almost completely covers the divide latencies: long
    // instruction stalls nearly vanish.
    let long = cpu.breakdown().get(Category::InstrLong);
    assert!(long < 40, "backoff should cover the divide latency, got {long} long-stall cycles");
}
