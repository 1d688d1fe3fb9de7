//! Host-throughput benchmark for the event-driven hot loop.
//!
//! Two measurements, each isolating one hot-path optimisation:
//!
//! 1. **Idle-cycle skipping.** Runs an idle-heavy workload — a few
//!    contexts issuing strided loads that always miss all the way to
//!    memory, so the processor spends most simulated cycles with an
//!    empty pipe waiting on fills — once with idle-cycle skipping
//!    enabled and once with it disabled, on the same instruction
//!    streams. Asserts the two runs are cycle-identical (skipping is
//!    purely a host optimisation) and that skipping delivers at least
//!    a 2x simulated-cycles-per-second improvement.
//!
//! 2. **Batched workload generation.** Drives the synthetic generator
//!    directly — no processor attached — pulling the same stream once
//!    instruction-by-instruction (`next_instr`) and once in
//!    [`BATCH`]-sized runs (`next_run`), through `Box<dyn InstrSource>`
//!    with the host-phase profiler enabled, exactly as the fetch unit
//!    calls it in a profiled CI smoke: the per-call costs batching
//!    amortizes are the virtual dispatch, the profiler marks, and the
//!    batch-length histogram update. Asserts the streams are identical
//!    (batching is call-granularity-invisible) and that the batched
//!    form is faster: the two forms' trials alternate, so a slow phase
//!    of a shared host lands on both, and their medians are compared.
//!
//! 3. **Per-cycle bookkeeping kernels.** Times the constant-time
//!    structures the processor touches every simulated cycle in
//!    isolation — fetch-unit advance, in-place read (`at`) and
//!    out-of-order retire, and issue-window issue and retire — and
//!    prints ns per operation (median of three trials). No timing is
//!    asserted (the fetch kernel checksums the instructions it reads):
//!    these numbers are for comparing revisions on one host. The
//!    memory hierarchy's per-access cost (MSHR and TLB included) is
//!    timed by the repo benchmark's `mem_replay` layer, not here.

use std::hint::black_box;
use std::time::Instant;

use interleave_core::{FetchUnit, InstrSource, ProcConfig, Processor, Scheme, VecSource};
use interleave_isa::{Instr, Op, Reg};
use interleave_mem::{MemConfig, UniMemSystem};
use interleave_pipeline::{InFlight, IssueWindow, FP_ISSUE_TO_RETIRE, INT_ISSUE_TO_RETIRE};
use interleave_workloads::{AppProfile, SyntheticApp};

const CONTEXTS: usize = 2;
const LOADS_PER_CONTEXT: u64 = 20_000;
const CYCLE_LIMIT: u64 = 50_000_000;

/// A stream of strided loads that never reuse a cache line, so every
/// access misses to memory and the context waits out the full fill
/// latency with nothing else to run.
fn miss_stream(ctx: usize) -> VecSource {
    let base = 0x100_0000 * (ctx as u64 + 1);
    VecSource::new(
        (0..LOADS_PER_CONTEXT)
            .map(move |i| Instr::load(base + i * 4, Reg::int(1), Reg::int(2), base + i * 4096)),
    )
}

/// Workstation memory with remote-memory-class bank latency, so each
/// miss leaves the processor idle for hundreds of cycles.
fn slow_memory() -> MemConfig {
    let mut mem = MemConfig::workstation();
    mem.path.bank_access = 400;
    mem
}

/// Runs the workload and returns (simulated cycles, host seconds).
fn run(idle_skip: bool) -> (u64, f64) {
    let mut cfg = ProcConfig::new(Scheme::Interleaved, CONTEXTS);
    cfg.idle_skip = idle_skip;
    let mut cpu = Processor::new(cfg, UniMemSystem::new(slow_memory()));
    for ctx in 0..CONTEXTS {
        cpu.attach(ctx, Box::new(miss_stream(ctx)));
    }
    let started = Instant::now();
    cpu.run_until_done(CYCLE_LIMIT);
    let wall = started.elapsed().as_secs_f64();
    assert!(cpu.is_done(), "workload must finish within the cycle limit");
    (cpu.now(), wall)
}

/// Instructions pulled per `next_run` call in the batching benchmark —
/// the fetch unit's refill run size.
const BATCH: usize = 32;
const GEN_INSTRS: u64 = 2_000_000;
const GEN_TRIALS: usize = 3;
/// Trials of each generation form in the batching check, alternated.
const GEN_PAIRS: usize = 5;

/// Boxed like [`Processor::attach`] takes it: every pull goes through
/// dynamic dispatch, as in the real fetch path.
fn gen_app() -> Box<dyn InstrSource> {
    Box::new(SyntheticApp::new(AppProfile::base("hotloop"), 0, 42).with_limit(GEN_INSTRS))
}

/// Drains a fresh generator one instruction at a time; returns (stream
/// checksum, host seconds).
fn gen_single() -> (u64, f64) {
    let mut app = gen_app();
    let started = Instant::now();
    let mut sum = 0u64;
    while let Some(instr) = app.next_instr() {
        sum = sum.wrapping_mul(31).wrapping_add(instr.pc);
    }
    (sum, started.elapsed().as_secs_f64())
}

/// Drains the identical stream in `BATCH`-sized runs.
fn gen_batched() -> (u64, f64) {
    let mut app = gen_app();
    let started = Instant::now();
    let mut sum = 0u64;
    let mut buf = Vec::with_capacity(BATCH);
    loop {
        buf.clear();
        let got = app.next_run(&mut buf, BATCH);
        for instr in &buf {
            sum = sum.wrapping_mul(31).wrapping_add(instr.pc);
        }
        if got < BATCH {
            break;
        }
    }
    (sum, started.elapsed().as_secs_f64())
}

/// Median wall times of `next_instr` and `next_run` over `GEN_PAIRS`
/// alternating trials of each; asserts every trial produces `checksum`.
fn alternating_medians(checksum: u64) -> (f64, f64) {
    let mut single = Vec::with_capacity(GEN_PAIRS);
    let mut batched = Vec::with_capacity(GEN_PAIRS);
    for _ in 0..GEN_PAIRS {
        for (run, walls) in
            [(gen_single as fn() -> (u64, f64), &mut single), (gen_batched, &mut batched)]
        {
            let (sum, wall) = run();
            assert_eq!(sum, checksum, "stream changed between trials");
            walls.push(wall);
        }
    }
    let median = |walls: &mut Vec<f64>| {
        walls.sort_by(|a, b| a.total_cmp(b));
        walls[GEN_PAIRS / 2]
    };
    (median(&mut single), median(&mut batched))
}

fn bench_generator_batching() {
    // The profiler marks are the dominant per-call bookkeeping; run the
    // comparison with them live, as a profiled CI smoke does, and restore
    // the previous state so the kernels after it time unprofiled code.
    let profiling = interleave_obs::profile::enabled();
    interleave_obs::profile::set_enabled(true);
    let (sum_single, _) = gen_single();
    let (sum_batched, _) = gen_batched();
    assert_eq!(
        sum_single, sum_batched,
        "batched generation must produce the identical instruction stream"
    );
    let (wall_single, wall_batched) = alternating_medians(sum_single);
    let rate_single = GEN_INSTRS as f64 / wall_single.max(1e-9);
    let rate_batched = GEN_INSTRS as f64 / wall_batched.max(1e-9);
    let ratio = rate_batched / rate_single;
    println!(
        "genbatch: {GEN_INSTRS} instructions, batch={BATCH}, median of {GEN_PAIRS} alternating trials"
    );
    println!("  next_instr     {rate_single:>12.0} instrs/s ({wall_single:.3}s)");
    println!("  next_run       {rate_batched:>12.0} instrs/s ({wall_batched:.3}s)");
    println!("  speedup        {ratio:>12.2}x");
    interleave_obs::profile::set_enabled(profiling);
    assert!(ratio >= 1.1, "batched generation should beat per-call generation (got {ratio:.2}x)");
}

/// Operations per kernel trial.
const KERNEL_OPS: u64 = 2_000_000;

/// Median ns per operation of `trial`, which performs [`KERNEL_OPS`]
/// operations and returns a checksum (kept alive via `black_box`).
fn kernel_ns_per_op(trial: impl Fn() -> u64) -> f64 {
    let mut ns: Vec<f64> = (0..GEN_TRIALS)
        .map(|_| {
            let started = Instant::now();
            black_box(trial());
            started.elapsed().as_nanos() as f64 / KERNEL_OPS as f64
        })
        .collect();
    ns.sort_by(|a, b| a.total_cmp(b));
    ns[GEN_TRIALS / 2]
}

/// An endless stream of no-ops, so the fetch kernel times the unit
/// rather than a stream held in memory.
struct Nops(u64);

impl InstrSource for Nops {
    fn next_instr(&mut self) -> Option<Instr> {
        self.0 += 4;
        Some(Instr::nop(self.0))
    }
}

/// Fetch one instruction per operation, read each pair back in place
/// as the issue stage does, and retire it younger first, so every other
/// retirement lands out of order. A checksum checks what was read.
fn kernel_fetch() -> u64 {
    let mut unit = FetchUnit::new(Box::new(Nops(0)));
    let mut sum = 0u64;
    for i in 0..KERNEL_OPS {
        unit.advance();
        if i % 2 == 1 {
            sum += unit.at(i - 1).pc + unit.at(i).pc;
            unit.retire(i);
            unit.retire(i - 1);
        }
    }
    // Instruction `i` of the no-op stream sits at pc `4 * (i + 1)`.
    assert_eq!(sum, 2 * KERNEL_OPS * (KERNEL_OPS + 1), "fetch unit returned a wrong instruction");
    assert_eq!(unit.peek().map(|i| i.pc), Some(4 * (KERNEL_OPS + 1)));
    assert_eq!(unit.outstanding(), 0);
    unit.cursor()
}

/// One issue per cycle, every fourth an FP operation, retiring what is
/// due each cycle.
fn kernel_window() -> u64 {
    let mut window = IssueWindow::new();
    let mut retired = 0;
    for now in 0..KERNEL_OPS {
        let fp = now % 4 == 0;
        window.issue(InFlight {
            ctx: (now % 4) as usize,
            fetch_index: now,
            op: if fp { Op::FpAdd } else { Op::IntAlu },
            issued_at: now + 1,
            retires_at: now + 1 + if fp { FP_ISSUE_TO_RETIRE } else { INT_ISSUE_TO_RETIRE },
        });
        while window.pop_due(now).is_some() {
            retired += 1;
        }
    }
    retired
}

fn bench_kernels() {
    println!("kernels: ns/op, median of {GEN_TRIALS} trials of {KERNEL_OPS} ops");
    let report = |name: &str, kernel: fn() -> u64| {
        println!("  {name:<28} {:>8.2} ns/op", kernel_ns_per_op(kernel));
    };
    report("fetch advance+retire", kernel_fetch);
    report("window issue+retire", kernel_window);
}

fn main() {
    let (cycles_on, wall_on) = run(true);
    let (cycles_off, wall_off) = run(false);
    assert_eq!(cycles_on, cycles_off, "idle skipping must not change the simulated cycle count");
    let rate_on = cycles_on as f64 / wall_on.max(1e-9);
    let rate_off = cycles_off as f64 / wall_off.max(1e-9);
    let ratio = rate_on / rate_off;
    println!("hotloop: {cycles_on} simulated cycles, {CONTEXTS} contexts of strided misses");
    println!("  idle_skip=on   {rate_on:>12.0} sim cycles/s ({wall_on:.3}s)");
    println!("  idle_skip=off  {rate_off:>12.0} sim cycles/s ({wall_off:.3}s)");
    println!("  speedup        {ratio:>12.2}x");
    assert!(
        ratio >= 2.0,
        "idle skipping should be at least 2x faster on an idle-heavy workload (got {ratio:.2}x)"
    );
    bench_generator_batching();
    bench_kernels();
}
