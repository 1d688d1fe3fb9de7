//! Host-throughput benchmark for the event-driven hot loop.
//!
//! Two measurements of the processor's hot path:
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
//! 2. **Per-cycle bookkeeping kernels.** Times the constant-time
//!    structures the processor touches every simulated cycle in
//!    isolation — fetch-unit advance, in-place read (`at`) and
//!    out-of-order retire, and issue-window issue and retire — and
//!    prints ns per operation (median of three trials). No timing is
//!    asserted (the fetch kernel checksums the instructions it reads):
//!    these numbers are for comparing revisions on one host. The
//!    memory hierarchy's per-access cost (MSHR and TLB included) is
//!    timed by the repo benchmark's `mem_replay` layer, not here, and
//!    so is workload generation (`workloads.gen_ns_per_instr`).

use std::hint::black_box;
use std::time::Instant;

use interleave_core::{FetchUnit, InstrSource, ProcConfig, Processor, Scheme, VecSource};
use interleave_isa::{Instr, Op, Reg};
use interleave_mem::{MemConfig, UniMemSystem};
use interleave_pipeline::{InFlight, IssueWindow, FP_ISSUE_TO_RETIRE, INT_ISSUE_TO_RETIRE};

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

/// Operations per kernel trial.
const KERNEL_OPS: u64 = 2_000_000;
const KERNEL_TRIALS: usize = 3;

/// Median ns per operation of `trial`, which performs [`KERNEL_OPS`]
/// operations and returns a checksum (kept alive via `black_box`).
fn kernel_ns_per_op(trial: impl Fn() -> u64) -> f64 {
    let mut ns: Vec<f64> = (0..KERNEL_TRIALS)
        .map(|_| {
            let started = Instant::now();
            black_box(trial());
            started.elapsed().as_nanos() as f64 / KERNEL_OPS as f64
        })
        .collect();
    ns.sort_by(|a, b| a.total_cmp(b));
    ns[KERNEL_TRIALS / 2]
}

/// An endless stream of no-ops, so the fetch kernel times the unit
/// rather than a stream held in memory.
struct Nops(u64);

impl InstrSource for Nops {
    fn next_run(&mut self, out: &mut Vec<Instr>, max: usize) -> usize {
        out.extend((0..max).map(|_| {
            self.0 += 4;
            Instr::nop(self.0)
        }));
        max
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
    println!("kernels: ns/op, median of {KERNEL_TRIALS} trials of {KERNEL_OPS} ops");
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
    bench_kernels();
}
