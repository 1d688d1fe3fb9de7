//! Per-layer numbers of a traced round.
//!
//! Two sources, neither of which adds code to the simulator:
//!
//! * exact counts and self-time shares from the simulator's own profiler
//!   marks and scopes, switched on only in the traced round;
//! * kernel replays: the benchmark times each layer's public calls, fed
//!   with the round's own instruction streams (its mixes or SPLASH
//!   threads at its seeds) and its own cell results.
//!
//! Counts are divided by the measured simulated kilocycles of the round's
//! cells; they include each cell's warm-up.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use interleave_bench::{Cell, CellResult, ExperimentSpec, ResultCache};
use interleave_core::{InstrSource, PerfectMemory, ProcConfig, Processor, Scheme, VecSource};
use interleave_engine::{EventQueue, Sequenced};
use interleave_isa::{Access, Instr, TimingModel};
use interleave_mem::{DataAccess, MemConfig, UniMemSystem};
use interleave_mp::{Directory, SplashProfile, SplashThread};
use interleave_obs::json;
use interleave_obs::profile::PhaseProfile;
use interleave_pipeline::Scoreboard;
use interleave_workloads::mixes::Workload as Mix;
use interleave_workloads::SyntheticApp;

use crate::round::Span;
use crate::stats::median;

/// `(metric, value)` pairs of one traced round.
pub type Layers = Vec<(String, f64)>;

/// Every per-layer metric with its unit, in report order. A traced round
/// computes all but `trace.overhead`, which its parent adds.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("core.ticks_per_kcycle", "1/kcycle"),
    ("pipeline.squashes_per_kcycle", "1/kcycle"),
    ("mem.misses_per_kcycle", "1/kcycle"),
    ("engine.event_pops_per_kcycle", "1/kcycle"),
    ("workloads.instrs_per_batch", "instr/batch"),
    ("mp.directory_txns_per_kcycle", "1/kcycle"),
    ("engine.barriers_per_kcycle", "1/kcycle"),
    ("engine.router_pops_per_kcycle", "1/kcycle"),
    ("core.run.self_share", "share"),
    ("uni.slice.self_share", "share"),
    ("core.idle_skip.self_share", "share"),
    ("mp.shard_advance.self_share", "share"),
    ("mp.directory.self_share", "share"),
    ("engine.exchange.self_share", "share"),
    ("engine.segment.self_share", "share"),
    ("workloads.gen_ns_per_instr", "ns"),
    ("mem.access_data_ns", "ns"),
    ("mem.access_inst_ns", "ns"),
    ("mem.l1d_hit_ratio", "ratio"),
    ("pipeline.scoreboard_ns", "ns"),
    ("engine.queue_ns", "ns"),
    ("mp.directory_ns", "ns"),
    ("core.perfect_mem_ns_per_kcycle", "ns/kcycle"),
    ("host_ns_per_kcycle", "ns/kcycle"),
    ("layers.unattributed_share", "share"),
    ("server.post_share", "share"),
    ("server.wait_share", "share"),
    ("server.fetch_share", "share"),
    ("server.rejected", "count"),
    ("bench.cache_hit_ratio", "ratio"),
    ("bench.cache_load_us", "us"),
    ("bench.cache_store_us", "us"),
    ("bench.metrics_render_us", "us"),
    ("obs.json_parse_ns_per_byte", "ns/byte"),
    ("trace.overhead", "ratio"),
];

/// Profiler phases reported as a share of all profiled self time.
const SHARES: [&str; 7] = [
    "core.run",
    "uni.slice",
    "core.idle_skip",
    "mp.shard_advance",
    "mp.directory",
    "engine.exchange",
    "engine.segment",
];

/// Repetitions of each kernel replay; the median is reported.
const REPS: usize = 5;
/// Instructions generated per stream for the replays.
const STREAM_LEN: usize = 4096;
/// Instructions per context in the perfect-memory core replay.
const CORE_LEN: usize = 2048;

/// Where a round's instruction streams come from.
pub enum Streams<'a> {
    /// Each application of each mix, in its address slot.
    Mixes(&'a [Mix]),
    /// Threads `0..n` of each SPLASH application.
    Splash(&'a [SplashProfile], usize),
}

/// One simulated operation of the round: what the cache and render
/// replays feed on, and what the host-time budget divides.
pub struct SimOp<'a> {
    pub spec: &'a ExperimentSpec,
    pub cell: &'a Cell,
    pub result: &'a CellResult,
    /// Host nanoseconds the operation took.
    pub host_ns: f64,
}

/// What a traced round hands to [`measure`].
pub struct Traced<'a> {
    /// The profile harvested over the round's simulations.
    pub profile: PhaseProfile,
    pub ops: Vec<SimOp<'a>>,
    pub streams: Streams<'a>,
    /// Stream seeds (the round's grid seed, or the jobs' seeds).
    pub seeds: Vec<u64>,
    pub mem: MemConfig,
    /// Directory for the result-cache replay's files.
    pub tmp: &'a Path,
}

/// Median over [`REPS`] runs of `run`'s nanoseconds per operation, each
/// on fresh state from the untimed `setup`; `run` returns its operation
/// count.
fn ns_per_op<S>(mut setup: impl FnMut() -> S, mut run: impl FnMut(S) -> u64) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let state = setup();
            let start = Instant::now();
            let ops = run(state).max(1);
            start.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&samples).expect("REPS > 0")
}

/// Runs `f` inside a span named `name` on the round's track.
fn spanned<T>(name: &str, origin: Instant, spans: &mut Vec<Span>, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    spans.push(Span::new(name, 0, 0, origin, start, Instant::now()));
    out
}

fn sources(streams: &Streams, seeds: &[u64]) -> Vec<Box<dyn InstrSource>> {
    let mut out: Vec<Box<dyn InstrSource>> = Vec::new();
    for &seed in seeds {
        match streams {
            Streams::Mixes(mixes) => {
                for mix in *mixes {
                    for (slot, &app) in mix.apps.iter().enumerate() {
                        out.push(Box::new(SyntheticApp::new(app, slot, seed)));
                    }
                }
            }
            Streams::Splash(apps, threads) => {
                for app in *apps {
                    for t in 0..*threads {
                        out.push(Box::new(SplashThread::new(app.clone(), t, *threads, seed)));
                    }
                }
            }
        }
    }
    out
}

/// Per-access costs of the memory hierarchy on the round's streams, run
/// one after another through one hierarchy, and the data misses'
/// completion times (which feed the event-queue replay).
struct MemReplay {
    data_ns: f64,
    inst_ns: f64,
    l1d_hit_ratio: f64,
    data_per_instr: f64,
    /// `(instruction index, ready_at)` of every data miss.
    misses: Vec<(u64, u64)>,
}

fn mem_replay(instrs: &[Instr], cfg: &MemConfig) -> MemReplay {
    let system = || UniMemSystem::new(cfg.clone());
    let (mut misses, mut stats) = (Vec::new(), Default::default());
    let data_ns = ns_per_op(system, |mut sys| {
        misses.clear();
        for (i, instr) in instrs.iter().enumerate() {
            if let Some(m) = instr.mem {
                if let DataAccess::Miss { ready_at, .. } =
                    sys.access_data(i as u64, m.addr, m.kind, 0)
                {
                    misses.push((i as u64, ready_at));
                }
            }
        }
        stats = *sys.stats();
        stats.l1d_hits + stats.l1d_misses
    });
    let inst_ns = ns_per_op(system, |mut sys| {
        for (i, instr) in instrs.iter().enumerate() {
            black_box(sys.access_inst(i as u64, instr.pc));
        }
        instrs.len() as u64
    });
    let refs = stats.l1d_hits + stats.l1d_misses;
    MemReplay {
        data_ns,
        inst_ns,
        l1d_hit_ratio: stats.l1d_hits as f64 / refs.max(1) as f64,
        data_per_instr: refs as f64 / instrs.len().max(1) as f64,
        misses,
    }
}

/// A queued miss completion.
struct Due(u64);

impl Sequenced for Due {
    fn due(&self) -> u64 {
        self.0
    }
}

/// Nanoseconds per `EventQueue` call (push, pop, or empty poll) when the
/// misses are scheduled as they issue and the queue is polled every
/// instruction.
fn queue_replay(instrs: &[Instr], misses: &[(u64, u64)]) -> f64 {
    ns_per_op(EventQueue::new, |mut queue| {
        let mut calls = 0;
        let mut next = misses.iter().peekable();
        for i in 0..instrs.len() as u64 {
            while let Some(&(_, due)) = next.next_if(|&&(at, _)| at == i) {
                queue.push(Due(due));
                calls += 1;
            }
            while queue.pop_due(i).is_some() {
                calls += 1;
            }
            calls += 1;
        }
        while queue.pop_due(u64::MAX).is_some() {
            calls += 1;
        }
        calls
    })
}

fn scoreboard_replay(instrs: &[Instr]) -> f64 {
    let timing = TimingModel::r4000_like();
    ns_per_op(
        || Scoreboard::new(1),
        |mut sb| {
            let mut now = 0;
            for instr in instrs {
                let ex = sb.earliest_issue(0, instr, &timing, now);
                sb.issue(0, instr, &timing, ex);
                now = ex + 1;
            }
            black_box(now);
            instrs.len() as u64
        },
    )
}

/// Nanoseconds per directory transaction, stream `s` acting as node
/// `s % 8` of an 8-node machine.
fn directory_replay(streams: &[Vec<Instr>], line: u64) -> f64 {
    ns_per_op(
        || Directory::new(8, line),
        |mut dir| {
            let mut txns = 0;
            for (s, stream) in streams.iter().enumerate() {
                for m in stream.iter().filter_map(|i| i.mem) {
                    black_box(match m.kind {
                        Access::Read => dir.read(s % 8, m.addr),
                        Access::Write => dir.write(s % 8, m.addr, false),
                    });
                    txns += 1;
                }
            }
            txns
        },
    )
}

/// Host nanoseconds per simulated kilocycle, and per instruction, of the
/// processor alone: pairs of streams interleaved on two contexts over a
/// perfect memory.
fn perfect_mem_replay(streams: &[Vec<Instr>]) -> (f64, f64) {
    let processors = || -> Vec<Processor<PerfectMemory>> {
        streams
            .chunks_exact(2)
            .map(|pair| {
                let mut cfg = ProcConfig::new(Scheme::Interleaved, 2);
                cfg.validate = false;
                let mut cpu = Processor::new(cfg, PerfectMemory);
                for (ctx, stream) in pair.iter().enumerate() {
                    cpu.attach(
                        ctx,
                        Box::new(VecSource::new(stream.iter().take(CORE_LEN).copied())),
                    );
                }
                cpu
            })
            .collect()
    };
    let mut cycles = 0;
    let ns_per_cycle = ns_per_op(processors, |mut cpus| {
        cycles = cpus.iter_mut().map(|cpu| cpu.run_until_done(64 * CORE_LEN as u64)).sum();
        cycles
    });
    let instrs: usize = streams.chunks_exact(2).flatten().map(|s| s.len().min(CORE_LEN)).sum();
    (ns_per_cycle * 1e3, ns_per_cycle * cycles as f64 / instrs.max(1) as f64)
}

/// `(store µs, load µs, render µs)` per cell and JSON parse ns per byte,
/// replayed on the round's own results.
fn bench_replays(ops: &[SimOp], tmp: &Path) -> Result<[f64; 4], String> {
    let dir = tmp.join(format!("cache-replay-{}", std::process::id()));
    let mut error = None;
    let store_ns = ns_per_op(
        || {
            let _ = std::fs::remove_dir_all(&dir);
            ResultCache::new(&dir)
        },
        |cache| {
            for op in ops {
                if let Err(e) = cache.store(op.spec, op.cell, op.result) {
                    error.get_or_insert(format!("result cache store in {}: {e}", dir.display()));
                }
            }
            ops.len() as u64
        },
    );
    let load_ns = ns_per_op(
        || ResultCache::new(&dir),
        |cache| {
            for op in ops {
                if cache.load(op.spec, op.cell).as_ref() != Some(op.result) {
                    error.get_or_insert("result cache did not return the stored result".into());
                }
            }
            ops.len() as u64
        },
    );
    let _ = std::fs::remove_dir_all(&dir);
    if let Some(e) = error {
        return Err(e);
    }
    let render_ns = ns_per_op(
        || (),
        |()| {
            for op in ops {
                black_box(op.result.metrics().to_json_line());
            }
            ops.len() as u64
        },
    );
    let lines: Vec<String> = ops.iter().map(|op| op.result.metrics().to_json_line()).collect();
    let parse_ns = ns_per_op(
        || (),
        |()| {
            for line in &lines {
                black_box(json::parse(line).is_ok());
            }
            lines.iter().map(|l| l.len() as u64).sum()
        },
    );
    Ok([store_ns / 1e3, load_ns / 1e3, render_ns / 1e3, parse_ns])
}

/// Computes every per-layer metric of a traced round except
/// `trace.overhead`, and the serve-only ones (which the serve round
/// overwrites), recording one span per replay.
pub fn measure(t: &Traced, origin: Instant, spans: &mut Vec<Span>) -> Result<Layers, String> {
    let kcycles = t.ops.iter().map(|op| op.result.cycles()).sum::<u64>().max(1) as f64 / 1e3;
    let calls = |name: &str| t.profile.get(name).map_or(0, |s| s.calls) as f64;
    let per_kcycle = |name: &str| calls(name) / kcycles;
    // The profiler scopes the directory once per barrier exchange; the
    // transactions themselves are the measured period's miss classes.
    let directory_txns = t
        .ops
        .iter()
        .filter_map(|op| op.result.as_mp())
        .map(|r| {
            r.directory.local + r.directory.remote + r.directory.remote_cache + r.directory.upgrades
        })
        .sum::<u64>() as f64
        / kcycles;
    let mut out: Layers = vec![
        ("core.ticks_per_kcycle".into(), per_kcycle("core.tick")),
        ("pipeline.squashes_per_kcycle".into(), per_kcycle("pipeline.squash")),
        ("mem.misses_per_kcycle".into(), per_kcycle("mem.miss")),
        ("engine.event_pops_per_kcycle".into(), per_kcycle("engine.event_pop")),
        (
            "workloads.instrs_per_batch".into(),
            calls("workloads.gen_instrs") / calls("workloads.gen_batch").max(1.0),
        ),
        ("mp.directory_txns_per_kcycle".into(), directory_txns),
        ("engine.barriers_per_kcycle".into(), per_kcycle("engine.exchange")),
        ("engine.router_pops_per_kcycle".into(), per_kcycle("engine.router_pop")),
    ];
    let self_total = t.profile.total_self_ns().max(1) as f64;
    for phase in SHARES {
        let self_ns = t.profile.get(phase).map_or(0, |s| s.self_ns) as f64;
        out.push((format!("{phase}.self_share"), self_ns / self_total));
    }

    let mut streams = Vec::new();
    let gen_ns = spanned("replay.workloads.gen", origin, spans, || {
        ns_per_op(
            || sources(&t.streams, &t.seeds),
            |mut sources| {
                streams = sources
                    .iter_mut()
                    .map(|src| {
                        let mut buf = Vec::with_capacity(STREAM_LEN + 32);
                        while buf.len() < STREAM_LEN && src.next_run(&mut buf, 32) > 0 {}
                        buf
                    })
                    .collect::<Vec<Vec<Instr>>>();
                streams.iter().map(|s| s.len() as u64).sum()
            },
        )
    });
    let all: Vec<Instr> = streams.concat();
    let mem = spanned("replay.mem", origin, spans, || mem_replay(&all, &t.mem));
    let scoreboard_ns =
        spanned("replay.pipeline.scoreboard", origin, spans, || scoreboard_replay(&all));
    let queue_ns =
        spanned("replay.engine.queue", origin, spans, || queue_replay(&all, &mem.misses));
    let directory_ns = spanned("replay.mp.directory", origin, spans, || {
        directory_replay(&streams, t.mem.l1d.line)
    });
    let (core_ns_per_kcycle, core_ns_per_instr) =
        spanned("replay.core.perfect_mem", origin, spans, || perfect_mem_replay(&streams));
    let [store_us, load_us, render_us, parse_ns] =
        spanned("replay.bench", origin, spans, || bench_replays(&t.ops, t.tmp))?;

    // The budget: each layer's replayed cost per operation times its
    // operations per kilocycle. The perfect-memory core covers fetch,
    // select, issue (the scoreboard included) and retire.
    let host = t.ops.iter().map(|op| op.host_ns).sum::<f64>() / kcycles;
    let attributed = per_kcycle("workloads.gen_instrs")
        * (gen_ns + mem.data_per_instr * mem.data_ns + mem.inst_ns + core_ns_per_instr)
        + per_kcycle("engine.event_pop") * queue_ns
        + directory_txns * directory_ns;
    out.extend([
        ("workloads.gen_ns_per_instr".into(), gen_ns),
        ("mem.access_data_ns".into(), mem.data_ns),
        ("mem.access_inst_ns".into(), mem.inst_ns),
        ("mem.l1d_hit_ratio".into(), mem.l1d_hit_ratio),
        ("pipeline.scoreboard_ns".into(), scoreboard_ns),
        ("engine.queue_ns".into(), queue_ns),
        ("mp.directory_ns".into(), directory_ns),
        ("core.perfect_mem_ns_per_kcycle".into(), core_ns_per_kcycle),
        ("host_ns_per_kcycle".into(), host),
        ("layers.unattributed_share".into(), 1.0 - attributed / host),
        ("server.post_share".into(), 0.0),
        ("server.wait_share".into(), 0.0),
        ("server.fetch_share".into(), 0.0),
        ("server.rejected".into(), 0.0),
        ("bench.cache_hit_ratio".into(), 0.0),
        ("bench.cache_load_us".into(), load_us),
        ("bench.cache_store_us".into(), store_us),
        ("bench.metrics_render_us".into(), render_us),
        ("obs.json_parse_ns_per_byte".into(), parse_ns),
    ]);
    Ok(out)
}
