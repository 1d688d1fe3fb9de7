//! One round, run in a child process: the timed calls, the digests and
//! invariant checks of their outputs, and (traced) the per-layer numbers.
//! The child prints `ready` just before its first timed call and its
//! [`Report`] as the last line of its standard output.

use std::io::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use interleave_bench::{Cell, CellResult, ExperimentSpec, Scale, Target};
use interleave_engine::rand64;
use interleave_mem::MemConfig;
use interleave_mp::splash_suite;
use interleave_obs::json::{self, escape, Value};
use interleave_obs::profile;
use interleave_workloads::{mixes, MultiprogramSim};

use crate::golden::{fnv64, Digests};
use crate::layers::{self, Layers, SimOp, Streams, Traced};
use crate::{serve, Opts, Workload, POOL_THREADS, ROUNDS};

/// Work per multiprocessor cell: a quarter of the CI scale, so a round
/// of the 49-cell grid stays a few seconds long on two threads.
pub const MP_WORK: u64 = 100_000;

/// A multiprocessor node's breakdown may stop short of the machine's
/// cycle count by up to one 256-cycle chunk of the quantum schedule.
const MP_CHUNK: u64 = 256;

/// The grid seed of round `round` under base seed `seed`. Seeds keep 53
/// bits: JSON numbers (the daemon's wire, the result cache's files) are
/// doubles, and a wider seed would not survive them.
pub fn grid_seed(seed: u64, round: usize) -> u64 {
    wire_seed(rand64::hashed(seed, 0xB0_0001, (round % ROUNDS) as u64))
}

/// The top 53 bits of a draw.
pub fn wire_seed(draw: u64) -> u64 {
    draw >> 11
}

/// Whether an environment variable changes what the program does: the
/// `INTERLEAVE_*` knobs and the `ILV_DEBUG` trace switch.
pub fn is_program_var(key: &str) -> bool {
    key.starts_with("INTERLEAVE_") || key.starts_with("ILV_")
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Tells the parent that set-up is over: the next call is timed.
pub fn signal_ready() {
    let mut out = std::io::stdout().lock();
    let _ = writeln!(out, "ready");
    let _ = out.flush();
}

/// Peak resident set (`VmHWM`) of process `pid` (or `self`), in MiB.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{path} has no VmHWM"))
}

/// One span of the benchmark's own trace: all spans of one operation
/// share `op` (0 is the round itself), `tid` is the host thread.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub op: u64,
    pub tid: u64,
    pub ts_us: u64,
    pub dur_us: u64,
}

impl Span {
    /// A span from `start` to `end`, in microseconds since `origin`. Both
    /// endpoints are truncated before the duration is taken, so a child
    /// never ends after its parent.
    pub fn new(
        name: &str,
        op: u64,
        tid: u64,
        origin: Instant,
        start: Instant,
        end: Instant,
    ) -> Span {
        let us = |t: Instant| t.saturating_duration_since(origin).as_micros() as u64;
        Span { name: name.to_string(), op, tid, ts_us: us(start), dur_us: us(end) - us(start) }
    }
}

/// What a round reports to its parent.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// Wall time of the timed phase.
    pub wall_s: f64,
    /// Simulated cycles delivered by the timed phase.
    pub sim_cycles: u64,
    /// Latency of every operation (cell or job), in milliseconds.
    pub op_ms: Vec<f64>,
    /// Operations attempted, checks included.
    pub attempted: u64,
    /// One message per failed operation.
    pub failures: Vec<String>,
    /// Digest of every output, for the golden check.
    pub digests: Digests,
    pub peak_rss_mb: f64,
    /// The effective settings the round ran with.
    pub settings: Vec<(String, String)>,
    /// Per-layer metrics (traced rounds).
    pub layers: Layers,
    /// The benchmark's own spans (traced rounds).
    pub spans: Vec<Span>,
}

fn list<T>(items: &[T], f: impl Fn(&T) -> String) -> String {
    format!("[{}]", items.iter().map(f).collect::<Vec<_>>().join(", "))
}

/// A finite number as JSON (`null` otherwise).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

impl Report {
    /// The report as one JSON line.
    pub fn to_json(&self) -> String {
        let pairs = |items: &[(String, String)]| {
            format!(
                "{{{}}}",
                items
                    .iter()
                    .map(|(k, v)| format!("{}: {v}", escape(k)))
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        };
        let settings: Vec<(String, String)> =
            self.settings.iter().map(|(k, v)| (k.clone(), escape(v))).collect();
        let layers: Vec<(String, String)> =
            self.layers.iter().map(|(k, v)| (k.clone(), num(*v))).collect();
        format!(
            "{{\"wall_s\": {}, \"sim_cycles\": {}, \"attempted\": {}, \"peak_rss_mb\": {}, \
             \"op_ms\": {}, \"failures\": {}, \"digests\": {}, \"settings\": {}, \"layers\": {}, \
             \"spans\": {}}}",
            num(self.wall_s),
            self.sim_cycles,
            self.attempted,
            num(self.peak_rss_mb),
            list(&self.op_ms, |v| num(*v)),
            list(&self.failures, |f| escape(f)),
            list(&self.digests, |(l, d)| format!("[{}, \"{d:016x}\"]", escape(l))),
            pairs(&settings),
            pairs(&layers),
            list(&self.spans, |s| format!(
                "[{}, {}, {}, {}, {}]",
                escape(&s.name),
                s.op,
                s.tid,
                s.ts_us,
                s.dur_us
            )),
        )
    }

    /// Parses [`Report::to_json`].
    pub fn parse(line: &str) -> Result<Report, String> {
        let doc = json::parse(line).map_err(|e| format!("malformed round report: {e}"))?;
        let bad = |key: &str| format!("round report: bad or missing `{key}`");
        let number = |key: &str| doc.get(key).and_then(Value::as_f64).ok_or_else(|| bad(key));
        let array = |key: &str| doc.get(key).and_then(Value::as_arr).ok_or_else(|| bad(key));
        let object = |key: &str| match doc.get(key) {
            Some(Value::Obj(map)) => Ok(map),
            _ => Err(bad(key)),
        };
        let tuple =
            |v: &Value, key: &str| v.as_arr().map(<[Value]>::to_vec).ok_or_else(|| bad(key));
        let mut report = Report {
            wall_s: number("wall_s")?,
            sim_cycles: doc
                .get("sim_cycles")
                .and_then(Value::as_u64)
                .ok_or_else(|| bad("sim_cycles"))?,
            attempted: doc
                .get("attempted")
                .and_then(Value::as_u64)
                .ok_or_else(|| bad("attempted"))?,
            peak_rss_mb: number("peak_rss_mb")?,
            ..Report::default()
        };
        for v in array("op_ms")? {
            report.op_ms.push(v.as_f64().ok_or_else(|| bad("op_ms"))?);
        }
        for v in array("failures")? {
            report.failures.push(v.as_str().ok_or_else(|| bad("failures"))?.to_string());
        }
        for v in array("digests")? {
            let t = tuple(v, "digests")?;
            let label = t.first().and_then(Value::as_str).ok_or_else(|| bad("digests"))?;
            let digest = t
                .get(1)
                .and_then(Value::as_str)
                .and_then(|h| u64::from_str_radix(h, 16).ok())
                .ok_or_else(|| bad("digests"))?;
            report.digests.push((label.to_string(), digest));
        }
        for (k, v) in object("settings")? {
            report
                .settings
                .push((k.clone(), v.as_str().ok_or_else(|| bad("settings"))?.to_string()));
        }
        for (k, v) in object("layers")? {
            report.layers.push((k.clone(), v.as_f64().ok_or_else(|| bad("layers"))?));
        }
        for v in array("spans")? {
            let t = tuple(v, "spans")?;
            let int = |i: usize| t.get(i).and_then(Value::as_u64).ok_or_else(|| bad("spans"));
            report.spans.push(Span {
                name: t.first().and_then(Value::as_str).ok_or_else(|| bad("spans"))?.to_string(),
                op: int(1)?,
                tid: int(2)?,
                ts_us: int(3)?,
                dur_us: int(4)?,
            });
        }
        Ok(report)
    }
}

/// The settings every round records: what the program ran with, set
/// explicitly rather than read from the environment.
pub fn settings() -> Vec<(String, String)> {
    let program_env: Vec<String> =
        std::env::vars().map(|(k, _)| k).filter(|k| is_program_var(k)).collect();
    [
        ("profiler", profile::enabled().to_string()),
        ("validate", interleave_obs::validate::default_enabled().to_string()),
        ("idle_skip", "true".into()),
        ("adaptive", "true".into()),
        ("mp_jobs", "1".into()),
        ("mp_work", MP_WORK.to_string()),
        ("pool_threads", POOL_THREADS.to_string()),
        (
            "available_parallelism",
            std::thread::available_parallelism().map_or(0, |n| n.get()).to_string(),
        ),
        ("program_env", if program_env.is_empty() { "none".into() } else { program_env.join(",") }),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect()
}

/// `target/scheme/contexts`, the label of a cell in digests and spans.
pub fn label(cell: &Cell) -> String {
    format!("{}/{}/{}", cell.target.name(), cell.scheme.name(), cell.contexts)
}

/// The workstation memory system with a 128-cycle memory reply (bank
/// access 26 → 120), the remote class of `LatencyModel::dash_like`.
pub fn memstall_config() -> MemConfig {
    let mut mem = MemConfig::workstation();
    mem.path.bank_access = 120;
    mem
}

/// The cells of one simulator round and how to run them.
pub struct SimPlan {
    pub workload: Workload,
    pub spec: ExperimentSpec,
    pub cells: Vec<Cell>,
    pub mixes: Vec<mixes::Workload>,
    pub apps: Vec<interleave_mp::SplashProfile>,
}

impl SimPlan {
    /// The Table 7 grid (uni workloads) or Table 10 grid (mp-splash) at
    /// CI scale and grid seed `seed`, every host knob set explicitly.
    /// `quick` keeps the first two mixes or applications.
    pub fn new(workload: Workload, seed: u64, quick: bool) -> SimPlan {
        assert!(workload != Workload::ServeMix, "serve-mix is not a simulator grid");
        let keep = if quick { 2 } else { usize::MAX };
        let (spec, mixes, apps) = match workload {
            Workload::MpSplash => {
                let apps: Vec<_> = splash_suite().into_iter().take(keep).collect();
                let table10 = ExperimentSpec::new("table10", Scale::Ci).contexts([2, 4, 8]);
                let spec = apps.iter().cloned().fold(table10, ExperimentSpec::mp);
                (spec.work(MP_WORK).mp_jobs(1).adaptive(true), Vec::new(), apps)
            }
            _ => {
                let mixes: Vec<_> = mixes::all().into_iter().take(keep).collect();
                let table7 = ExperimentSpec::new("table7", Scale::Ci).contexts([2, 4]);
                (mixes.iter().cloned().fold(table7, ExperimentSpec::uni), mixes, Vec::new())
            }
        };
        let spec = spec.seeds([seed]).idle_skip(true);
        SimPlan { workload, cells: spec.cells(), spec, mixes, apps }
    }

    /// The memory system of the plan's uniprocessor cells.
    pub fn mem(&self) -> MemConfig {
        if self.workload == Workload::UniMemstall {
            memstall_config()
        } else {
            MemConfig::workstation()
        }
    }

    /// Runs one cell: `run_cell`, or for uni-memstall the same
    /// configuration with the stalled memory, built directly.
    pub fn run(&self, cell: &Cell) -> CellResult {
        match (&cell.target, self.workload) {
            (Target::Uni(mix), Workload::UniMemstall) => {
                let scale = self.spec.scale();
                let sim = MultiprogramSim::builder(mix.clone())
                    .scheme(cell.scheme)
                    .contexts(cell.contexts)
                    .quota(scale.uni_quota())
                    .warmup(scale.uni_warmup())
                    .os(scale.os_model())
                    .seed(cell.seed.expect("every plan cell has a seed"))
                    .mem(self.mem())
                    .idle_skip(true)
                    .validate(false)
                    .build();
                CellResult::Uni(Box::new(sim.run()))
            }
            _ => self.spec.run_cell(cell),
        }
    }

    /// The invariants every cell satisfies at any seed.
    pub fn check(&self, cell: &Cell, result: &CellResult) -> Result<(), String> {
        let cycles = result.cycles();
        let utilization = result.utilization();
        if !(0.0..=1.0).contains(&utilization) {
            return Err(format!("utilization {utilization} outside [0, 1]"));
        }
        match (result, &cell.target) {
            (CellResult::Uni(r), Target::Uni(mix)) => {
                if r.breakdown.total() != cycles {
                    return Err(format!(
                        "breakdown total {} != cycles {cycles}",
                        r.breakdown.total()
                    ));
                }
                let quota = self.spec.scale().uni_quota() * mix.apps.len() as u64;
                if r.instructions < quota {
                    return Err(format!("{} instructions retired, quota {quota}", r.instructions));
                }
            }
            (CellResult::Mp(r), Target::Mp(_)) => {
                let nodes: u64 = r.per_node.iter().map(|b| b.total()).sum();
                if r.breakdown.total() != nodes {
                    return Err(format!(
                        "breakdown total {} != node sum {nodes}",
                        r.breakdown.total()
                    ));
                }
                let window = cycles.saturating_sub(MP_CHUNK)..=cycles;
                if let Some(b) = r.per_node.iter().find(|b| !window.contains(&b.total())) {
                    return Err(format!("node breakdown total {} vs cycles {cycles}", b.total()));
                }
            }
            _ => return Err("result kind does not match the cell's target".into()),
        }
        Ok(())
    }
}

/// The labels one round of `workload` must report, in order.
pub fn expected_labels(workload: Workload, quick: bool) -> Vec<String> {
    match workload {
        Workload::ServeMix => (0..serve::CLIENTS).map(|c| format!("warm{c}")).collect(),
        _ => SimPlan::new(workload, 0, quick).cells.iter().map(label).collect(),
    }
}

/// A result with the host thread and instants that bracket it.
pub struct Timed<R> {
    pub result: R,
    pub start: Instant,
    pub end: Instant,
    pub thread: usize,
}

/// Runs `f` over `items` on [`POOL_THREADS`] threads pulling from a
/// shared index, each call in a `bench.cell` profiler scope (a no-op
/// unless the round is traced). Results come back in item order.
pub fn pool<T: Sync, R: Send + Sync>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<Timed<R>> {
    let slots: Vec<OnceLock<Timed<R>>> = (0..items.len()).map(|_| OnceLock::new()).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for thread in 0..POOL_THREADS.min(items.len()) {
            let (slots, next, f) = (&slots, &next, &f);
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let start = Instant::now();
                let result = {
                    let _cell = profile::enter("bench.cell");
                    f(item)
                };
                let end = Instant::now();
                let _ = slots[i].set(Timed { result, start, end, thread });
            });
        }
    });
    slots.into_iter().map(|s| s.into_inner().expect("the pool ran every item")).collect()
}

/// Runs round `round` of `workload` and prints its report.
pub fn child(workload: Workload, opts: &Opts, round: usize, trace: bool) -> Result<(), String> {
    // The profiler follows the round kind alone, whatever the
    // environment says.
    profile::set_enabled(trace);
    let report = match workload {
        Workload::ServeMix => serve::round(opts, round, trace)?,
        _ => sim_round(workload, opts, round, trace)?,
    };
    println!("{}", report.to_json());
    Ok(())
}

fn sim_round(workload: Workload, opts: &Opts, round: usize, trace: bool) -> Result<Report, String> {
    let origin = Instant::now();
    let seed = grid_seed(opts.seed, round);
    let plan = SimPlan::new(workload, seed, opts.quick);
    // Set-up ends with one untimed cell, so the fresh process has faulted
    // in its code and grown its heap before the timed calls; that cell
    // must come out byte-identical when it is run again, timed. It runs
    // unprofiled, so a traced round's counts cover the timed cells alone.
    profile::set_enabled(false);
    let warm_up = plan.run(&plan.cells[0]).metrics().to_json_line();
    profile::set_enabled(trace);
    signal_ready();
    let start = Instant::now();
    let done = pool(&plan.cells, |cell| plan.run(cell));
    let end = Instant::now();
    let mut report = Report {
        wall_s: (end - start).as_secs_f64(),
        attempted: done.len() as u64,
        peak_rss_mb: peak_rss_mb("self")?,
        settings: settings(),
        ..Report::default()
    };
    if done[0].result.metrics().to_json_line() != warm_up {
        report.failures.push(format!(
            "{} {}: the timed run differs from the set-up run",
            workload.name(),
            label(&plan.cells[0])
        ));
    }
    for (i, (cell, t)) in plan.cells.iter().zip(&done).enumerate() {
        let label = label(cell);
        report.sim_cycles += t.result.cycles();
        report.op_ms.push(ms(t.end - t.start));
        report.digests.push((label.clone(), fnv64(t.result.metrics().to_json_line().as_bytes())));
        if let Err(e) = plan.check(cell, &t.result) {
            report.failures.push(format!("{} {label}: {e}", workload.name()));
        }
        if trace {
            report.spans.push(Span::new(
                &label,
                i as u64 + 1,
                t.thread as u64 + 1,
                origin,
                t.start,
                t.end,
            ));
        }
    }
    if trace {
        report.spans.push(Span::new("round", 0, 0, origin, start, end));
        let tmp = opts.out.join("tmp");
        let traced = Traced {
            profile: profile::take(),
            ops: plan
                .cells
                .iter()
                .zip(&done)
                .map(|(cell, t)| SimOp {
                    spec: &plan.spec,
                    cell,
                    result: &t.result,
                    host_ns: (t.end - t.start).as_nanos() as f64,
                })
                .collect(),
            streams: match workload {
                Workload::MpSplash => Streams::Splash(&plan.apps, plan.spec.scale().mp_nodes()),
                _ => Streams::Mixes(&plan.mixes),
            },
            seeds: vec![seed],
            mem: plan.mem(),
            tmp: &tmp,
        };
        profile::set_enabled(false);
        report.layers = layers::measure(&traced, origin, &mut report.spans)?;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_the_paper_grids() {
        let table7 = interleave_bench::artifact_spec("table7", Scale::Ci).unwrap().cells();
        let plan = SimPlan::new(Workload::UniMixes, 0, false);
        assert_eq!(
            plan.cells.iter().map(label).collect::<Vec<_>>(),
            table7.iter().map(label).collect::<Vec<_>>()
        );
        assert_eq!(plan.cells.len(), 35);
        assert_eq!(SimPlan::new(Workload::MpSplash, 0, false).cells.len(), 49);
        let quick = expected_labels(Workload::UniMemstall, true);
        assert_eq!(quick.len(), 10);
        assert!(quick.iter().all(|l| expected_labels(Workload::UniMemstall, false).contains(l)));
    }

    #[test]
    fn memstall_reply_is_128_cycles() {
        let mem = memstall_config();
        assert_eq!(mem.path.unloaded_memory(&mem.l2), 128);
        assert_eq!(MemConfig::workstation().path.unloaded_memory(&mem.l2), 34);
    }

    #[test]
    fn report_round_trips() {
        let report = Report {
            wall_s: 1.5,
            sim_cycles: 12,
            op_ms: vec![0.25, 3.0],
            attempted: 2,
            failures: vec!["x \"y\"".into()],
            digests: vec![("IC/single/1".into(), u64::MAX)],
            peak_rss_mb: 7.125,
            settings: vec![("profiler".into(), "false".into())],
            layers: vec![("core.run.self_share".into(), 0.5)],
            spans: vec![Span { name: "round".into(), op: 0, tid: 1, ts_us: 2, dur_us: 3 }],
        };
        assert_eq!(Report::parse(&report.to_json()).unwrap(), report);
    }
}
