//! The parent side: runs rounds in child processes in interleaved order,
//! checks their outputs, turns their reports into metrics, and prints
//! and writes the results.

use std::fmt::Write as _;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

use interleave_obs::chrome::{self, ChromeTrace};
use interleave_obs::json::escape;

use crate::golden::{Golden, GOLDEN_SEED};
use crate::layers::{Layers, PER_LAYER};
use crate::round::{expected_labels, is_program_var, num, Report};
use crate::stats::{median, percentile, quartiles};
use crate::{Opts, Workload, ROUNDS};

/// A time-bounded run never runs longer than this, so it ends well
/// inside three minutes.
const HARD_CAP_S: f64 = 120.0;

/// One round as its parent saw it.
pub struct Round {
    pub workload: Workload,
    pub index: usize,
    /// Child start to its first timed call.
    pub setup_s: f64,
    /// When the child was started and how long it lived, in microseconds
    /// since the parent's origin.
    pub spawned_us: u64,
    pub lived_us: u64,
    pub report: Result<Report, String>,
}

/// Runs round `index` of `workload` in a child process.
fn spawn_round(
    workload: Workload,
    index: usize,
    opts: &Opts,
    traced: bool,
    origin: Instant,
) -> Round {
    let spawned = Instant::now();
    let (setup_s, report) = match run_child(workload, index, opts, traced, spawned) {
        Ok((setup_s, report)) => (setup_s, Ok(report)),
        Err(e) => (0.0, Err(format!("{} round {index}: {e}", workload.name()))),
    };
    let us = |t: Instant| t.saturating_duration_since(origin).as_micros() as u64;
    Round {
        workload,
        index,
        setup_s,
        spawned_us: us(spawned),
        lived_us: us(Instant::now()) - us(spawned),
        report,
    }
}

/// Runs a round child, whose environment holds no program variable, to
/// its end: the seconds from `spawned` until it signalled `ready`, and
/// its report.
fn run_child(
    workload: Workload,
    index: usize,
    opts: &Opts,
    traced: bool,
    spawned: Instant,
) -> Result<(f64, Report), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate benchmark binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["round", "--workload", workload.name()])
        .args(["--seed", &opts.seed.to_string(), "--round", &index.to_string()])
        .arg("--out")
        .arg(&opts.out);
    if traced {
        cmd.arg("--trace");
    }
    if opts.quick {
        cmd.arg("--quick");
    }
    for (key, _) in std::env::vars_os() {
        if key.to_str().is_some_and(is_program_var) {
            cmd.env_remove(&key);
        }
    }
    cmd.stdin(Stdio::null()).stdout(Stdio::piped()).stderr(Stdio::inherit());
    let mut child = cmd.spawn().map_err(|e| format!("start round child: {e}"))?;
    let mut lines = BufReader::new(child.stdout.take().expect("stdout is piped")).lines();
    let ready = lines.next();
    let setup_s = spawned.elapsed().as_secs_f64();
    let last = lines.last();
    let status = child.wait().map_err(|e| format!("wait for round child: {e}"))?;
    if !status.success() {
        return Err(format!("round child exited with {status}"));
    }
    match (ready, last) {
        (Some(Ok(ready)), Some(Ok(line))) if ready == "ready" => {
            Ok((setup_s, Report::parse(&line)?))
        }
        _ => Err("round child printed no report".into()),
    }
}

/// Interleaved order: round `r` of every workload before round `r + 1`
/// of any.
pub fn schedule(
    workloads: &[Workload],
    rounds: usize,
) -> impl Iterator<Item = (usize, Workload)> + '_ {
    (0..rounds).flat_map(move |r| workloads.iter().map(move |&w| (r, w)))
}

/// When to stop adding rounds. Round 0 of every workload is a warm-up:
/// its outputs are checked, its timings discarded (the first round after
/// a start runs measurably slower on the reference host).
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// This many timed rounds after the warm-up.
    Rounds(usize),
    /// About this long: no round starts that would end past it.
    Seconds(f64),
}

/// Runs rounds of `workloads` in [`schedule`] order until `stop`.
fn measure(workloads: &[Workload], opts: &Opts, stop: Stop, origin: Instant) -> Vec<Vec<Round>> {
    let started = Instant::now();
    let mut rounds: Vec<Vec<Round>> = workloads.iter().map(|_| Vec::new()).collect();
    let limit = match stop {
        Stop::Rounds(n) => n + 1,
        Stop::Seconds(_) => usize::MAX,
    };
    for (index, workload) in schedule(workloads, limit) {
        if let (Stop::Seconds(seconds), true) = (stop, workload == workloads[0] && index > 1) {
            let elapsed = started.elapsed().as_secs_f64();
            if elapsed * (index + 1) as f64 / index as f64 > seconds.min(HARD_CAP_S) {
                break;
            }
        }
        let slot = workloads.iter().position(|&w| w == workload).expect("scheduled workload");
        let round = spawn_round(workload, index, opts, false, origin);
        if let Err(e) = &round.report {
            eprintln!("{e}");
        }
        rounds[slot].push(round);
    }
    rounds
}

/// A reported metric: its value, its per-round values (whose quartiles
/// the results report), and the sample count behind the value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: Option<f64>,
    pub rounds: Vec<f64>,
    pub n: usize,
}

/// Everything measured for one workload.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    pub rounds: usize,
    pub attempted: u64,
    pub failures: Vec<String>,
    /// The end-to-end metrics `BENCHMARK.json` declares.
    pub metrics: Vec<Metric>,
    /// The pooled tail latency: reported, but not declared (its spread
    /// between runs exceeds any bound `BENCHMARK.json` allows; see README).
    pub tail: Option<Metric>,
    pub layers: Layers,
    pub settings: Vec<(String, String)>,
    /// Timed wall seconds of each untraced round.
    pub walls: Vec<f64>,
}

impl Summary {
    pub fn error_rate(&self) -> f64 {
        self.failures.len() as f64 / self.attempted.max(1) as f64
    }

    /// Counts a round's operations and failures, checking its outputs
    /// against the grid and, at the golden seed, against `golden.json`.
    fn check<'r>(
        &mut self,
        round: &'r Round,
        golden: Option<&Golden>,
        quick: bool,
    ) -> Option<&'r Report> {
        let report = match &round.report {
            Ok(report) => report,
            Err(e) => {
                self.attempted += 1;
                self.failures.push(e.clone());
                return None;
            }
        };
        self.attempted += report.attempted;
        self.failures.extend(report.failures.iter().cloned());
        let labels: Vec<&str> = report.digests.iter().map(|(l, _)| l.as_str()).collect();
        if labels != expected_labels(round.workload, quick) {
            self.failures.push(format!(
                "{} round {}: outputs do not cover the grid",
                round.workload.name(),
                round.index
            ));
        }
        if let Some(golden) = golden {
            self.failures.extend(golden.check(round.workload, round.index, &report.digests));
        }
        if self.settings.is_empty() {
            self.settings = report.settings.clone();
        }
        Some(report)
    }
}

/// The latency percentile reported as `op_ms_tail`: a run times a few
/// hundred operations, so p90 has its ten samples beyond it.
const TAIL: f64 = 0.90;

/// A metric whose value is the median of its per-round values.
fn over_rounds(name: &'static str, unit: &'static str, values: Vec<f64>) -> Metric {
    Metric { name, unit, value: median(&values), n: values.len(), rounds: values }
}

/// Aggregates the untraced rounds of a workload.
pub fn summarize(rounds: &[Round], golden: Option<&Golden>, quick: bool) -> Summary {
    let mut s = Summary { rounds: rounds.len(), ..Summary::default() };
    let (mut rate, mut ops, mut setup, mut rss, mut p50s, mut pooled) =
        (vec![], vec![], vec![], vec![], vec![], vec![]);
    for round in rounds {
        let Some(r) = s.check(round, golden, quick) else { continue };
        if round.index == 0 {
            continue;
        }
        rate.push(r.sim_cycles as f64 / r.wall_s);
        ops.push(r.op_ms.len() as f64 / r.wall_s);
        setup.push(round.setup_s);
        rss.push(r.peak_rss_mb);
        p50s.extend(median(&r.op_ms));
        pooled.extend_from_slice(&r.op_ms);
        s.walls.push(r.wall_s);
    }
    s.metrics = vec![
        over_rounds("sim_cycles_per_sec", "cycles/s", rate),
        over_rounds("ops_per_sec", "1/s", ops),
        // The p50 of every timed operation of the run; its per-round
        // values are the rounds' own medians.
        Metric { value: median(&pooled), n: pooled.len(), ..over_rounds("op_ms_p50", "ms", p50s) },
        over_rounds("setup_s", "s", setup),
        over_rounds("peak_rss_mb", "MiB", rss),
    ];
    s.tail = Some(Metric {
        name: "op_ms_tail",
        unit: "ms",
        value: percentile(&pooled, TAIL),
        rounds: Vec::new(),
        n: pooled.len(),
    });
    s
}

/// Folds a traced round into `summary`: its outputs are checked like any
/// round's, its layers become the per-layer metrics, and its wall time
/// over the untraced median is the tracing overhead.
fn add_traced(summary: &mut Summary, round: &Round, golden: Option<&Golden>, quick: bool) {
    let Some(report) = summary.check(round, golden, quick) else { return };
    let mut layers = report.layers.clone();
    let untraced = median(&summary.walls).unwrap_or(f64::NAN);
    layers.push(("trace.overhead".into(), report.wall_s / untraced));
    summary.layers = layers;
}

fn layer_value(layers: &Layers, name: &str) -> Option<f64> {
    layers.iter().find(|(n, _)| n == name).map(|&(_, v)| v).filter(|v| v.is_finite())
}

/// Prints `workload metric value unit` for every metric.
fn print(workload: Workload, s: &Summary) {
    let show = |v: Option<f64>| v.map_or_else(|| "n/a".to_string(), |v| v.to_string());
    for m in s.metrics.iter().chain(&s.tail) {
        println!("{} {} {} {}", workload.name(), m.name, show(m.value), m.unit);
    }
    println!("{} error_rate {} ratio", workload.name(), s.error_rate());
    if !s.layers.is_empty() {
        for (name, unit) in PER_LAYER {
            println!("{} {name} {} {unit}", workload.name(), show(layer_value(&s.layers, name)));
        }
    }
    for f in s.failures.iter().take(10) {
        eprintln!("failure: {f}");
    }
}

/// The `results.json` document.
fn results_json(opts: &Opts, summaries: &[(Workload, Summary)]) -> String {
    let mut out = format!(
        "{{\n  \"schema\": \"interleave-benchmark-results-v1\",\n  \"seed\": {},\n  \"quick\": {},\n  \"workloads\": {{\n",
        opts.seed, opts.quick
    );
    for (i, (w, s)) in summaries.iter().enumerate() {
        let _ = writeln!(out, "    {}: {{", escape(w.name()));
        let _ = writeln!(
            out,
            "      \"rounds\": {}, \"attempted\": {}, \"failed\": {}, \"error_rate\": {},",
            s.rounds,
            s.attempted,
            s.failures.len(),
            num(s.error_rate())
        );
        let failures: Vec<String> = s.failures.iter().take(20).map(|f| escape(f)).collect();
        let _ = writeln!(out, "      \"failures\": [{}],", failures.join(", "));
        let settings: Vec<String> =
            s.settings.iter().map(|(k, v)| format!("{}: {}", escape(k), escape(v))).collect();
        let _ = writeln!(out, "      \"settings\": {{{}}},", settings.join(", "));
        let metrics: Vec<String> = s
            .metrics
            .iter()
            .chain(&s.tail)
            .map(|m| {
                let (q1, q3) = quartiles(&m.rounds).map_or(("null".into(), "null".into()), |(a, b)| (num(a), num(b)));
                let rounds: Vec<String> = m.rounds.iter().map(|&v| num(v)).collect();
                format!(
                    "        {}: {{\"value\": {}, \"unit\": {}, \"q1\": {q1}, \"q3\": {q3}, \"n\": {}, \"rounds\": [{}]}}",
                    escape(m.name),
                    m.value.map_or_else(|| "null".into(), num),
                    escape(m.unit),
                    m.n,
                    rounds.join(", ")
                )
            })
            .collect();
        let _ = write!(out, "      \"metrics\": {{\n{}\n      }}", metrics.join(",\n"));
        if !s.layers.is_empty() {
            let layers: Vec<String> = PER_LAYER
                .iter()
                .map(|(name, unit)| {
                    let value = layer_value(&s.layers, name).map_or_else(|| "null".into(), num);
                    format!(
                        "        {}: {{\"value\": {value}, \"unit\": {}}}",
                        escape(name),
                        escape(unit)
                    )
                })
                .collect();
            let _ = write!(out, ",\n      \"layers\": {{\n{}\n      }}", layers.join(",\n"));
        }
        let comma = if i + 1 == summaries.len() { "" } else { "," };
        let _ = writeln!(out, "\n    }}{comma}");
    }
    out.push_str("  }\n}\n");
    out
}

/// The traced rounds' spans as one Chrome trace: a process per workload,
/// track 0 for the round (and its replays), one track per host thread.
fn trace_json(traced: &[Round]) -> Result<String, String> {
    let mut trace = ChromeTrace::new();
    for round in traced {
        let Ok(report) = &round.report else { continue };
        let pid = Workload::ALL.iter().position(|&w| w == round.workload).unwrap_or(0) as u64 + 1;
        trace.process_name(pid, round.workload.name());
        let mut tids: Vec<u64> = report.spans.iter().map(|s| s.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        for tid in tids {
            trace.thread_name(
                pid,
                tid,
                &if tid == 0 { "round".to_string() } else { format!("thread {tid}") },
            );
        }
        trace.span(pid, 0, round.spawned_us, round.lived_us, "child process", "op0");
        let mut spans: Vec<_> = report.spans.iter().collect();
        spans.sort_by_key(|s| (s.tid, s.ts_us, std::cmp::Reverse(s.dur_us)));
        for s in spans {
            trace.span(
                pid,
                s.tid,
                round.spawned_us + s.ts_us,
                s.dur_us,
                &s.name,
                &format!("op{}", s.op),
            );
        }
    }
    let doc = trace.to_json();
    chrome::validate(&doc).map_err(|e| format!("trace.json is malformed: {e}"))?;
    Ok(doc)
}

fn write(out: &Path, name: &str, text: &str) -> Result<(), String> {
    std::fs::create_dir_all(out).map_err(|e| format!("create {}: {e}", out.display()))?;
    let path = out.join(name);
    std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

/// `golden.json`, when `seed` is the one it pins.
fn golden_for(opts: &Opts) -> Result<Option<Golden>, String> {
    if opts.seed != GOLDEN_SEED {
        return Ok(None);
    }
    Golden::load(&Golden::path()).map(Some).map_err(|e| format!("{e} (regenerate it with `bless`)"))
}

/// Runs the traced round of each workload, after the untraced ones.
fn traced_pass(
    summaries: &mut [(Workload, Summary)],
    opts: &Opts,
    golden: Option<&Golden>,
    origin: Instant,
) -> Vec<Round> {
    summaries
        .iter_mut()
        .map(|(w, s)| {
            let round = spawn_round(*w, 0, opts, true, origin);
            if let Err(e) = &round.report {
                eprintln!("{e}");
            }
            add_traced(s, &round, golden, opts.quick);
            round
        })
        .collect()
}

fn finish(opts: &Opts, summaries: &[(Workload, Summary)], traced: &[Round]) -> Result<(), String> {
    for (w, s) in summaries {
        print(*w, s);
    }
    write(&opts.out, "results.json", &results_json(opts, summaries))?;
    if !traced.is_empty() {
        write(&opts.out, "trace.json", &trace_json(traced)?)?;
    }
    Ok(())
}

/// `run`: every workload, `rounds` interleaved rounds each, then (with
/// `trace`) one traced round each.
pub fn run_all(opts: &Opts, rounds: usize, trace: bool) -> Result<(), String> {
    let origin = Instant::now();
    let golden = golden_for(opts)?;
    let measured = measure(&Workload::ALL, opts, Stop::Rounds(rounds), origin);
    let mut summaries: Vec<(Workload, Summary)> = Workload::ALL
        .into_iter()
        .zip(&measured)
        .map(|(w, r)| (w, summarize(r, golden.as_ref(), opts.quick)))
        .collect();
    let traced =
        if trace { traced_pass(&mut summaries, opts, golden.as_ref(), origin) } else { Vec::new() };
    finish(opts, &summaries, &traced)?;
    let failed: usize = summaries.iter().map(|(_, s)| s.failures.len()).sum();
    if failed > 0 {
        return Err(format!("{failed} operations failed; see results.json"));
    }
    Ok(())
}

/// One workload for at least `seconds`, ending with the one-line JSON
/// result: the end-to-end metrics, or with `trace` the per-layer ones.
pub fn single(workload: Workload, opts: &Opts, seconds: f64, trace: bool) -> Result<(), String> {
    let origin = Instant::now();
    let golden = golden_for(opts)?;
    let measured = measure(&[workload], opts, Stop::Seconds(seconds), origin);
    let mut summaries = vec![(workload, summarize(&measured[0], golden.as_ref(), opts.quick))];
    let traced =
        if trace { traced_pass(&mut summaries, opts, golden.as_ref(), origin) } else { Vec::new() };
    finish(opts, &summaries, &traced)?;
    let s = &summaries[0].1;
    let values: Vec<(&str, &str, Option<f64>)> = if trace {
        PER_LAYER.iter().map(|&(n, u)| (n, u, layer_value(&s.layers, n))).collect()
    } else {
        s.metrics.iter().map(|m| (m.name, m.unit, m.value)).collect()
    };
    let mut entries = Vec::new();
    for (name, unit, value) in values {
        let value = value.ok_or_else(|| format!("{name} could not be measured"))?;
        entries.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            escape(name),
            num(value),
            escape(unit)
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        s.failures.is_empty(),
        s.attempted,
        s.failures.len(),
        entries.join(", ")
    );
    Ok(())
}

/// `bless`: reruns the [`ROUNDS`] rounds of every workload at the golden
/// seed and pins their digests in `golden.json`.
pub fn bless(opts: &Opts) -> Result<(), String> {
    let opts = Opts { seed: GOLDEN_SEED, quick: false, ..opts.clone() };
    let measured = measure(&Workload::ALL, &opts, Stop::Rounds(ROUNDS - 1), Instant::now());
    let mut golden = Golden::default();
    for (w, rounds) in Workload::ALL.into_iter().zip(&measured) {
        let mut summary = Summary::default();
        for round in rounds {
            if let Some(report) = summary.check(round, None, false) {
                golden.insert(w, round.index, &report.digests);
            }
        }
        if let Some(f) = summary.failures.first() {
            return Err(format!("not blessing: {f}"));
        }
    }
    let path = Golden::path();
    std::fs::write(&path, golden.to_json())
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_runs_round_r_of_every_workload_before_round_r_plus_1() {
        let order: Vec<(usize, Workload)> = schedule(&Workload::ALL, 2).collect();
        let expected: Vec<(usize, Workload)> =
            (0..2).flat_map(|r| Workload::ALL.into_iter().map(move |w| (r, w))).collect();
        assert_eq!(order, expected);
        assert_eq!(order[3], (0, Workload::ServeMix));
        assert_eq!(order[4], (1, Workload::UniMixes));
        assert_eq!(
            schedule(&[Workload::MpSplash], 3).map(|(r, _)| r).collect::<Vec<_>>(),
            [0, 1, 2]
        );
    }

    fn round_of(workload: Workload, index: usize) -> Round {
        let digests = expected_labels(workload, true)
            .into_iter()
            .enumerate()
            .map(|(i, l)| (l, i as u64))
            .collect();
        let report = Report {
            wall_s: 1.0,
            attempted: 3,
            op_ms: vec![1.0, 2.0, 3.0],
            digests,
            ..Report::default()
        };
        Round { workload, index, setup_s: 0.5, spawned_us: 0, lived_us: 1, report: Ok(report) }
    }

    #[test]
    fn a_corrupted_golden_entry_raises_the_error_rate() {
        let w = Workload::UniMixes;
        let rounds = [round_of(w, 0), round_of(w, 1)];
        let mut golden = Golden::default();
        for r in &rounds {
            golden.insert(w, r.index, &r.report.as_ref().unwrap().digests);
        }
        let clean = summarize(&rounds, Some(&golden), true);
        assert_eq!((clean.attempted, clean.error_rate()), (6, 0.0));

        let mut digests = rounds[1].report.as_ref().unwrap().digests.clone();
        digests[4].1 ^= 1;
        golden.insert(w, 1, &digests);
        let corrupted = summarize(&rounds, Some(&golden), true);
        assert_eq!(corrupted.failures.len(), 1, "{:?}", corrupted.failures);
        assert!(corrupted.error_rate() > 0.0);
    }

    #[test]
    fn a_missing_cell_or_a_crashed_round_fails() {
        let w = Workload::MpSplash;
        let mut short = round_of(w, 0);
        short.report.as_mut().unwrap().digests.pop();
        let crashed = Round { report: Err("boom".into()), ..round_of(w, 1) };
        let s = summarize(&[short, crashed], None, true);
        assert_eq!(s.failures.len(), 2, "{:?}", s.failures);
        assert_eq!(s.attempted, 4);
    }

    #[test]
    fn metrics_are_round_medians_after_the_warm_up() {
        let w = Workload::ServeMix;
        let mut warm_up = round_of(w, 0);
        warm_up.report.as_mut().unwrap().op_ms = vec![50.0; 3];
        let mut rounds = vec![warm_up];
        for (index, wall_s, setup_s) in [(1, 1.0, 0.5), (2, 2.0, 0.75), (3, 4.0, 0.25)] {
            let mut round = round_of(w, index);
            round.setup_s = setup_s;
            let report = round.report.as_mut().unwrap();
            report.wall_s = wall_s;
            report.op_ms = vec![wall_s, 2.0 * wall_s, 3.0 * wall_s];
            rounds.push(round);
        }
        let s = summarize(&rounds, None, true);
        assert_eq!(s.attempted, 12, "the warm-up is checked");
        let get = |n: &str| s.metrics.iter().find(|m| m.name == n).unwrap().clone();
        assert_eq!(get("ops_per_sec").value, Some(1.5));
        assert_eq!(get("ops_per_sec").rounds, [3.0, 1.5, 0.75], "the warm-up is not timed");
        let p50 = get("op_ms_p50");
        assert_eq!(p50.value, Some(4.0), "p50 of 1, 2, 3, 2, 4, 6, 4, 8, 12");
        assert_eq!((p50.n, p50.rounds), (9, vec![2.0, 4.0, 8.0]));
        assert_eq!(get("setup_s").value, Some(0.5));
        assert_eq!(s.tail.as_ref().unwrap().value, None, "nine samples cannot support p90");
    }
}
