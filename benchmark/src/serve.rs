//! serve-mix: the simulation daemon under the traffic of
//! `scripts/serve_soak.sh`, the repository's own concurrent-client test
//! of the service.
//!
//! Each round starts a daemon (this binary's `serve-daemon`, with the
//! daemon's default worker count and a fresh result cache). Four
//! concurrent closed-loop clients then each submit a `smoke` job with a
//! fresh seed of their own (simulated, then stored in the cache) and,
//! once it is answered, submit the same seed again (served from the
//! cache). That pair is the operation. Unlike the script, a client does
//! not wait for the other clients between the two submissions: on a
//! shared host, where either core can slow down for a second at a time,
//! such a barrier makes every pair wait for the slowest job of four. A
//! job is `POST /jobs`, a wait on `/jobs/<id>/events` until the
//! `finished` snapshot, and `GET /jobs/<id>/metrics`.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use interleave_bench::{artifact_spec, ExperimentSpec, Runner, Scale, SweepResult};
use interleave_engine::rand64;
use interleave_mem::MemConfig;
use interleave_obs::json::{self, Value};
use interleave_obs::profile::{self, PhaseProfile};
use interleave_server::{client, Server, ServerConfig};
use interleave_workloads::mixes;

use crate::golden::fnv64;
use crate::layers::{self, SimOp, Streams, Traced};
use crate::round::{grid_seed, ms, peak_rss_mb, settings, signal_ready, wire_seed, Report, Span};
use crate::stats::median;
use crate::Opts;

/// Concurrent clients, as `scripts/serve_soak.sh` runs by default.
pub const CLIENTS: usize = 4;
/// Draw lane of the fresh seeds under the round's grid seed.
const FRESH_LANE: u64 = 0x5E_0002;

/// Timed pairs per client and round.
fn pairs(quick: bool) -> usize {
    if quick {
        1
    } else {
        20
    }
}

/// First answers recomputed in-process after the timed phase of every
/// round: a run of eight timed rounds and the warm-up checks 36.
const VERIFIED: usize = 4;

/// The seed client `client` submits in its pair `pair` (pair 0 is the
/// set-up pair).
fn fresh_seed(seed: u64, pair: usize, client: usize) -> u64 {
    wire_seed(rand64::hashed(seed, FRESH_LANE, (pair as u64) << 8 | client as u64))
}

/// `serve-daemon`: serves on an ephemeral localhost port with the
/// default workers and the result cache in `cache`, printing the bound
/// address first.
pub fn daemon(cache: &str) -> Result<(), String> {
    let config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        cache_dir: Some(PathBuf::from(cache)),
        ..ServerConfig::default()
    };
    let server = Server::bind(config).map_err(|e| format!("bind: {e}"))?;
    println!("{}", server.local_addr());
    server.run().map_err(|e| format!("serve: {e}"))
}

/// A running daemon; dropping it kills and reaps the process.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    /// Starts the daemon and waits until `/healthz` answers.
    fn start(cache: &Path) -> Result<Daemon, String> {
        let exe = std::env::current_exe().map_err(|e| format!("locate benchmark binary: {e}"))?;
        let mut child = Command::new(exe)
            .arg("serve-daemon")
            .arg("--cache")
            .arg(cache)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("start daemon: {e}"))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut daemon = Daemon { child, addr: String::new() };
        BufReader::new(stdout)
            .read_line(&mut daemon.addr)
            .map_err(|e| format!("read daemon address: {e}"))?;
        daemon.addr = daemon.addr.trim().to_string();
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match client::get(&daemon.addr, "/healthz") {
                Ok(r) if r.status == 200 => return Ok(daemon),
                _ if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(5)),
                other => return Err(format!("daemon at `{}` not healthy: {other:?}", daemon.addr)),
            }
        }
    }

    /// Asks the daemon to shut down and waits for it to exit.
    fn stop(mut self) -> Result<(), String> {
        let _ = client::post(&self.addr, "/shutdown", "");
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(e) => return Err(format!("wait for daemon: {e}")),
            }
        }
        Err("daemon did not stop within 10 s".into())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// A completed job and the instants that split it: submitted, accepted,
/// finished (last event), fetched.
struct Job {
    metrics: String,
    sim_cycles: u64,
    at: [Instant; 4],
}

/// Why a job failed; a refusal (429) is counted separately.
enum JobError {
    Rejected(String),
    Failed(String),
}

/// Waits on `/jobs/<id>/events` until the `finished` snapshot and returns
/// its simulated cycles. A stream that ends without one (the job failed,
/// or the daemon went away) is an error naming the job's final status.
pub fn wait_finished(addr: &str, id: u64) -> Result<u64, String> {
    let mut finished = None;
    client::stream_lines(addr, &format!("/jobs/{id}/events"), |line| {
        let doc = json::parse(line).ok();
        if doc.as_ref().and_then(|d| d.get("finished")).and_then(Value::as_bool) != Some(true) {
            return true;
        }
        finished = Some(doc.as_ref().and_then(|d| d.get("sim_cycles")).and_then(Value::as_u64));
        false
    })
    .map_err(|e| format!("job {id} events: {e}"))?;
    match finished {
        Some(Some(cycles)) => Ok(cycles),
        Some(None) => Err(format!("job {id}: finished snapshot without sim_cycles")),
        None => {
            let status = client::get(addr, &format!("/jobs/{id}"))
                .map(|r| r.body.trim().to_string())
                .unwrap_or_else(|e| e.to_string());
            Err(format!("job {id} ended without finishing: {status}"))
        }
    }
}

fn job(addr: &str, seed: u64) -> Result<Job, JobError> {
    let failed = |e: String| JobError::Failed(format!("seed {seed}: {e}"));
    let submitted = Instant::now();
    let body = format!("{{\"artifact\": \"smoke\", \"seed\": {seed}}}");
    let posted =
        client::post(addr, "/jobs", &body).map_err(|e| failed(format!("POST /jobs: {e}")))?;
    match posted.status {
        202 => {}
        429 => return Err(JobError::Rejected(format!("seed {seed}: POST /jobs answered 429"))),
        status => {
            return Err(failed(format!("POST /jobs answered {status}: {}", posted.body.trim())))
        }
    }
    let accepted = Instant::now();
    let id = json::parse(&posted.body)
        .ok()
        .and_then(|d| d.get("id").and_then(Value::as_u64))
        .ok_or_else(|| failed(format!("no job id in `{}`", posted.body.trim())))?;
    let sim_cycles = wait_finished(addr, id).map_err(failed)?;
    let finished = Instant::now();
    // The daemon publishes the `finished` snapshot just before it stores
    // the job's artifacts, so a fetch can briefly answer 409.
    let deadline = finished + Duration::from_secs(5);
    let fetched = loop {
        let r = client::get(addr, &format!("/jobs/{id}/metrics"))
            .map_err(|e| failed(format!("GET metrics: {e}")))?;
        if r.status != 409 || Instant::now() > deadline {
            break r;
        }
        std::thread::sleep(Duration::from_micros(100));
    };
    if fetched.status != 200 {
        return Err(failed(format!("GET metrics answered {}", fetched.status)));
    }
    Ok(Job {
        metrics: fetched.body,
        sim_cycles,
        at: [submitted, accepted, finished, Instant::now()],
    })
}

/// A client's submission of a fresh seed and its resubmission.
struct Pair {
    seed: u64,
    answers: [Result<Job, JobError>; 2],
}

impl Pair {
    /// Submission to the resubmission's answer, when both succeeded.
    fn span(&self) -> Option<(Instant, Instant)> {
        match &self.answers {
            [Ok(first), Ok(again)] => Some((first.at[0], again.at[3])),
            _ => None,
        }
    }
}

/// Runs pairs `range` on every client at once; returns each client's.
fn clients(addr: &str, seed: u64, range: std::ops::Range<usize>) -> Vec<Vec<Pair>> {
    std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let range = range.clone();
                s.spawn(move || {
                    range
                        .map(|k| {
                            let seed = fresh_seed(seed, k, c);
                            Pair { seed, answers: [job(addr, seed), job(addr, seed)] }
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        clients.into_iter().map(|c| c.join().expect("client thread panicked")).collect()
    })
}

/// Counts a pair's jobs into `report`, failing every job that failed and
/// a resubmission whose answer differs from the first, and collects the
/// first answer. Returns the number of refusals (429).
fn check(report: &mut Report, pair: &Pair, first: &mut Vec<(u64, String)>) -> u32 {
    let mut rejected = 0;
    let mut answers = [None, None];
    for (answer, outcome) in answers.iter_mut().zip(&pair.answers) {
        report.attempted += 1;
        match outcome {
            Ok(done) => *answer = Some(&done.metrics),
            Err(JobError::Rejected(e)) => {
                rejected += 1;
                report.failures.push(e.clone());
            }
            Err(JobError::Failed(e)) => report.failures.push(e.clone()),
        }
    }
    if let [Some(answer), Some(again)] = answers {
        if answer != again {
            report
                .failures
                .push(format!("seed {}: the cached answer differs from the first", pair.seed));
        }
        first.push((pair.seed, answer.clone()));
    }
    rejected
}

/// Runs one serve-mix round.
pub fn round(opts: &Opts, round: usize, trace: bool) -> Result<Report, String> {
    let origin = Instant::now();
    let seed = grid_seed(opts.seed, round);
    let dir = opts.out.join("tmp").join(format!("serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let result = serve_round(opts, seed, trace, &dir, origin);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn serve_round(
    opts: &Opts,
    seed: u64,
    trace: bool,
    dir: &Path,
    origin: Instant,
) -> Result<Report, String> {
    let daemon = Daemon::start(&dir.join("cache"))?;
    let mut report = Report { settings: settings(), ..Report::default() };
    // Set-up ends with an untimed pair per client, which lets the
    // daemon's threads, heap and cache directory settle. Their first
    // answers are pinned by the golden digests.
    let warm_up = clients(&daemon.addr, seed, 0..1);
    let (mut first, mut rejected) = (Vec::new(), 0);
    for (c, pair) in warm_up.iter().flatten().enumerate() {
        let body = pair.answers[0].as_ref().map_or("", |done| done.metrics.as_str());
        report.digests.push((format!("warm{c}"), fnv64(body.as_bytes())));
        rejected += check(&mut report, pair, &mut first);
    }

    signal_ready();
    let start = Instant::now();
    let timed = clients(&daemon.addr, seed, 1..pairs(opts.quick) + 1);
    let end = Instant::now();
    report.wall_s = (end - start).as_secs_f64();

    let mut shares = [Vec::new(), Vec::new(), Vec::new()];
    for (c, client) in timed.iter().enumerate() {
        for (k, pair) in client.iter().enumerate() {
            rejected += check(&mut report, pair, &mut first);
            let Some((submitted, answered)) = pair.span() else { continue };
            report.op_ms.push(ms(answered - submitted));
            let (op, tid) = ((c * client.len() + k + 1) as u64, c as u64 + 1);
            if trace {
                report.spans.push(Span::new("pair", op, tid, origin, submitted, answered));
            }
            for (name, done) in
                ["submit", "resubmit"].into_iter().zip(pair.answers.iter().flatten())
            {
                report.sim_cycles += done.sim_cycles;
                let total = done.at[3] - done.at[0];
                for (k, share) in shares.iter_mut().enumerate() {
                    share.push((done.at[k + 1] - done.at[k]).as_secs_f64() / total.as_secs_f64());
                }
                if trace {
                    report.spans.push(Span::new(name, op, tid, origin, done.at[0], done.at[3]));
                    for (k, http) in
                        ["http.post", "http.events", "http.fetch"].into_iter().enumerate()
                    {
                        report.spans.push(Span::new(
                            http,
                            op,
                            tid,
                            origin,
                            done.at[k],
                            done.at[k + 1],
                        ));
                    }
                }
            }
        }
    }
    let cache_hit_ratio = client::get(&daemon.addr, "/stats")
        .ok()
        .and_then(|r| json::parse(&r.body).ok())
        .and_then(|d| d.get("cache_hit_rate").and_then(Value::as_f64))
        .unwrap_or(0.0);
    report.peak_rss_mb = peak_rss_mb(&daemon.child.id().to_string())?;
    daemon.stop()?;

    // Recompute first answers in-process: the service must return what a
    // direct sweep of the same spec renders, byte for byte.
    let (mut seeds, mut sweeps) = (Vec::new(), Vec::<(ExperimentSpec, SweepResult)>::new());
    for (s, served) in first.into_iter().take(VERIFIED) {
        let spec = artifact_spec("smoke", Scale::Ci)?.seeds([s]);
        let sweep = Runner::serial().run(&spec);
        if sweep.metrics_json() != served {
            report
                .failures
                .push(format!("seed {s}: served METRICS differ from an in-process sweep"));
        }
        seeds.push(s);
        sweeps.push((spec, sweep));
    }
    if trace {
        report.spans.push(Span::new("round", 0, 0, origin, start, end));
        let mut profile = PhaseProfile::new();
        for (_, sweep) in &sweeps {
            profile.merge(sweep.profile.as_ref().expect("traced rounds profile their sweeps"));
        }
        profile::set_enabled(false);
        let fp = [mixes::fp()];
        let traced = Traced {
            profile,
            ops: sweeps
                .iter()
                .flat_map(|(spec, sweep)| {
                    sweep.cells.iter().zip(&sweep.cell_walls).map(move |((cell, result), wall)| {
                        SimOp { spec, cell, result, host_ns: wall.as_nanos() as f64 }
                    })
                })
                .collect(),
            streams: Streams::Mixes(&fp),
            seeds,
            mem: MemConfig::workstation(),
            tmp: dir,
        };
        let mut layers = layers::measure(&traced, origin, &mut report.spans)?;
        let med = |v: &[f64]| median(v).unwrap_or(0.0);
        for (name, value) in [
            ("server.post_share", med(&shares[0])),
            ("server.wait_share", med(&shares[1])),
            ("server.fetch_share", med(&shares[2])),
            ("server.rejected", f64::from(rejected)),
            ("bench.cache_hit_ratio", cache_hit_ratio),
        ] {
            if let Some(slot) = layers.iter_mut().find(|(n, _)| n == name) {
                slot.1 = value;
            }
        }
        report.layers = layers;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpListener;

    /// A one-shot fake daemon: answers each connection in turn with the
    /// given raw responses, then holds the last connection open until the
    /// test drops the returned sender.
    fn fake(responses: Vec<&'static str>) -> (String, std::sync::mpsc::Sender<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        std::thread::spawn(move || {
            for response in responses {
                let (mut stream, _) = listener.accept().unwrap();
                // Read the whole request: closing a socket with unread
                // input resets the connection instead of ending it.
                let mut request = Vec::new();
                let mut buf = [0u8; 256];
                while !request.windows(4).any(|w| w == b"\r\n\r\n") {
                    let n = stream.read(&mut buf).unwrap();
                    assert!(n > 0, "client closed mid-request");
                    request.extend_from_slice(&buf[..n]);
                }
                stream.write_all(response.as_bytes()).unwrap();
                if response.contains("\"finished\": true") {
                    let _ = rx.recv();
                }
            }
        });
        (addr, tx)
    }

    const STREAM: &str = "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n\r\n";

    #[test]
    fn waiter_ends_on_the_finished_snapshot_without_waiting_for_close() {
        let events: &'static str = Box::leak(
            format!(
                "{STREAM}{{\"finished\": false, \"sim_cycles\": 0}}\n\
                 {{\"finished\": true, \"sim_cycles\": 4321}}\n"
            )
            .into_boxed_str(),
        );
        // The fake keeps this stream open until `_hold` drops.
        let (addr, _hold) = fake(vec![events]);
        assert_eq!(wait_finished(&addr, 1), Ok(4321));
    }

    #[test]
    fn waiter_reports_a_failed_job() {
        let events: &'static str = Box::leak(
            format!("{STREAM}{{\"finished\": false, \"sim_cycles\": 0}}\n").into_boxed_str(),
        );
        let status = "HTTP/1.1 200 OK\r\nContent-Length: 34\r\n\r\n{\"state\": \"failed\", \"error\": \"x\"}\n";
        let (addr, _hold) = fake(vec![events, status]);
        let err = wait_finished(&addr, 1).unwrap_err();
        assert!(err.contains("ended without finishing") && err.contains("failed"), "{err}");
    }

    #[test]
    fn fresh_seeds_differ_per_client_and_pair_and_fit_the_wire() {
        let seeds: Vec<u64> =
            (0..=20).flat_map(|k| (0..CLIENTS).map(move |c| fresh_seed(7, k, c))).collect();
        let mut distinct = seeds.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), seeds.len());
        assert_eq!(fresh_seed(7, 3, 1), fresh_seed(7, 3, 1));
        assert!(seeds.iter().all(|&s| s < 1 << 53));
    }
}
