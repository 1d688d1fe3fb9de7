//! Simulation-as-a-service: the `interleave-sim serve` daemon.
//!
//! A long-running HTTP/1.1 + JSON server on [`std::net::TcpListener`] —
//! hand-rolled on the workspace's own [`interleave_obs::json`], so the
//! workspace stays offline-buildable with zero new dependencies. Jobs
//! are the same experiment specs the CLI resolves: `POST /jobs`
//! enqueues onto a bounded queue with admission control (429 +
//! `Retry-After` when full), a worker pool drains it through
//! [`interleave_bench::Runner`], and results dedupe through the
//! content-addressed [`interleave_bench::ResultCache`] keyed by the
//! resolved-spec checkpoint hash (spec × seed × crate version).
//!
//! Determinism is the service contract: because the cache key hashes
//! only result-affecting configuration and the cached serialization
//! round-trips bit-for-bit, a cached response is byte-identical to a
//! fresh run, which is byte-identical to an offline `sweep` of the same
//! spec — enforced end-to-end by the serve smoke in `scripts/check.sh`
//! and the `serve-e2e` CI job.
//!
//! Endpoints:
//!
//! | Route                  | Meaning                                        |
//! |------------------------|------------------------------------------------|
//! | `POST /jobs`           | submit a spec; 202 + status, or 429 when full  |
//! | `GET /jobs/<id>`       | status/result summary                          |
//! | `GET /jobs/<id>/bench` | the `BENCH_*` document (when done)             |
//! | `GET /jobs/<id>/metrics` | the `METRICS_*` document (when done)         |
//! | `GET /jobs/<id>/events`| newline-delimited live status snapshots        |
//! | `GET /healthz`         | liveness + queue depth                         |
//! | `GET /stats`           | queue, cache and job counters                  |
//! | `POST /shutdown`       | drain workers and stop accepting               |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod http;
pub mod job;

use std::collections::{BTreeMap, VecDeque};
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use interleave_bench::{ResultCache, Runner};
use interleave_obs::json;

use http::{Request, Response};
use job::{Job, JobPhase, JobRequest};

/// How the daemon is configured; every field has a `serve` flag.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerConfig {
    /// `host:port` to bind; port 0 picks an ephemeral port (the bound
    /// address is printed by the CLI for scripts to capture).
    pub addr: String,
    /// Jobs the pending queue admits before `POST /jobs` answers 429.
    pub queue_depth: usize,
    /// Worker threads draining the queue. `0` is a deliberate test
    /// hook: jobs queue but never run, making admission control
    /// deterministic to exercise.
    pub workers: usize,
    /// Content-addressed result-cache directory (`None` = no caching).
    pub cache_dir: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:4994".into(),
            queue_depth: 64,
            workers: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(4),
            cache_dir: None,
        }
    }
}

/// Shared state behind the accept loop, the worker pool, and every
/// connection thread.
struct ServerState {
    addr: SocketAddr,
    queue_depth: usize,
    workers: usize,
    cache: Option<Arc<ResultCache>>,
    queue: Mutex<VecDeque<Arc<Job>>>,
    queue_changed: Condvar,
    jobs: Mutex<BTreeMap<u64, Arc<Job>>>,
    next_id: AtomicU64,
    jobs_running: AtomicU64,
    jobs_done: AtomicU64,
    jobs_failed: AtomicU64,
    shutdown: AtomicBool,
}

/// The daemon: a bound listener plus its shared state. Construct with
/// [`Server::bind`], then call [`Server::run`] (which blocks until a
/// `POST /shutdown`).
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
}

impl Server {
    /// Binds the listener and prepares the shared state (no threads
    /// start until [`Server::run`]).
    ///
    /// # Errors
    ///
    /// Bind errors (address in use, bad address syntax).
    pub fn bind(config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let state = Arc::new(ServerState {
            addr,
            queue_depth: config.queue_depth.max(1),
            workers: config.workers,
            cache: config.cache_dir.map(|dir| Arc::new(ResultCache::new(dir))),
            queue: Mutex::new(VecDeque::new()),
            queue_changed: Condvar::new(),
            jobs: Mutex::new(BTreeMap::new()),
            next_id: AtomicU64::new(0),
            jobs_running: AtomicU64::new(0),
            jobs_done: AtomicU64::new(0),
            jobs_failed: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
        });
        Ok(Server { listener, state })
    }

    /// The bound address (resolves port 0 to the actual ephemeral
    /// port).
    pub fn local_addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// Serves until shut down: spawns the worker pool, accepts
    /// connections (one short-lived thread each), and joins the workers
    /// after `POST /shutdown` flips the flag.
    ///
    /// # Errors
    ///
    /// Fatal listener errors; per-connection errors are handled on the
    /// connection thread.
    pub fn run(self) -> io::Result<()> {
        let workers: Vec<_> = (0..self.state.workers)
            .map(|_| {
                let state = Arc::clone(&self.state);
                std::thread::spawn(move || worker_loop(&state))
            })
            .collect();
        for connection in self.listener.incoming() {
            if self.state.shutdown.load(Ordering::SeqCst) {
                break;
            }
            match connection {
                Ok(stream) => {
                    let state = Arc::clone(&self.state);
                    std::thread::spawn(move || handle_connection(&state, stream));
                }
                Err(e) => eprintln!("serve: accept error: {e}"),
            }
        }
        self.state.queue_changed.notify_all();
        for worker in workers {
            let _ = worker.join();
        }
        Ok(())
    }
}

/// One worker: pops jobs and sweeps them until shutdown. Waits with a
/// timeout so a shutdown raised between publishes is never missed.
fn worker_loop(state: &Arc<ServerState>) {
    loop {
        let job = {
            let mut queue = state.queue.lock().expect("queue lock");
            loop {
                if state.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                queue = state
                    .queue_changed
                    .wait_timeout(queue, Duration::from_millis(250))
                    .expect("queue lock")
                    .0;
            }
        };
        run_job(state, &job);
    }
}

/// Executes one job on a [`Runner`] that publishes each cell's snapshot
/// into the job, backed by the server's shared result cache.
fn run_job(state: &ServerState, job: &Arc<Job>) {
    job.set_phase(JobPhase::Running);
    state.jobs_running.fetch_add(1, Ordering::Relaxed);
    let observed = Arc::clone(job);
    let mut runner = Runner::new(job.request.jobs.unwrap_or(1).min(job::MAX_JOBS_PER_REQUEST))
        .observe(move |snapshot| observed.publish(snapshot.clone()));
    if let Some(cache) = &state.cache {
        runner = runner.result_cache(Arc::clone(cache));
    }
    // A panicking cell must fail the job, not the worker thread: the
    // daemon stays up and keeps serving the queue.
    let swept = catch_unwind(AssertUnwindSafe(|| runner.run(&job.spec)));
    state.jobs_running.fetch_sub(1, Ordering::Relaxed);
    match swept {
        Ok(sweep) => {
            job.set_phase(JobPhase::Done(Box::new(job::JobOutput {
                bench_json: sweep.to_json(),
                metrics_json: sweep.metrics_json(),
                cells: sweep.cells.len(),
                cached_cells: sweep.resumed,
                wall_ms: u64::try_from(sweep.wall.as_millis()).unwrap_or(u64::MAX),
                sim_cycles: sweep.cells.iter().map(|(_, r)| r.cycles()).sum(),
            })));
            state.jobs_done.fetch_add(1, Ordering::Relaxed);
        }
        Err(_) => {
            job.set_phase(JobPhase::Failed("sweep panicked on the worker".into()));
            state.jobs_failed.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Reads one request off the connection, routes it, and writes the
/// response. Protocol errors answer 400; the connection always closes
/// afterwards (`Connection: close` framing throughout).
fn handle_connection(state: &Arc<ServerState>, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut stream = stream;
    let request = match http::read_request(&mut reader) {
        Ok(request) => request,
        Err(e) => {
            let _ = Response::error(400, &format!("malformed request: {e}")).write_to(&mut stream);
            return;
        }
    };
    // The events stream writes its own frames and keeps the connection
    // open; everything else is a complete response document.
    if let Some(id) = request
        .path
        .strip_prefix("/jobs/")
        .and_then(|rest| rest.strip_suffix("/events"))
        .and_then(|id| id.parse::<u64>().ok())
    {
        if request.method == "GET" {
            stream_events(state, id, &mut stream);
            return;
        }
    }
    let response = route(state, &request);
    let _ = response.write_to(&mut stream);
}

/// Dispatches one non-streaming request.
fn route(state: &Arc<ServerState>, request: &Request) -> Response {
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/jobs") => submit(state, &request.body),
        ("GET", "/healthz") => healthz(state),
        ("GET", "/stats") => stats(state),
        ("POST", "/shutdown") => shutdown(state),
        (method, path) if path.starts_with("/jobs/") => {
            let rest = &path["/jobs/".len()..];
            let (id, tail) = match rest.split_once('/') {
                Some((id, tail)) => (id, Some(tail)),
                None => (rest, None),
            };
            let Ok(id) = id.parse::<u64>() else {
                return Response::error(404, &format!("bad job id `{id}`"));
            };
            if method != "GET" {
                return Response::error(405, "job routes are GET-only");
            }
            let Some(job) = state.jobs.lock().expect("jobs lock").get(&id).cloned() else {
                return Response::error(404, &format!("no job {id}"));
            };
            match tail {
                None => Response::json(200, job.status_json()),
                Some("bench") => artifact(&job, |out| out.bench_json.clone()),
                Some("metrics") => artifact(&job, |out| out.metrics_json.clone()),
                Some(other) => Response::error(404, &format!("no route /jobs/<id>/{other}")),
            }
        }
        ("GET", path) => Response::error(404, &format!("no route {path}")),
        (method, _) => Response::error(405, &format!("method {method} not supported")),
    }
}

/// `POST /jobs`: parse, validate, admission-control, enqueue.
fn submit(state: &Arc<ServerState>, body: &str) -> Response {
    // The parser reports byte offsets, so a malformed body gets a
    // parse-position message (e.g. "expected ',' or '}' at byte 17").
    let doc = match json::parse(body) {
        Ok(doc) => doc,
        Err(e) => return Response::error(400, &format!("invalid JSON: {e}")),
    };
    let job_request = match JobRequest::from_value(&doc) {
        Ok(job_request) => job_request,
        Err(e) => return Response::error(400, &e),
    };
    // Resolve the spec before taking the queue lock (cheap, but no
    // reason to hold the lock for it) by constructing the job eagerly;
    // admission decides whether it gets an id and a slot.
    let mut queue = state.queue.lock().expect("queue lock");
    if queue.len() >= state.queue_depth {
        return Response::error(
            429,
            &format!("queue full ({} pending jobs); retry shortly", queue.len()),
        )
        .with_header("Retry-After", "1");
    }
    let id = state.next_id.fetch_add(1, Ordering::SeqCst) + 1;
    let job = match Job::new(id, job_request) {
        Ok(job) => Arc::new(job),
        Err(e) => return Response::error(400, &e),
    };
    queue.push_back(Arc::clone(&job));
    drop(queue);
    state.jobs.lock().expect("jobs lock").insert(id, Arc::clone(&job));
    state.queue_changed.notify_one();
    Response::json(202, job.status_json())
}

/// `GET /jobs/<id>/bench|metrics`: the artifact document, once done.
fn artifact(job: &Job, pick: impl Fn(&job::JobOutput) -> String) -> Response {
    match &job.state().phase {
        JobPhase::Done(out) => Response::json(200, pick(out)),
        JobPhase::Failed(error) => Response::error(500, error),
        phase @ (JobPhase::Queued | JobPhase::Running) => Response::error(
            409,
            &format!("job {} is {}; artifacts appear once it is done", job.id, phase.name()),
        ),
    }
}

/// `GET /jobs/<id>/events`: stream newline-delimited status snapshots
/// until the job finishes (or the client goes away).
fn stream_events(state: &Arc<ServerState>, id: u64, stream: &mut TcpStream) {
    let Some(job) = state.jobs.lock().expect("jobs lock").get(&id).cloned() else {
        let _ = Response::error(404, &format!("no job {id}")).write_to(stream);
        return;
    };
    if write!(
        stream,
        "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nConnection: close\r\n\r\n"
    )
    .and_then(|()| stream.flush())
    .is_err()
    {
        return;
    }
    write_events(&job, &state.shutdown, stream);
}

/// Writes each newer snapshot of `job` as one `interleave-status-v2`
/// line. The Runner reports its `finished` snapshot before the worker
/// stores the job's artifacts, so that line is held back until the phase
/// is `done`: once a client has read it, `/jobs/<id>/metrics` answers.
/// Returns after the `finished` line, at once when the job fails, on
/// `shutdown`, or when a write fails. The 250 ms wait bound exists only
/// to notice `shutdown`.
fn write_events(job: &Job, shutdown: &AtomicBool, out: &mut impl Write) {
    // The version of the last snapshot written (`None` before the first).
    let mut seen: Option<u64> = None;
    while !shutdown.load(Ordering::SeqCst) {
        let newer = |s: &job::JobState| seen.is_none_or(|v| s.version > v);
        let job_state = job.wait_until(Duration::from_millis(250), |s| {
            s.phase.is_terminal() || (newer(s) && !s.snapshot.finished)
        });
        let done = match job_state.phase {
            JobPhase::Failed(_) => return,
            JobPhase::Done(_) => true,
            JobPhase::Queued | JobPhase::Running => false,
        };
        if newer(&job_state) && (done || !job_state.snapshot.finished) {
            seen = Some(job_state.version);
            let line = job_state.snapshot.to_json_line();
            drop(job_state);
            if writeln!(out, "{line}").and_then(|()| out.flush()).is_err() {
                return;
            }
        }
        if done {
            return;
        }
    }
}

/// `GET /healthz`.
fn healthz(state: &ServerState) -> Response {
    let queued = state.queue.lock().expect("queue lock").len();
    Response::json(
        200,
        format!(
            "{{\"schema\": \"interleave-healthz-v1\", \"ok\": true, \"queued\": {queued}, \
             \"workers\": {}}}\n",
            state.workers
        ),
    )
}

/// `GET /stats`: queue depth, job counters and cache hit rate.
fn stats(state: &ServerState) -> Response {
    let queued = state.queue.lock().expect("queue lock").len();
    let (cache_hits, cache_misses, cache_hit_rate) = match &state.cache {
        Some(cache) => (cache.hits(), cache.misses(), cache.hit_rate()),
        None => (0, 0, 0.0),
    };
    Response::json(
        200,
        format!(
            "{{\"schema\": \"interleave-stats-v2\", \"queued\": {queued}, \
             \"queue_depth\": {}, \"workers\": {}, \"jobs_submitted\": {}, \
             \"jobs_running\": {}, \"jobs_done\": {}, \"jobs_failed\": {}, \
             \"cache_enabled\": {}, \"cache_hits\": {cache_hits}, \
             \"cache_misses\": {cache_misses}, \"cache_hit_rate\": {cache_hit_rate:.4}}}\n",
            state.queue_depth,
            state.workers,
            state.next_id.load(Ordering::SeqCst),
            state.jobs_running.load(Ordering::Relaxed),
            state.jobs_done.load(Ordering::Relaxed),
            state.jobs_failed.load(Ordering::Relaxed),
            state.cache.is_some(),
        ),
    )
}

/// `POST /shutdown`: flip the flag, then self-connect to pop the
/// accept loop out of `accept()` so `run` can join the workers. No
/// orphan listener survives: the loop exits and the socket closes with
/// the process.
fn shutdown(state: &Arc<ServerState>) -> Response {
    state.shutdown.store(true, Ordering::SeqCst);
    state.queue_changed.notify_all();
    let _ = TcpStream::connect(state.addr);
    Response::json(200, "{\"ok\": true, \"shutting_down\": true}\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead;
    use std::sync::mpsc::{self, Receiver, RecvTimeoutError};

    /// Streams a fresh queued smoke job's events on a scoped thread and
    /// runs `drive` with the job and a channel of the stream's lines,
    /// which disconnects when the stream ends.
    fn with_events(drive: impl FnOnce(&Job, &Receiver<String>)) {
        let request = JobRequest::from_value(&json::parse(r#"{"artifact": "smoke"}"#).unwrap());
        let job = &Job::new(1, request.unwrap()).unwrap();
        let (reader, mut writer) = io::pipe().unwrap();
        let (lines, rx) = mpsc::channel();
        let shutdown = &AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(move || write_events(job, shutdown, &mut writer));
            s.spawn(move || {
                for line in BufReader::new(reader).lines().map_while(Result::ok) {
                    let _ = lines.send(line);
                }
            });
            let outcome = catch_unwind(AssertUnwindSafe(|| drive(job, &rx)));
            // A failed assertion must not leave the stream waiting forever.
            shutdown.store(true, Ordering::SeqCst);
            if let Err(panic) = outcome {
                std::panic::resume_unwind(panic);
            }
        });
    }

    /// A failed job never reports `finished`: its stream ends as soon as
    /// the phase turns, not at the next wait timeout.
    #[test]
    fn events_end_at_once_when_the_job_fails() {
        with_events(|job, lines| {
            assert!(lines.recv().unwrap().contains("\"done\": 0,"), "the seeded snapshot");
            job.set_phase(JobPhase::Running);
            job.set_phase(JobPhase::Failed("boom".into()));
            assert_eq!(
                lines.recv_timeout(Duration::from_millis(150)),
                Err(RecvTimeoutError::Disconnected),
                "the stream ends at once, with no further line"
            );
        });
    }

    /// The `finished` line waits for the `done` phase, so a client that
    /// has read it can fetch the artifacts.
    #[test]
    fn finished_line_waits_for_the_done_phase() {
        with_events(|job, lines| {
            assert!(lines.recv().unwrap().contains("\"done\": 0,"), "the seeded snapshot");
            let mut snapshot = job.state().snapshot.clone();
            (snapshot.done, snapshot.finished) = (snapshot.total, true);
            job.publish(snapshot);
            // Longer than the stream's 250 ms wait bound.
            let held = lines.recv_timeout(Duration::from_millis(300));
            assert_eq!(held, Err(RecvTimeoutError::Timeout), "`finished` is held while it runs");
            job.set_phase(JobPhase::Done(Box::new(job::JobOutput {
                bench_json: String::new(),
                metrics_json: String::new(),
                cells: job.total_cells,
                cached_cells: 0,
                wall_ms: 0,
                sim_cycles: 0,
            })));
            assert!(lines.recv().unwrap().contains("\"finished\": true"));
            assert!(lines.recv().is_err(), "the stream ends after `finished`");
        });
    }
}
