//! Job requests and lifecycle state for the serve daemon.
//!
//! A `POST /jobs` body is a [`JobRequest`]: the same artifact name and
//! knobs the `sweep` subcommand resolves, as JSON. It resolves through
//! [`interleave_bench::one_grid_spec`] into exactly the grid the CLI
//! would run, so a job served over the wire and an offline sweep of the
//! same spec are the same computation — the foundation of the
//! byte-identity guarantee the determinism gates enforce.

use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Duration;

use interleave_bench::{one_grid_spec, ExperimentSpec, Scale, Snapshot};
use interleave_obs::json::{escape, Value, MAX_SAFE_INTEGER};

/// Host worker threads a single job may claim (`"jobs"` knob cap): a
/// queue full of greedy requests must not oversubscribe the machine,
/// and results are bit-identical at every value anyway.
pub const MAX_JOBS_PER_REQUEST: usize = 8;

/// A parsed `POST /jobs` body: artifact name plus the optional knobs
/// the `sweep` subcommand exposes. Knob names match the CLI flags.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRequest {
    /// One-grid artifact to run (see [`interleave_bench::artifacts`]).
    pub artifact: String,
    /// Problem scale (`None` = the server's default, [`Scale::Ci`]).
    pub scale: Option<Scale>,
    /// Explicit stream seed (result-affecting).
    pub seed: Option<u64>,
    /// Host worker threads for this job (bit-invisible; capped at
    /// [`MAX_JOBS_PER_REQUEST`]).
    pub jobs: Option<usize>,
    /// Host threads per multiprocessor cell (bit-invisible).
    pub mp_jobs: Option<usize>,
}

impl JobRequest {
    /// Parses a request from its JSON document.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field: missing/bad
    /// `artifact`, a bad knob value, or an unknown key (strict, so a
    /// typo like `"sede"` fails loudly instead of silently running the
    /// default).
    pub fn from_value(doc: &Value) -> Result<JobRequest, String> {
        let Value::Obj(fields) = doc else {
            return Err("job spec must be a JSON object".into());
        };
        for key in fields.keys() {
            if !["artifact", "scale", "seed", "jobs", "mp_jobs"].contains(&key.as_str()) {
                return Err(format!("unknown job-spec key `{key}`"));
            }
        }
        let artifact = doc
            .get("artifact")
            .and_then(Value::as_str)
            .ok_or_else(|| {
                format!(
                    "job spec requires a string `artifact` ({})",
                    interleave_bench::artifacts::one_grid_names().join(", ")
                )
            })?
            .to_string();
        let scale =
            match doc.get("scale") {
                None => None,
                Some(v) => {
                    let name = v.as_str().ok_or("`scale` must be \"ci\" or \"full\"")?;
                    Some(Scale::parse(name).ok_or_else(|| {
                        format!("`scale` must be \"ci\" or \"full\", got \"{name}\"")
                    })?)
                }
            };
        let num = |key: &str| -> Result<Option<u64>, String> {
            match doc.get(key) {
                None => Ok(None),
                Some(v) => v.as_u64().map(Some).ok_or(format!(
                    "`{key}` must be a non-negative integer of at most {MAX_SAFE_INTEGER}"
                )),
            }
        };
        Ok(JobRequest {
            artifact,
            scale,
            seed: num("seed")?,
            jobs: num("jobs")?.map(|n| n as usize),
            mp_jobs: num("mp_jobs")?.map(|n| n as usize),
        })
    }

    /// Serializes the request back to its wire shape (used by the
    /// `submit` subcommand).
    pub fn to_json(&self) -> String {
        let mut fields = vec![format!("\"artifact\": {}", escape(&self.artifact))];
        if let Some(scale) = self.scale {
            fields.push(format!("\"scale\": \"{}\"", scale.name()));
        }
        if let Some(seed) = self.seed {
            fields.push(format!("\"seed\": {seed}"));
        }
        if let Some(jobs) = self.jobs {
            fields.push(format!("\"jobs\": {jobs}"));
        }
        if let Some(mp_jobs) = self.mp_jobs {
            fields.push(format!("\"mp_jobs\": {mp_jobs}"));
        }
        format!("{{{}}}\n", fields.join(", "))
    }

    /// Resolves the request into the experiment grid it describes —
    /// identical to what `sweep --artifact <a> [--seed N ...]` runs.
    ///
    /// # Errors
    ///
    /// Returns a message naming the artifact when it is unknown or not
    /// exactly one grid.
    pub fn to_spec(&self) -> Result<ExperimentSpec, String> {
        one_grid_spec(&self.artifact, self.scale.unwrap_or(Scale::Ci), self.seed, self.mp_jobs)
    }
}

/// A finished job's artifacts and accounting.
#[derive(Debug, Clone)]
pub struct JobOutput {
    /// The `BENCH_*` document a `sweep --json` of this spec writes.
    pub bench_json: String,
    /// The `METRICS_*` document (deterministic, byte-stable).
    pub metrics_json: String,
    /// Cells in the grid.
    pub cells: usize,
    /// Cells served from the result cache instead of recomputed.
    pub cached_cells: usize,
    /// Wall-clock milliseconds the sweep took on the worker.
    pub wall_ms: u64,
    /// Simulated cycles summed over the grid.
    pub sim_cycles: u64,
}

/// Lifecycle phase of a job.
#[derive(Debug, Clone)]
pub enum JobPhase {
    /// Admitted, waiting for a worker.
    Queued,
    /// A worker is sweeping the grid.
    Running,
    /// Finished; artifacts are ready to fetch.
    Done(Box<JobOutput>),
    /// The sweep did not complete.
    Failed(String),
}

impl JobPhase {
    /// Whether the phase is `done` or `failed`.
    pub(crate) fn is_terminal(&self) -> bool {
        matches!(self, JobPhase::Done(_) | JobPhase::Failed(_))
    }

    /// The wire name of the phase.
    pub fn name(&self) -> &'static str {
        match self {
            JobPhase::Queued => "queued",
            JobPhase::Running => "running",
            JobPhase::Done(_) => "done",
            JobPhase::Failed(_) => "failed",
        }
    }
}

/// One admitted job: its request, resolved spec, and live state. Shared
/// between the accept loop, the worker pool, and any number of events
/// streams via `Arc`.
#[derive(Debug)]
pub struct Job {
    /// Server-assigned id (sequential, starting at 1).
    pub id: u64,
    /// The request as submitted.
    pub request: JobRequest,
    /// The resolved experiment grid.
    pub spec: ExperimentSpec,
    /// Cells in the grid.
    pub total_cells: usize,
    state: Mutex<JobState>,
    /// Signalled on every phase transition and every published snapshot.
    changed: Condvar,
}

/// What a job's readers watch: its phase and its latest progress
/// snapshot, with a version that counts snapshots.
#[derive(Debug)]
pub(crate) struct JobState {
    /// Lifecycle phase.
    pub(crate) phase: JobPhase,
    /// The latest snapshot (0 cells done until the first cell finishes).
    pub(crate) snapshot: Snapshot,
    /// Bumped by every [`Job::publish`]; the seeded snapshot is version 0.
    pub(crate) version: u64,
}

impl Job {
    /// Admits a request: resolves its spec and seeds the 0-cells-done
    /// snapshot, so an events stream opened before the job runs has a
    /// line to send.
    ///
    /// # Errors
    ///
    /// Returns the spec-resolution message (unknown artifact).
    pub fn new(id: u64, request: JobRequest) -> Result<Job, String> {
        let spec = request.to_spec()?;
        let total_cells = spec.cells().len();
        let snapshot = Snapshot {
            artifact: spec.name().to_string(),
            done: 0,
            total: total_cells,
            cells_per_sec: 0.0,
            eta_secs: 0.0,
            sim_cycles: 0,
            sim_cycles_per_sec: 0.0,
            finished: false,
        };
        Ok(Job {
            id,
            request,
            spec,
            total_cells,
            state: Mutex::new(JobState { phase: JobPhase::Queued, snapshot, version: 0 }),
            changed: Condvar::new(),
        })
    }

    /// The job's state (phase, latest snapshot, version), locked.
    pub(crate) fn state(&self) -> MutexGuard<'_, JobState> {
        self.state.lock().expect("job state lock")
    }

    /// Transitions the phase and wakes every waiting reader.
    pub fn set_phase(&self, phase: JobPhase) {
        self.state().phase = phase;
        self.changed.notify_all();
    }

    /// Stores the latest progress snapshot, bumps the version, and wakes
    /// every waiting reader.
    pub(crate) fn publish(&self, snapshot: Snapshot) {
        let mut state = self.state();
        state.snapshot = snapshot;
        state.version += 1;
        drop(state);
        self.changed.notify_all();
    }

    /// Waits up to `timeout` for `ready` to hold and returns the locked
    /// state (whether or not it does).
    pub(crate) fn wait_until(
        &self,
        timeout: Duration,
        ready: impl Fn(&JobState) -> bool,
    ) -> MutexGuard<'_, JobState> {
        self.changed
            .wait_timeout_while(self.state(), timeout, |state| !ready(state))
            .expect("job state lock")
            .0
    }

    /// The `GET /jobs/<id>` status document.
    pub fn status_json(&self) -> String {
        let mut fields = vec![
            "\"schema\": \"interleave-job-v1\"".to_string(),
            format!("\"id\": {}", self.id),
            format!("\"artifact\": {}", escape(&self.request.artifact)),
            format!("\"scale\": \"{}\"", self.spec.scale().name()),
            format!("\"cells\": {}", self.total_cells),
        ];
        let state = self.state();
        let phase = &state.phase;
        fields.push(format!("\"state\": \"{}\"", phase.name()));
        match phase {
            JobPhase::Done(out) => {
                fields.push(format!("\"cached_cells\": {}", out.cached_cells));
                fields.push(format!("\"wall_ms\": {}", out.wall_ms));
                fields.push(format!("\"sim_cycles\": {}", out.sim_cycles));
            }
            JobPhase::Failed(error) => fields.push(format!("\"error\": {}", escape(error))),
            JobPhase::Queued | JobPhase::Running => {}
        }
        format!("{{{}}}\n", fields.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use interleave_obs::json;

    fn request(body: &str) -> Result<JobRequest, String> {
        JobRequest::from_value(&json::parse(body).expect("test body parses"))
    }

    #[test]
    fn parses_full_and_minimal_requests() {
        let minimal = request(r#"{"artifact": "smoke"}"#).unwrap();
        assert_eq!(minimal.artifact, "smoke");
        assert_eq!(minimal.seed, None);
        let full =
            request(r#"{"artifact": "table7", "scale": "ci", "seed": 7, "jobs": 2, "mp_jobs": 4}"#)
                .unwrap();
        assert_eq!(full.scale, Some(Scale::Ci));
        assert_eq!(full.seed, Some(7));
        assert_eq!(full.jobs, Some(2));
        assert_eq!(full.mp_jobs, Some(4));
        // Wire round-trip: to_json parses back to the same request.
        let reparsed = request(&full.to_json()).unwrap();
        assert_eq!(reparsed, full);
    }

    #[test]
    fn rejects_bad_requests_with_field_names() {
        for (body, needle) in [
            (r#"{"scale": "ci"}"#, "artifact"),
            (r#"{"artifact": 7}"#, "artifact"),
            (r#"{"artifact": "smoke", "scale": "huge"}"#, "scale"),
            (r#"{"artifact": "smoke", "seed": -1}"#, "seed"),
            // A retired host switch is an unknown key like any typo.
            (r#"{"artifact": "smoke", "adaptive": false}"#, "unknown job-spec key `adaptive`"),
            (r#"{"artifact": "smoke", "sede": 1}"#, "sede"),
            (r#"[1, 2]"#, "object"),
        ] {
            let err = request(body).unwrap_err();
            assert!(err.contains(needle), "`{body}` -> `{err}` should mention `{needle}`");
        }
    }

    #[test]
    fn rejects_seeds_a_double_cannot_hold() {
        let max = request(r#"{"artifact": "smoke", "seed": 9007199254740991}"#).unwrap();
        assert_eq!(max.seed, Some(MAX_SAFE_INTEGER));
        // 2^53 + 1 would parse as 2^53 and run (and cache) another seed.
        for seed in ["9007199254740992", "9007199254740993", "18446744073709551615"] {
            let err = request(&format!(r#"{{"artifact": "smoke", "seed": {seed}}}"#)).unwrap_err();
            assert!(err.contains("`seed`"), "{seed} -> {err}");
        }
    }

    #[test]
    fn job_resolves_spec_and_tracks_phase() {
        let job = Job::new(3, request(r#"{"artifact": "smoke", "seed": 5}"#).unwrap()).unwrap();
        assert_eq!(job.spec.name(), "smoke");
        assert!(job.total_cells > 0);
        assert!(!job.state().phase.is_terminal());
        assert!(job.status_json().contains("\"state\": \"queued\""));
        // The initial snapshot is seeded at admission for early readers.
        let state = job.state();
        assert_eq!((state.snapshot.done, state.snapshot.total), (0, job.total_cells));
        assert_eq!(state.version, 0);
        drop(state);
        let terminal = |s: &JobState| s.phase.is_terminal();
        assert!(!job.wait_until(Duration::from_millis(1), terminal).phase.is_terminal());
        job.set_phase(JobPhase::Failed("boom".into()));
        assert!(job.wait_until(Duration::ZERO, terminal).phase.is_terminal());
        let status = job.status_json();
        assert!(status.contains("\"state\": \"failed\""), "{status}");
        assert!(status.contains("\"error\": \"boom\""), "{status}");
        // Unknown artifacts fail at admission, not on the worker.
        assert!(Job::new(4, request(r#"{"artifact": "nope"}"#).unwrap()).is_err());
    }

    /// Every reader keeps its own `seen` version, so one publish wakes
    /// and reaches them all.
    #[test]
    fn one_publish_reaches_every_waiting_reader() {
        let job = &Job::new(1, request(r#"{"artifact": "smoke"}"#).unwrap()).unwrap();
        let mut published = job.state().snapshot.clone();
        published.done = 1;
        let started = std::time::Instant::now();
        std::thread::scope(|s| {
            let readers: Vec<_> = (0..2)
                .map(|_| {
                    let seen = job.state().version;
                    s.spawn(move || {
                        let state = job.wait_until(Duration::from_secs(30), |j| j.version > seen);
                        (state.version, state.snapshot.done)
                    })
                })
                .collect();
            job.publish(published);
            for reader in readers {
                assert_eq!(reader.join().unwrap(), (1, 1));
            }
        });
        assert!(started.elapsed() < Duration::from_secs(10), "readers were not woken");
    }
}
