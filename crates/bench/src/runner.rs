//! Unified experiment API: specs, cells, and a parallel sweep runner.
//!
//! Every registered artifact (see [`crate::artifacts`]), the
//! `interleave-sim sweep` subcommand, and the serve daemon describe
//! their work as an [`ExperimentSpec`] — a grid of (target × scheme ×
//! context-count × seed) cells plus configuration overrides — and hand
//! it to a [`Runner`], which executes the cells across OS threads and
//! aggregates the results into a [`SweepResult`].
//!
//! Determinism is the design invariant: cells are enumerated in a fixed
//! order, each cell's configuration (including its seed) is a pure
//! function of its coordinates, and workers write results into
//! index-addressed slots, so a sweep produces bit-identical results
//! whether it runs serially or on any number of threads (see the
//! `determinism` integration test).

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::cache::ResultCache;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use interleave_core::{Scheme, StorePolicy};
use interleave_mp::{LatencyModel, MpResult, MpSim, MpSimBuilder, SplashProfile};
use interleave_obs::bus::Watch;
use interleave_obs::json;
use interleave_obs::profile::{self, PhaseProfile};
use interleave_obs::Registry;
use interleave_stats::{Breakdown, Category, Table};
use interleave_workloads::mixes::Workload;
use interleave_workloads::{MultiprogramResult, MultiprogramSim, MultiprogramSimBuilder, OsModel};

/// Problem scale (`--scale ci|full`).
///
/// [`Scale::Ci`] preserves the paper's shapes at sizes that finish in
/// seconds; [`Scale::Full`] is the paper-scale configuration (36 ×
/// 6M-cycle time slices, 16-node machines). All scale-dependent knobs in
/// the workspace resolve through this type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Scaled-down configuration for CI and quick iteration (default).
    Ci,
    /// Paper-scale configuration (`--scale full`).
    Full,
}

impl Scale {
    /// Parses `"ci"` / `"full"` (as accepted by `sweep --scale`).
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "ci" => Some(Scale::Ci),
            "full" => Some(Scale::Full),
            _ => None,
        }
    }

    /// Name used in reports and JSON (`ci` / `full`).
    pub fn name(self) -> &'static str {
        match self {
            Scale::Ci => "ci",
            Scale::Full => "full",
        }
    }

    /// Per-application instruction quota for uniprocessor runs.
    pub fn uni_quota(self) -> u64 {
        match self {
            Scale::Ci => 40_000,
            Scale::Full => 1_500_000,
        }
    }

    /// Warmup cycles for uniprocessor runs.
    pub fn uni_warmup(self) -> u64 {
        match self {
            Scale::Ci => 30_000,
            Scale::Full => 6_000_000,
        }
    }

    /// Operating-system model for uniprocessor runs.
    pub fn os_model(self) -> OsModel {
        match self {
            Scale::Ci => OsModel::scaled(),
            Scale::Full => OsModel::paper_scale(),
        }
    }

    /// Multiprocessor node count (the paper's DASH-like machine is 16
    /// nodes; the scaled machine is 8).
    pub fn mp_nodes(self) -> usize {
        match self {
            Scale::Ci => 8,
            Scale::Full => 16,
        }
    }

    /// Total application work for multiprocessor runs.
    pub fn mp_work(self) -> u64 {
        match self {
            Scale::Ci => 400_000,
            Scale::Full => 4_000_000,
        }
    }

    /// Warmup cycles for multiprocessor runs.
    pub fn mp_warmup(self) -> u64 {
        match self {
            Scale::Ci => 20_000,
            Scale::Full => 100_000,
        }
    }
}

/// One disjoint slice of an experiment grid: shard `index` of `count`
/// (1-based, as written on the command line: `--shard 2/4`).
///
/// Shard `k` of `n` owns the cells whose canonical grid index `i`
/// satisfies `i % n == k - 1` (round-robin). The assignment is a pure
/// function of the spec and the shard coordinates — never of execution
/// — so for any `n` the `n` slices are disjoint, cover the grid, and
/// are stable across invocations and machines (pinned by a property
/// test in `tests/sweep_determinism.rs`). Round-robin also spreads each
/// target's cheap baseline cells and expensive high-context cells
/// evenly across shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    index: usize,
    count: usize,
}

impl Shard {
    /// Shard `index` of `count`.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= index <= count`.
    pub fn new(index: usize, count: usize) -> Shard {
        assert!((1..=count).contains(&index), "shard index must be in 1..={count}, got {index}");
        Shard { index, count }
    }

    /// Parses the command-line form `K/N` (e.g. `2/4`). `None` for
    /// anything malformed or out of range.
    pub fn parse(s: &str) -> Option<Shard> {
        let (k, n) = s.split_once('/')?;
        let index = k.trim().parse::<usize>().ok()?;
        let count = n.trim().parse::<usize>().ok()?;
        (1..=count).contains(&index).then_some(Shard { index, count })
    }

    /// 1-based shard index.
    pub fn index(self) -> usize {
        self.index
    }

    /// Total number of shards.
    pub fn count(self) -> usize {
        self.count
    }

    /// The canonical grid indices this shard owns, in ascending order.
    pub fn indices(self, grid_cells: usize) -> impl Iterator<Item = usize> {
        (self.index - 1..grid_cells).step_by(self.count.max(1))
    }
}

/// What a cell simulates: a uniprocessor multiprogramming workload or a
/// multiprocessor SPLASH-like application.
#[derive(Debug, Clone)]
pub enum Target {
    /// Four-application multiprogrammed workload (paper Table 5).
    Uni(Workload),
    /// SPLASH-like parallel application (paper Table 9).
    Mp(SplashProfile),
}

impl Target {
    /// The workload or application name.
    pub fn name(&self) -> &'static str {
        match self {
            Target::Uni(w) => w.name,
            Target::Mp(a) => a.name,
        }
    }
}

/// One point of an experiment grid: target × scheme × contexts × seed.
#[derive(Debug, Clone)]
pub struct Cell {
    /// What to simulate.
    pub target: Target,
    /// Context scheduling scheme.
    pub scheme: Scheme,
    /// Hardware contexts (per processor for multiprocessor targets).
    pub contexts: usize,
    /// Explicit seed, or `None` for the sim's canonical default. The
    /// seed is part of the cell's coordinates, never derived from
    /// execution order, so sweeps are reproducible under any schedule.
    pub seed: Option<u64>,
}

/// The result of one cell.
#[derive(Debug, Clone, PartialEq)]
pub enum CellResult {
    /// Uniprocessor multiprogramming result (boxed: results are large
    /// and move through worker queues and sweep vectors).
    Uni(Box<MultiprogramResult>),
    /// Multiprocessor result.
    Mp(Box<MpResult>),
}

impl CellResult {
    /// Measured cycles.
    pub fn cycles(&self) -> u64 {
        match self {
            CellResult::Uni(r) => r.cycles,
            CellResult::Mp(r) => r.cycles,
        }
    }

    /// Execution-time breakdown.
    pub fn breakdown(&self) -> &Breakdown {
        match self {
            CellResult::Uni(r) => &r.breakdown,
            CellResult::Mp(r) => &r.breakdown,
        }
    }

    /// Processor utilization (busy fraction of the breakdown).
    pub fn utilization(&self) -> f64 {
        self.breakdown().fraction(Category::Busy)
    }

    /// The uniprocessor result, if this cell ran one.
    pub fn as_uni(&self) -> Option<&MultiprogramResult> {
        match self {
            CellResult::Uni(r) => Some(r),
            CellResult::Mp(_) => None,
        }
    }

    /// The multiprocessor result, if this cell ran one.
    pub fn as_mp(&self) -> Option<&MpResult> {
        match self {
            CellResult::Mp(r) => Some(r),
            CellResult::Uni(_) => None,
        }
    }

    /// The cell's instrumentation registry (counters and histograms).
    pub fn metrics(&self) -> &Registry {
        match self {
            CellResult::Uni(r) => &r.metrics,
            CellResult::Mp(r) => &r.metrics,
        }
    }
}

/// Configuration overrides applied uniformly to every cell of a spec.
///
/// `None` means "use the scale-resolved default". Uniprocessor-only
/// knobs are ignored by multiprocessor cells and vice versa.
#[derive(Debug, Clone, Default)]
struct Overrides {
    quota: Option<u64>,
    warmup: Option<u64>,
    os: Option<OsModel>,
    btb_entries: Option<usize>,
    store_policy: Option<StorePolicy>,
    nodes: Option<usize>,
    work: Option<u64>,
    latency: Option<LatencyModel>,
    idle_skip: Option<bool>,
    adaptive: Option<bool>,
    mp_jobs: Option<usize>,
}

/// Declarative description of an experiment grid.
///
/// A spec is a set of targets crossed with schemes, context counts, and
/// seeds, plus overrides. Build one with the fluent methods, then hand
/// it to [`Runner::run`]:
///
/// ```
/// use interleave_bench::runner::{ExperimentSpec, Runner, Scale};
/// use interleave_core::Scheme;
/// use interleave_workloads::mixes;
///
/// let spec = ExperimentSpec::new("demo", Scale::Ci)
///     .uni(mixes::fp())
///     .schemes([Scheme::Blocked, Scheme::Interleaved])
///     .contexts([2])
///     .quota(2_000) // tiny run for the doctest
///     .warmup(500);
/// let sweep = Runner::serial().run(&spec);
/// assert_eq!(sweep.cells.len(), 3); // baseline + 2 schemes × 1 count
/// ```
#[derive(Debug, Clone)]
pub struct ExperimentSpec {
    name: String,
    scale: Scale,
    targets: Vec<Target>,
    schemes: Vec<Scheme>,
    contexts: Vec<usize>,
    seeds: Vec<Option<u64>>,
    baseline: bool,
    overrides: Overrides,
}

impl ExperimentSpec {
    /// A new empty spec named `name` (used for table titles and the
    /// `BENCH_<name>.json` artifact stem) at the given scale. Defaults:
    /// no targets, schemes `[Blocked, Interleaved]`, contexts `[2, 4]`,
    /// the default seed, baseline included.
    pub fn new(name: impl Into<String>, scale: Scale) -> ExperimentSpec {
        ExperimentSpec {
            name: name.into(),
            scale,
            targets: Vec::new(),
            schemes: vec![Scheme::Blocked, Scheme::Interleaved],
            contexts: vec![2, 4],
            seeds: vec![None],
            baseline: true,
            overrides: Overrides::default(),
        }
    }

    /// Adds a uniprocessor multiprogramming workload target.
    pub fn uni(mut self, workload: Workload) -> Self {
        self.targets.push(Target::Uni(workload));
        self
    }

    /// Adds a multiprocessor application target.
    pub fn mp(mut self, app: SplashProfile) -> Self {
        self.targets.push(Target::Mp(app));
        self
    }

    /// Replaces the scheme axis.
    pub fn schemes(mut self, schemes: impl IntoIterator<Item = Scheme>) -> Self {
        self.schemes = schemes.into_iter().collect();
        self
    }

    /// Replaces the context-count axis.
    pub fn contexts(mut self, counts: impl IntoIterator<Item = usize>) -> Self {
        self.contexts = counts.into_iter().collect();
        self
    }

    /// Replaces the seed axis with explicit seeds.
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.seeds = seeds.into_iter().map(Some).collect();
        self
    }

    /// Whether each target also runs a single-context baseline cell
    /// (default true).
    pub fn baseline(mut self, include: bool) -> Self {
        self.baseline = include;
        self
    }

    /// Overrides the uniprocessor per-application instruction quota.
    pub fn quota(mut self, quota: u64) -> Self {
        self.overrides.quota = Some(quota);
        self
    }

    /// Overrides warmup cycles (both uniprocessor and multiprocessor).
    pub fn warmup(mut self, cycles: u64) -> Self {
        self.overrides.warmup = Some(cycles);
        self
    }

    /// Overrides the uniprocessor operating-system model.
    pub fn os(mut self, os: OsModel) -> Self {
        self.overrides.os = Some(os);
        self
    }

    /// Overrides the branch-target-buffer size (0 disables the BTB).
    pub fn btb_entries(mut self, entries: usize) -> Self {
        self.overrides.btb_entries = Some(entries);
        self
    }

    /// Overrides the store-miss handling policy.
    pub fn store_policy(mut self, policy: StorePolicy) -> Self {
        self.overrides.store_policy = Some(policy);
        self
    }

    /// Overrides the multiprocessor node count.
    pub fn nodes(mut self, nodes: usize) -> Self {
        self.overrides.nodes = Some(nodes);
        self
    }

    /// Overrides the multiprocessor total work.
    pub fn work(mut self, total_work: u64) -> Self {
        self.overrides.work = Some(total_work);
        self
    }

    /// Overrides the multiprocessor latency model.
    pub fn latency(mut self, latency: LatencyModel) -> Self {
        self.overrides.latency = Some(latency);
        self
    }

    /// Overrides idle-cycle skipping (default on). A test-oracle
    /// switch, not a user knob: simulated results are bit-identical
    /// either way (asserted by the `sweep_determinism` integration test).
    pub fn idle_skip(mut self, enabled: bool) -> Self {
        self.overrides.idle_skip = Some(enabled);
        self
    }

    /// Overrides adaptive lookahead widening for multiprocessor cells
    /// (see [`interleave_mp::MpSimBuilder::adaptive`]; default on). A
    /// test-oracle switch, not a user knob: simulated results are
    /// bit-identical either way (asserted by `tests/engine_equivalence.rs`).
    pub fn adaptive(mut self, enabled: bool) -> Self {
        self.overrides.adaptive = Some(enabled);
        self
    }

    /// Overrides the host worker threads each multiprocessor cell uses
    /// to advance its node shards between conservative quantum barriers
    /// (see [`interleave_mp::MpSimBuilder::mp_jobs`]; default 1, serial).
    /// Purely a host-throughput knob: simulated results are
    /// bit-identical for every value.
    pub fn mp_jobs(mut self, jobs: usize) -> Self {
        self.overrides.mp_jobs = Some(jobs);
        self
    }

    /// The spec's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The spec's scale.
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// Enumerates the grid in its canonical order: per target, the
    /// baseline cell first (one per seed), then contexts × schemes ×
    /// seeds. The order is a pure function of the spec, never of
    /// execution.
    pub fn cells(&self) -> Vec<Cell> {
        let mut cells = Vec::new();
        for target in &self.targets {
            for &seed in &self.seeds {
                if self.baseline {
                    cells.push(Cell {
                        target: target.clone(),
                        scheme: Scheme::Single,
                        contexts: 1,
                        seed,
                    });
                }
                for &contexts in &self.contexts {
                    for &scheme in &self.schemes {
                        cells.push(Cell { target: target.clone(), scheme, contexts, seed });
                    }
                }
            }
        }
        cells
    }

    /// Resolves one cell into the simulator that runs it. This is the
    /// one place where [`Scale`] defaults and the spec's overrides meet
    /// the sim builders: the built sim holds every setting resolved, so
    /// its [`CellSim::descriptor`] is the cell's cache key.
    pub fn build(&self, cell: &Cell) -> CellSim {
        let (ov, scale) = (&self.overrides, self.scale);
        match &cell.target {
            Target::Uni(workload) => {
                let b = MultiprogramSim::builder(workload.clone())
                    .scheme(cell.scheme)
                    .contexts(cell.contexts)
                    .quota(ov.quota.unwrap_or_else(|| scale.uni_quota()))
                    .warmup(ov.warmup.unwrap_or_else(|| scale.uni_warmup()))
                    .os(ov.os.clone().unwrap_or_else(|| scale.os_model()));
                let b = apply(b, cell.seed, MultiprogramSimBuilder::seed);
                let b = apply(b, ov.btb_entries, MultiprogramSimBuilder::btb_entries);
                let b = apply(b, ov.store_policy, MultiprogramSimBuilder::store_policy);
                CellSim::Uni(apply(b, ov.idle_skip, MultiprogramSimBuilder::idle_skip).build())
            }
            Target::Mp(app) => {
                let b = MpSim::builder(app.clone())
                    .scheme(cell.scheme)
                    .contexts(cell.contexts)
                    .nodes(ov.nodes.unwrap_or_else(|| scale.mp_nodes()))
                    .work(ov.work.unwrap_or_else(|| scale.mp_work()))
                    .warmup(ov.warmup.unwrap_or_else(|| scale.mp_warmup()));
                let b = apply(b, cell.seed, MpSimBuilder::seed);
                let b = apply(b, ov.latency, MpSimBuilder::latency);
                let b = apply(b, ov.idle_skip, MpSimBuilder::idle_skip);
                let b = apply(b, ov.adaptive, MpSimBuilder::adaptive);
                CellSim::Mp(apply(b, ov.mp_jobs, MpSimBuilder::mp_jobs).build())
            }
        }
    }

    /// Builds and runs the simulation for one cell.
    pub fn run_cell(&self, cell: &Cell) -> CellResult {
        self.build(cell).run()
    }
}

/// Calls a builder `setter` when an override is present.
fn apply<B, T>(builder: B, value: Option<T>, setter: fn(B, T) -> B) -> B {
    match value {
        Some(value) => setter(builder, value),
        None => builder,
    }
}

/// One cell resolved into the simulator that runs it (see
/// [`ExperimentSpec::build`]).
#[derive(Debug, Clone)]
pub enum CellSim {
    /// A uniprocessor multiprogramming run.
    Uni(MultiprogramSim),
    /// A multiprocessor run.
    Mp(MpSim),
}

impl CellSim {
    /// Runs the simulation to completion.
    pub fn run(&self) -> CellResult {
        match self {
            CellSim::Uni(sim) => CellResult::Uni(Box::new(sim.run())),
            CellSim::Mp(sim) => CellResult::Mp(Box::new(sim.run())),
        }
    }

    /// The sim's descriptor: everything that determines its result, and
    /// nothing host-only.
    pub fn descriptor(&self) -> String {
        match self {
            CellSim::Uni(sim) => sim.descriptor(),
            CellSim::Mp(sim) => sim.descriptor(),
        }
    }
}

/// Executes an [`ExperimentSpec`]'s cells, optionally across OS threads.
///
/// Workers pull cell indices from a shared counter and deposit results
/// into per-index slots, so aggregation order — and therefore every
/// downstream table and JSON artifact — is independent of thread
/// scheduling.
///
/// Every runner owns a latest-wins telemetry bus: after each completed
/// cell it publishes a [`Snapshot`] (progress and throughput). A caller
/// that wants to follow the sweep hands in its own bus with
/// [`Runner::with_bus`], as the serve daemon does for each job's
/// `/jobs/<id>/events` stream; a CLI sweep reports through the stderr
/// heartbeat ([`Runner::progress`]).
#[derive(Debug, Clone)]
pub struct Runner {
    jobs: usize,
    progress: bool,
    shard: Option<Shard>,
    cache: Option<Arc<ResultCache>>,
    bus: Watch<Snapshot>,
}

/// One live-telemetry observation of a running sweep, published on the
/// runner's bus after every completed cell (latest-wins; see
/// [`interleave_obs::bus`]).
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Spec name (artifact stem).
    pub artifact: String,
    /// Completed cells.
    pub done: usize,
    /// Total cells in the sweep.
    pub total: usize,
    /// Completed cells per host second.
    pub cells_per_sec: f64,
    /// Estimated seconds to completion at the current rate.
    pub eta_secs: f64,
    /// Simulated cycles summed over completed cells.
    pub sim_cycles: u64,
    /// Simulated cycles per host second so far.
    pub sim_cycles_per_sec: f64,
    /// Whether every cell has completed.
    pub finished: bool,
}

impl Snapshot {
    /// Serializes the snapshot as the `interleave-status-v2` document on
    /// a single line (no trailing newline): each line of the serve
    /// daemon's `GET /jobs/<id>/events` newline-delimited stream is one
    /// of them.
    pub fn to_json_line(&self) -> String {
        format!(
            "{{\"artifact\": {}, \"schema\": \"interleave-status-v2\", \"done\": {}, \
             \"total\": {}, \"finished\": {}, \"cells_per_sec\": {:.3}, \"eta_secs\": {:.1}, \
             \"sim_cycles\": {}, \"sim_cycles_per_sec\": {:.1}}}",
            json::escape(&self.artifact),
            self.done,
            self.total,
            self.finished,
            self.cells_per_sec,
            self.eta_secs,
            self.sim_cycles,
            self.sim_cycles_per_sec
        )
    }
}

/// Whether a heartbeat line should print after cell `done` of `total`
/// completed, `since_last` after the previous line. The final cell
/// always reports — a sweep that finishes inside the rate-limit window
/// must still print its completion line (pinned by a unit test).
fn heartbeat_due(done: usize, total: usize, since_last: Duration) -> bool {
    done >= total || since_last >= Duration::from_secs(1)
}

/// Per-sweep telemetry state: publishes a [`Snapshot`] on the bus after
/// every cell and prints the rate-limited stderr heartbeat when progress
/// reporting is on.
struct SweepTelemetry<'a> {
    artifact: &'a str,
    total: usize,
    started: Instant,
    heartbeat: bool,
    bus: &'a Watch<Snapshot>,
    state: Mutex<TelemetryState>,
}

struct TelemetryState {
    done: usize,
    sim_cycles: u64,
    last_print: Instant,
}

impl<'a> SweepTelemetry<'a> {
    fn new(runner: &'a Runner, spec: &'a ExperimentSpec, total: usize) -> SweepTelemetry<'a> {
        let now = Instant::now();
        SweepTelemetry {
            artifact: spec.name(),
            total,
            started: now,
            heartbeat: runner.progress,
            bus: &runner.bus,
            state: Mutex::new(TelemetryState { done: 0, sim_cycles: 0, last_print: now }),
        }
    }

    fn snapshot(&self, state: &TelemetryState) -> Snapshot {
        let wall = self.started.elapsed();
        let cells_per_sec = state.done as f64 / wall.as_secs_f64().max(1e-9);
        let eta_secs =
            if state.done == 0 { 0.0 } else { (self.total - state.done) as f64 / cells_per_sec };
        Snapshot {
            artifact: self.artifact.to_string(),
            done: state.done,
            total: self.total,
            cells_per_sec,
            eta_secs,
            sim_cycles: state.sim_cycles,
            sim_cycles_per_sec: cycles_per_sec(state.sim_cycles, wall),
            finished: state.done >= self.total,
        }
    }

    /// Publishes the starting snapshot so subscribers see the sweep
    /// before its first cell completes.
    fn begin(&self) {
        let state = self.state.lock().expect("telemetry lock");
        self.bus.publish(self.snapshot(&state));
    }

    /// Folds one completed cell in, publishes, and maybe heartbeats.
    /// The state lock is held while publishing, so snapshots leave in
    /// `done` order and the last one published is the final one.
    fn cell_finished(&self, result: &CellResult) {
        let now = Instant::now();
        let mut state = self.state.lock().expect("telemetry lock");
        state.done += 1;
        state.sim_cycles += result.cycles();
        let snapshot = self.snapshot(&state);
        if self.heartbeat
            && heartbeat_due(state.done, self.total, now.duration_since(state.last_print))
        {
            state.last_print = now;
            eprintln!(
                "sweep {}: {}/{} cells, {:.2} cells/s, {:.2e} sim cycles/s, ETA {:.0}s",
                snapshot.artifact,
                snapshot.done,
                snapshot.total,
                snapshot.cells_per_sec,
                snapshot.sim_cycles_per_sec,
                snapshot.eta_secs
            );
        }
        self.bus.publish(snapshot);
    }
}

impl Runner {
    /// A runner using `jobs` worker threads (clamped to at least 1).
    pub fn new(jobs: usize) -> Runner {
        Runner { jobs: jobs.max(1), progress: false, shard: None, cache: None, bus: Watch::new() }
    }

    /// A single-threaded runner.
    pub fn serial() -> Runner {
        Runner::new(1)
    }

    /// Enables or disables the per-second completion heartbeat on stderr
    /// (default off).
    pub fn progress(mut self, on: bool) -> Runner {
        self.progress = on;
        self
    }

    /// Restricts the sweep to one disjoint slice of the grid (see
    /// [`Shard`]). A slice is not an artifact: shards share one
    /// checkpoint directory ([`Runner::checkpoint_dir`]), and a whole-grid
    /// sweep over it restores every cell and writes the artifacts.
    pub fn shard(mut self, shard: Shard) -> Runner {
        self.shard = Some(shard);
        self
    }

    /// Enables per-cell checkpointing under `dir`: every freshly
    /// computed cell is serialized to `CELL_<key>.json` (written to a
    /// temp file, then renamed, so a killed sweep never leaves a torn
    /// checkpoint), and cells whose checkpoint already exists are
    /// restored instead of recomputed. The key is the descriptor of the
    /// sim [`ExperimentSpec::build`] makes for the cell, checked exactly
    /// on load (see [`crate::cache`]), so checkpoints from a different
    /// configuration, seed, or code version are ignored — a resumed
    /// sweep is byte-identical to an uninterrupted one.
    pub fn checkpoint_dir(mut self, dir: impl Into<PathBuf>) -> Runner {
        self.cache = Some(Arc::new(ResultCache::new(dir)));
        self
    }

    /// Backs the runner with an existing shared [`ResultCache`]
    /// (the checkpoint store promoted to a service component): cells
    /// whose entry exists are restored instead of recomputed, fresh
    /// cells are stored, and the cache's hit/miss counters account for
    /// both. Sharing one `Arc<ResultCache>` across runners is how
    /// `interleave-sim serve` dedupes repeated job submissions.
    pub fn result_cache(mut self, cache: Arc<ResultCache>) -> Runner {
        self.cache = Some(cache);
        self
    }

    /// Replaces the runner's telemetry bus with a caller-owned one, so
    /// subscribers created *before* the runner existed (e.g. a server
    /// job registered at enqueue time) observe the sweep this runner
    /// eventually executes.
    pub fn with_bus(mut self, bus: Watch<Snapshot>) -> Runner {
        self.bus = bus;
        self
    }

    /// The worker-thread count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Runs every cell of `spec` (or, when a shard is configured, the
    /// shard's slice of the grid) and returns the aggregated sweep.
    pub fn run(&self, spec: &ExperimentSpec) -> SweepResult {
        let grid = spec.cells();
        let cells: Vec<Cell> = match self.shard {
            Some(shard) => shard.indices(grid.len()).map(|i| grid[i].clone()).collect(),
            None => grid,
        };
        let started = Instant::now();
        // Scope the host-phase profile to this sweep: discard anything
        // accumulated before it, harvest after the workers are done.
        let profiling = profile::enabled();
        if profiling {
            let _ = profile::take();
        }
        // Root scope on the coordinating thread: its self time picks up
        // everything outside the cells (spawning, collection, telemetry),
        // so the harvested self-times structurally account for the whole
        // sweep wall even when the cells themselves are brief.
        let sweep_scope = profile::enter("runner.sweep");
        let telemetry = SweepTelemetry::new(self, spec, cells.len());
        telemetry.begin();
        let telemetry = &telemetry;
        let checkpoints = self.cache.as_deref();
        let resumed_cells = AtomicUsize::new(0);
        let timed_cell = |c: &Cell| {
            let _cell = profile::enter("runner.cell");
            let cell_start = Instant::now();
            let result = if let Some(result) = checkpoints.and_then(|cache| cache.load(spec, c)) {
                resumed_cells.fetch_add(1, Ordering::Relaxed);
                eprintln!(
                    "sweep {}: resumed {} {} x{} from checkpoint",
                    telemetry.artifact,
                    c.target.name(),
                    c.scheme.name(),
                    c.contexts
                );
                result
            } else {
                let result = spec.run_cell(c);
                if let Some(cache) = checkpoints {
                    if let Err(e) = cache.store(spec, c, &result) {
                        eprintln!(
                            "warning: could not checkpoint {} {} x{}: {e}",
                            c.target.name(),
                            c.scheme.name(),
                            c.contexts
                        );
                    }
                }
                result
            };
            let wall = cell_start.elapsed();
            telemetry.cell_finished(&result);
            (result, wall)
        };
        let results: Vec<(CellResult, Duration)> = if self.jobs == 1 || cells.len() <= 1 {
            cells.iter().map(timed_cell).collect()
        } else {
            let slots: Vec<OnceLock<(CellResult, Duration)>> =
                (0..cells.len()).map(|_| OnceLock::new()).collect();
            let next = AtomicUsize::new(0);
            std::thread::scope(|s| {
                for _ in 0..self.jobs.min(cells.len()) {
                    s.spawn(|| loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= cells.len() {
                            break;
                        }
                        let timed = timed_cell(&cells[i]);
                        slots[i].set(timed).expect("cell index claimed twice");
                    });
                }
            });
            slots
                .into_iter()
                .map(|slot| slot.into_inner().expect("worker pool covered every cell"))
                .collect()
        };
        let (results, cell_walls): (Vec<CellResult>, Vec<Duration>) = results.into_iter().unzip();
        let wall = started.elapsed();
        // Close the root scope before harvesting so its frame is folded
        // into the profile.
        drop(sweep_scope);
        SweepResult {
            name: spec.name.clone(),
            scale: spec.scale,
            jobs: self.jobs,
            resumed: resumed_cells.load(Ordering::Relaxed),
            wall,
            cell_walls,
            cells: cells.into_iter().zip(results).collect(),
            profile: profiling.then(profile::take),
        }
    }
}

/// The aggregated outcome of running an [`ExperimentSpec`].
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// Spec name (JSON artifact stem).
    pub name: String,
    /// Scale the sweep ran at.
    pub scale: Scale,
    /// Worker threads used.
    pub jobs: usize,
    /// Cells restored from checkpoints instead of recomputed.
    pub resumed: usize,
    /// Wall-clock duration of the sweep.
    pub wall: Duration,
    /// Per-cell wall-clock durations, index-aligned with `cells`. Host
    /// timing lives here (and in `BENCH_*.json`) only — never in the
    /// deterministic `METRICS_*.json` artifact.
    pub cell_walls: Vec<Duration>,
    /// Every cell with its result, in the spec's canonical order.
    pub cells: Vec<(Cell, CellResult)>,
    /// Host-phase profile harvested over the sweep, when profiling was
    /// enabled (see [`interleave_obs::profile`]).
    pub profile: Option<PhaseProfile>,
}

impl SweepResult {
    /// Looks up a cell's result by coordinates (first seed-axis match).
    pub fn get(&self, target: &str, scheme: Scheme, contexts: usize) -> Option<&CellResult> {
        self.cells
            .iter()
            .find(|(c, _)| {
                c.target.name() == target && c.scheme == scheme && c.contexts == contexts
            })
            .map(|(_, r)| r)
    }

    /// A target's single-context baseline result.
    pub fn baseline(&self, target: &str) -> Option<&CellResult> {
        self.get(target, Scheme::Single, 1)
    }

    /// Whether two sweeps produced identical results cell for cell
    /// (coordinates and simulation outputs; wall time and job count are
    /// ignored).
    pub fn results_match(&self, other: &SweepResult) -> bool {
        self.cells.len() == other.cells.len()
            && self.cells.iter().zip(&other.cells).all(|((a, ra), (b, rb))| {
                a.target.name() == b.target.name()
                    && a.scheme == b.scheme
                    && a.contexts == b.contexts
                    && a.seed == b.seed
                    && ra == rb
            })
    }

    /// Renders the sweep as a generic summary table: one row per cell
    /// with cycles, utilization, and speedup over the target's baseline.
    pub fn to_table(&self) -> Table {
        let mut table = Table::new(format!("Sweep: {} ({} scale)", self.name, self.scale.name()));
        table.headers(["target", "scheme", "contexts", "cycles", "util", "speedup"]);
        for (cell, result) in &self.cells {
            let speedup = self
                .baseline(cell.target.name())
                .map(|b| format!("{:.2}", b.cycles() as f64 / result.cycles() as f64))
                .unwrap_or_else(|| "-".into());
            table.row([
                cell.target.name().to_string(),
                cell.scheme.name().to_string(),
                cell.contexts.to_string(),
                result.cycles().to_string(),
                format!("{:.1}%", result.utilization() * 100.0),
                speedup,
            ]);
        }
        table
    }

    /// Serializes the sweep as a machine-readable JSON document.
    pub fn to_json(&self) -> String {
        let timestamp = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"artifact\": {},\n", json::escape(&self.name)));
        out.push_str(&format!("  \"unix_timestamp\": {timestamp},\n"));
        out.push_str(&format!("  \"scale\": \"{}\",\n", self.scale.name()));
        out.push_str(&format!("  \"grid_cells\": {},\n", self.cells.len()));
        out.push_str(&format!("  \"jobs\": {},\n", self.jobs));
        out.push_str(&format!("  \"wall_ms\": {},\n", self.wall.as_millis()));
        let total_sim_cycles: u64 = self.cells.iter().map(|(_, r)| r.cycles()).sum();
        out.push_str(&format!("  \"total_sim_cycles\": {total_sim_cycles},\n"));
        out.push_str(&format!(
            "  \"sim_cycles_per_sec\": {:.1},\n",
            cycles_per_sec(total_sim_cycles, self.wall)
        ));
        out.push_str("  \"cells\": [\n");
        for (i, (cell, result)) in self.cells.iter().enumerate() {
            let seed = cell.seed.map(|s| s.to_string()).unwrap_or_else(|| "null".into());
            let cell_wall = self.cell_walls.get(i).copied().unwrap_or_default();
            let common = format!(
                "\"grid_index\": {}, \"target\": {}, \"scheme\": \"{}\", \"contexts\": {}, \
                 \"seed\": {seed}, \"cycles\": {}, \"utilization\": {:.6}, \"wall_ms\": {}, \
                 \"sim_cycles_per_sec\": {:.1}",
                i,
                json::escape(cell.target.name()),
                cell.scheme.name(),
                cell.contexts,
                result.cycles(),
                result.utilization(),
                cell_wall.as_millis(),
                cycles_per_sec(result.cycles(), cell_wall),
            );
            let extra = match result {
                CellResult::Uni(r) => format!(
                    "\"kind\": \"uni\", \"instructions\": {}, \"throughput\": {:.6}",
                    r.instructions,
                    r.throughput()
                ),
                CellResult::Mp(r) => format!(
                    "\"kind\": \"mp\", \"threads\": {}, \"avg_mlp\": {:.6}",
                    r.threads, r.avg_mlp
                ),
            };
            let comma = if i + 1 < self.cells.len() { "," } else { "" };
            out.push_str(&format!("    {{{common}, {extra}}}{comma}\n"));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Serializes every cell's metric registry as a JSON document.
    ///
    /// Unlike [`SweepResult::to_json`], the document carries no
    /// timestamp, wall time, or job count, and every registry is
    /// name-sorted — so serial and parallel sweeps of the same spec
    /// produce byte-identical artifacts (asserted by the
    /// `metrics_json_identical_serial_vs_parallel` test).
    pub fn metrics_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"artifact\": {},\n", json::escape(&self.name)));
        out.push_str(&format!("  \"scale\": \"{}\",\n", self.scale.name()));
        out.push_str(&format!("  \"grid_cells\": {},\n", self.cells.len()));
        out.push_str("  \"cells\": [\n");
        // One line per cell (single-line registry serialization), so a
        // cell's row can be grepped out of the document whole.
        for (i, (cell, result)) in self.cells.iter().enumerate() {
            let seed = cell.seed.map(|s| s.to_string()).unwrap_or_else(|| "null".into());
            let comma = if i + 1 < self.cells.len() { "," } else { "" };
            out.push_str(&format!(
                "    {{\"grid_index\": {}, \"target\": {}, \"scheme\": \"{}\", \
                 \"contexts\": {}, \"seed\": {seed}, \"metrics\": {}}}{comma}\n",
                i,
                json::escape(cell.target.name()),
                cell.scheme.name(),
                cell.contexts,
                result.metrics().to_json_line(),
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes `BENCH_<name>.json` into `dir`.
    pub fn write_json(&self, dir: &std::path::Path) -> std::io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("BENCH_{}.json", self.name));
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }

    /// Writes `METRICS_<name>.json` into `dir`.
    pub fn write_metrics_json(&self, dir: &std::path::Path) -> std::io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("METRICS_{}.json", self.name));
        std::fs::write(&path, self.metrics_json())?;
        Ok(path)
    }

    /// Serializes the harvested host-phase profile as the
    /// `PROFILE_*.json` document (`interleave-profile-v1`: header
    /// scalars, then one phase object per line so shell gates can `grep`
    /// individual phases). `None` when the sweep ran unprofiled.
    pub fn profile_json(&self) -> Option<String> {
        let profile = self.profile.as_ref()?;
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"artifact\": {},\n", json::escape(&self.name)));
        out.push_str("  \"schema\": \"interleave-profile-v1\",\n");
        out.push_str(&format!("  \"scale\": \"{}\",\n", self.scale.name()));
        out.push_str(&format!("  \"grid_cells\": {},\n", self.cells.len()));
        out.push_str(&format!("  \"wall_ns\": {},\n", wall_ns(self.wall)));
        let total_sim_cycles: u64 = self.cells.iter().map(|(_, r)| r.cycles()).sum();
        out.push_str(&format!("  \"total_sim_cycles\": {total_sim_cycles},\n"));
        out.push_str(&format!("  \"phases\": {}\n", profile.to_json(2)));
        out.push_str("}\n");
        Some(out)
    }

    /// Writes `PROFILE_<name>.json` into `dir`; `Ok(None)` when the
    /// sweep ran unprofiled.
    pub fn write_profile_json(
        &self,
        dir: &std::path::Path,
    ) -> std::io::Result<Option<std::path::PathBuf>> {
        let Some(doc) = self.profile_json() else {
            return Ok(None);
        };
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("PROFILE_{}.json", self.name));
        std::fs::write(&path, doc)?;
        Ok(Some(path))
    }
}

/// Wall duration in nanoseconds, saturating (u64 holds ~584 years).
fn wall_ns(wall: Duration) -> u64 {
    u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX)
}

/// Simulated-cycles-per-host-second rate, or 0 when the wall time is too
/// small to measure.
fn cycles_per_sec(cycles: u64, wall: Duration) -> f64 {
    let secs = wall.as_secs_f64();
    if secs > 0.0 {
        cycles as f64 / secs
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use interleave_mp::splash_suite;
    use interleave_workloads::mixes;

    fn tiny_spec() -> ExperimentSpec {
        ExperimentSpec::new("tiny", Scale::Ci)
            .uni(mixes::ic())
            .mp(splash_suite()[0].clone())
            .contexts([2])
            .quota(2_000)
            .work(8_000)
            .warmup(500)
    }

    #[test]
    fn cell_enumeration_is_canonical() {
        let cells = tiny_spec().cells();
        // Per target: baseline + 1 count × 2 schemes.
        assert_eq!(cells.len(), 6);
        assert_eq!(cells[0].scheme, Scheme::Single);
        assert_eq!(cells[0].contexts, 1);
        assert_eq!(cells[1].scheme, Scheme::Blocked);
        assert_eq!(cells[2].scheme, Scheme::Interleaved);
        assert!(matches!(cells[3].target, Target::Mp(_)));
    }

    #[test]
    fn serial_and_parallel_sweeps_match() {
        let spec = tiny_spec();
        let serial = Runner::serial().run(&spec);
        let parallel = Runner::new(4).run(&spec);
        assert_eq!(parallel.jobs, 4);
        assert!(serial.results_match(&parallel));
    }

    #[test]
    fn seeds_axis_changes_results() {
        let spec = ExperimentSpec::new("seeded", Scale::Ci)
            .uni(mixes::fp())
            .contexts([2])
            .schemes([Scheme::Interleaved])
            .baseline(false)
            .quota(2_000)
            .warmup(500);
        let default = Runner::serial().run(&spec.clone());
        let reseeded = Runner::serial().run(&spec.seeds([7]));
        assert_eq!(default.cells.len(), 1);
        assert_eq!(reseeded.cells[0].0.seed, Some(7));
        assert!(!default.results_match(&reseeded));
    }

    #[test]
    fn sweep_table_and_json_are_well_formed() {
        let sweep = Runner::serial().run(&tiny_spec());
        let table = sweep.to_table();
        assert_eq!(table.len(), 6);
        let json = sweep.to_json();
        assert!(json.contains("\"artifact\": \"tiny\""));
        assert!(json.contains("\"kind\": \"uni\""));
        assert!(json.contains("\"kind\": \"mp\""));
        assert!(json.contains("\"total_sim_cycles\""));
        // Top-level rate plus one per cell.
        assert_eq!(json.matches("\"sim_cycles_per_sec\"").count(), 7);
        assert_eq!(json.matches("\"cycles\"").count(), 6);
        // Balanced braces — cheap structural sanity check without a
        // JSON parser in the dependency set.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn idle_skip_override_is_bit_identical() {
        let on = Runner::serial().run(&tiny_spec().idle_skip(true));
        let off = Runner::serial().run(&tiny_spec().idle_skip(false));
        assert!(on.results_match(&off), "idle skipping must not change simulated results");
        assert_eq!(on.metrics_json(), off.metrics_json());
    }

    #[test]
    fn adaptive_override_is_bit_identical() {
        let on = Runner::serial().run(&tiny_spec().adaptive(true));
        let off = Runner::serial().run(&tiny_spec().adaptive(false));
        assert!(on.results_match(&off), "adaptive lookahead must not change simulated results");
        assert_eq!(on.metrics_json(), off.metrics_json());
    }

    #[test]
    fn mp_jobs_override_is_bit_identical() {
        let serial = Runner::serial().run(&tiny_spec().mp_jobs(1));
        let sharded = Runner::serial().run(&tiny_spec().mp_jobs(4));
        assert!(
            serial.results_match(&sharded),
            "the parallel multiprocessor driver must not change simulated results"
        );
        assert_eq!(serial.metrics_json(), sharded.metrics_json());
    }

    #[test]
    fn cell_walls_align_with_cells() {
        let sweep = Runner::new(3).run(&tiny_spec());
        assert_eq!(sweep.cell_walls.len(), sweep.cells.len());
    }

    /// The final heartbeat must print even when the whole sweep finishes
    /// inside the 1-second rate-limit window.
    #[test]
    fn heartbeat_always_reports_the_final_cell() {
        assert!(heartbeat_due(6, 6, Duration::from_millis(1)), "final cell inside the window");
        assert!(heartbeat_due(3, 6, Duration::from_secs(2)), "window elapsed mid-sweep");
        assert!(!heartbeat_due(3, 6, Duration::from_millis(1)), "rate-limited mid-sweep");
        assert!(heartbeat_due(1, 1, Duration::ZERO), "single-cell sweep still reports");
    }

    #[test]
    fn bus_publishes_per_cell_snapshots() {
        let spec = tiny_spec();
        let bus = Watch::new();
        let mut sub = bus.subscribe();
        let runner = Runner::new(2).with_bus(bus);
        assert!(sub.latest().is_none(), "nothing published before the sweep");
        let sweep = runner.run(&spec);
        let last = sub.latest().expect("final snapshot on the bus");
        assert_eq!(last.artifact, "tiny");
        assert_eq!(last.done, 6);
        assert_eq!(last.total, 6);
        assert!(last.finished);
        let total: u64 = sweep.cells.iter().map(|(_, r)| r.cycles()).sum();
        assert_eq!(last.sim_cycles, total);
        let doc = interleave_obs::json::parse(&last.to_json_line()).expect("snapshot parses");
        assert_eq!(doc.get("schema").and_then(|v| v.as_str()), Some("interleave-status-v2"));
        assert_eq!(doc.get("sim_cycles").and_then(|v| v.as_u64()), Some(total));
    }

    /// Workers finishing cells concurrently still publish in `done`
    /// order: after every sweep the bus holds the final snapshot.
    /// Resumed sweeps finish cells fastest, so they race hardest.
    #[test]
    fn concurrent_workers_publish_the_final_snapshot_last() {
        let dir = std::env::temp_dir().join(format!("ilv_status_race_{}", std::process::id()));
        let spec = tiny_spec().contexts([2, 4]);
        let total = spec.cells().len();
        assert_eq!(total, 10);
        Runner::serial().checkpoint_dir(dir.join("ck")).run(&spec);
        for run in 0..50 {
            let bus = Watch::new();
            let mut sub = bus.subscribe();
            Runner::new(4).with_bus(bus).checkpoint_dir(dir.join("ck")).run(&spec);
            let last = sub.latest().expect("final snapshot on the bus");
            assert!(last.finished && last.done == total, "run {run}: bus ended at {}", last.done);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The profiler must be bit-invisible to simulation results: the
    /// deterministic METRICS artifact is byte-identical with profiling
    /// on vs off, and every simulated result matches.
    #[test]
    fn profiling_is_bit_invisible_to_results() {
        let spec = tiny_spec();
        profile::set_enabled(false);
        let off = Runner::serial().run(&spec);
        profile::set_enabled(true);
        let on = Runner::serial().run(&spec);
        profile::set_enabled(false);
        assert!(off.profile.is_none());
        let profile = on.profile.as_ref().expect("profiled sweep harvests a profile");
        assert!(on.results_match(&off), "profiling changed simulated results");
        assert_eq!(on.metrics_json(), off.metrics_json(), "METRICS must be byte-identical");
        // BENCH carries timestamps and wall times, so byte-identity is
        // impossible there; results_match plus METRICS equality is the
        // meaningful invariant.
        // `>=`: other tests' worker threads may fold extra cells into
        // the global harvest while the switch is on (global state).
        let cell = profile.get("runner.cell").expect("root scope recorded");
        assert!(cell.calls as usize >= on.cells.len());
        assert!(profile.get("core.run").is_some(), "nested sim phases recorded");
        assert!(profile.get("core.tick").map(|s| s.calls).unwrap_or(0) > 0);
        // PROFILE json round-trips through obs::json.
        let doc = on.profile_json().expect("profile document");
        let parsed = interleave_obs::json::parse(&doc).expect("profile json parses");
        assert_eq!(parsed.get("schema").and_then(|v| v.as_str()), Some("interleave-profile-v1"));
        let phases = parsed.get("phases").expect("phases array");
        let back = PhaseProfile::from_value(phases).expect("phases round-trip");
        assert_eq!(&back, profile);
    }

    #[test]
    fn metrics_json_identical_serial_vs_parallel() {
        let spec = tiny_spec();
        let serial = Runner::serial().run(&spec).metrics_json();
        let parallel = Runner::new(4).run(&spec).metrics_json();
        assert_eq!(serial, parallel, "metrics artifact must not depend on the schedule");
        let doc = interleave_obs::json::parse(&serial).expect("metrics json parses");
        let cells = doc.get("cells").and_then(|c| c.as_arr()).expect("cells array");
        assert_eq!(cells.len(), 6);
        let first = cells[0].get("metrics").expect("metrics object");
        assert!(first.get("cycles.busy").and_then(|v| v.as_u64()).is_some());
        assert!(first.get("core.run_length").and_then(|h| h.get("count")).is_some());
    }

    #[test]
    fn cell_metrics_reconcile_with_breakdown() {
        let sweep = Runner::serial().run(&tiny_spec());
        for (cell, result) in &sweep.cells {
            let busy = result.metrics().counter_value("cycles.busy");
            assert_eq!(
                busy,
                Some(result.breakdown().get(Category::Busy)),
                "cycles.busy mismatch for {} {:?} x{}",
                cell.target.name(),
                cell.scheme,
                cell.contexts
            );
        }
    }

    #[test]
    fn lookup_by_coordinates() {
        let sweep = Runner::new(2).run(&tiny_spec());
        assert!(sweep.baseline("IC").is_some());
        assert!(sweep.get("IC", Scheme::Interleaved, 2).is_some());
        assert!(sweep.get("IC", Scheme::Interleaved, 64).is_none());
    }

    #[test]
    fn shard_parse_accepts_k_of_n_only() {
        assert_eq!(Shard::parse("2/4"), Some(Shard::new(2, 4)));
        assert_eq!(Shard::parse("1/1"), Some(Shard::new(1, 1)));
        for bad in ["0/4", "5/4", "4", "a/b", "2/0", "", "1/2/3", "-1/4"] {
            assert_eq!(Shard::parse(bad), None, "{bad:?} should not parse");
        }
    }

    #[test]
    fn shard_slices_are_disjoint_and_covering() {
        for total in [0usize, 1, 5, 6, 17] {
            for count in 1..=5 {
                let mut seen = vec![0usize; total];
                for index in 1..=count {
                    for i in Shard::new(index, count).indices(total) {
                        seen[i] += 1;
                    }
                }
                assert!(seen.iter().all(|&n| n == 1), "grid {total} over {count} shards");
            }
        }
    }

    #[test]
    fn sharded_sweep_runs_its_slice() {
        let spec = tiny_spec();
        let full = Runner::serial().run(&spec);
        let shard = Shard::new(2, 3);
        let slice = Runner::serial().shard(shard).run(&spec);
        assert_eq!(slice.cells.len(), 2);
        // The slice's results equal the corresponding full-grid cells.
        for (gi, (cell, result)) in shard.indices(6).zip(&slice.cells) {
            let (full_cell, full_result) = &full.cells[gi];
            assert_eq!(cell.target.name(), full_cell.target.name());
            assert_eq!(cell.scheme, full_cell.scheme);
            assert_eq!(cell.contexts, full_cell.contexts);
            assert_eq!(result, full_result);
        }
    }

    /// Every METRICS cell row is a single line, so a cell's row can be
    /// grepped out of the document whole.
    #[test]
    fn metrics_cells_are_single_lines() {
        let sweep = Runner::serial().run(&tiny_spec());
        let doc = sweep.metrics_json();
        let cell_lines: Vec<&str> =
            doc.lines().filter(|l| l.trim_start().starts_with("{\"grid_index\":")).collect();
        assert_eq!(cell_lines.len(), sweep.cells.len());
    }

    #[test]
    fn scale_parse_and_knobs() {
        assert_eq!(Scale::parse("ci"), Some(Scale::Ci));
        assert_eq!(Scale::parse("full"), Some(Scale::Full));
        assert_eq!(Scale::parse("huge"), None);
        assert_eq!(Scale::Ci.name(), "ci");
        // `build` resolves the scale's defaults, and an override wins.
        let built = |spec: ExperimentSpec| {
            let spec = spec.uni(mixes::fp()).mp(splash_suite()[0].clone()).contexts([]);
            spec.cells().iter().map(|c| spec.build(c).descriptor()).collect::<Vec<_>>().join("\n")
        };
        let ci = built(ExperimentSpec::new("s", Scale::Ci));
        assert!(ci.contains(" quota=40000 ") && ci.contains(" nodes=8 "), "{ci}");
        let full = built(ExperimentSpec::new("s", Scale::Full));
        assert!(full.contains(" quota=1500000 ") && full.contains(" nodes=16 "), "{full}");
        let overridden = built(ExperimentSpec::new("s", Scale::Full).quota(7).nodes(2));
        assert!(overridden.contains(" quota=7 ") && overridden.contains(" nodes=2 "));
    }
}
