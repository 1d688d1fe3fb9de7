use std::sync::{Arc, RwLock};

use interleave_core::{ProcConfig, Processor, Scheme, WaitReason};
use interleave_engine::{
    read_lock, run_sharded, write_lock, Hooks, QuantumSchedule, Quiescence, Segment, Shard,
};
use interleave_mem::CacheParams;
use interleave_obs::validate::Violation;
use interleave_obs::{profile, Histogram, Registry};
use interleave_stats::Breakdown;

use crate::node::{Exchange, Parked, ShardPort, ShardSlot, ShardState};
use crate::{Directory, DirectoryStats, LatencyModel, MissClass, SplashProfile, SplashThread};

/// Multiprocessor simulation driver (paper Section 5.2).
///
/// Runs one SPLASH-like application decomposed into `nodes ×
/// contexts_per_node` threads over the directory-coherent machine,
/// instantiating the `interleave-engine` quantum-barrier substrate: time
/// advances in conservative quanta of at most [`LatencyModel::lookahead`]
/// cycles; within a quantum every node's processor, cache, and port
/// advance independently (optionally on parallel host threads, see
/// [`MpSimBuilder::mp_jobs`]), classifying misses against the frozen
/// master directory; at the quantum barrier the logged directory
/// transactions replay in the deterministic order `(cycle, node, seq)`
/// and the resulting coherence and synchronization messages are routed
/// for delivery in later quanta. Because no cross-node message can be
/// due before the end of the quantum that produced it, results are
/// bit-identical for any `mp_jobs` value.
///
/// When the whole machine is provably quiescent — every processor idle,
/// no message due — the schedule widens quanta past the fixed lookahead
/// floor (see [`MpSimBuilder::adaptive`]), skipping barriers whose
/// exchanges would have been no-ops; this too is bit-invisible.
///
/// The run is fixed-work: it ends when every thread has retired its
/// share of `total_work` instructions, so execution time is directly
/// comparable across context counts (the basis of Table 10's speedups).
///
/// # Examples
///
/// ```
/// use interleave_core::Scheme;
/// use interleave_mp::{splash_suite, MpSim};
///
/// let sim = MpSim::builder(splash_suite()[1].clone())
///     .scheme(Scheme::Interleaved)
///     .nodes(4)
///     .contexts(2)
///     .work(8_000) // tiny run for the doctest
///     .warmup(500)
///     .build();
/// let r = sim.run();
/// assert!(r.cycles > 0);
/// ```
#[derive(Debug, Clone)]
pub struct MpSim {
    /// The application.
    app: SplashProfile,
    /// Context scheduling scheme.
    scheme: Scheme,
    /// Number of nodes (processors).
    nodes: usize,
    /// Hardware contexts per processor (threads per node).
    contexts_per_node: usize,
    /// Total instructions of application work, split evenly over threads.
    total_work: u64,
    /// Cycles before statistics reset.
    warmup_cycles: u64,
    /// Latency model (Table 8).
    latency: LatencyModel,
    /// Seed for streams and latency sampling.
    seed: u64,
    /// Fast-forward cycles in which a shard's processor is idle or
    /// frozen behind a stalled instruction.
    idle_skip: bool,
    /// Widen quanta across machine-wide quiescent stretches.
    adaptive: bool,
    /// Run the invariant checkers: per-tick processor checks plus
    /// machine-wide coherence checks at every 128-cycle chunk boundary.
    validate: bool,
    /// Deliberately corrupt the directory once the clock reaches this
    /// cycle (fault injection for the validation layer's own regression
    /// tests).
    fault_at: Option<u64>,
    /// Host worker threads advancing node shards between quantum
    /// barriers (1 = serial in the driver's own thread).
    mp_jobs: usize,
}

/// Builder for [`MpSim`]; obtained from [`MpSim::builder`].
///
/// Defaults (before any setter) are a single-context 8-node machine with
/// 400 000 instructions of total work, 20 000 warmup cycles, the
/// DASH-like latencies, the fixed default seed, a serial host driver
/// (`mp_jobs = 1`), and idle skipping plus adaptive lookahead enabled.
#[derive(Debug, Clone)]
pub struct MpSimBuilder {
    sim: MpSim,
}

impl MpSimBuilder {
    /// Context scheduling scheme (default [`Scheme::Single`]).
    pub fn scheme(mut self, scheme: Scheme) -> Self {
        self.sim.scheme = scheme;
        self
    }

    /// Number of nodes / processors (default 8).
    pub fn nodes(mut self, nodes: usize) -> Self {
        self.sim.nodes = nodes;
        self
    }

    /// Hardware contexts per processor (default 1).
    pub fn contexts(mut self, contexts_per_node: usize) -> Self {
        self.sim.contexts_per_node = contexts_per_node;
        self
    }

    /// Total instructions of application work (default 400 000).
    pub fn work(mut self, total_work: u64) -> Self {
        self.sim.total_work = total_work;
        self
    }

    /// Warmup cycles before statistics reset (default 20 000).
    pub fn warmup(mut self, cycles: u64) -> Self {
        self.sim.warmup_cycles = cycles;
        self
    }

    /// Latency model (default [`LatencyModel::dash_like`]).
    pub fn latency(mut self, latency: LatencyModel) -> Self {
        self.sim.latency = latency;
        self
    }

    /// Seed for streams and latency sampling.
    pub fn seed(mut self, seed: u64) -> Self {
        self.sim.seed = seed;
        self
    }

    /// Fast-forward cycles in which a shard's processor is idle or
    /// frozen behind a stalled instruction (default true). Purely a
    /// host-throughput optimisation — results are bit-identical with it
    /// on or off.
    pub fn idle_skip(mut self, enabled: bool) -> Self {
        self.sim.idle_skip = enabled;
        self
    }

    /// Widen quanta past the fixed lookahead floor across stretches the
    /// machine is provably quiescent — every processor idle, no message
    /// due — skipping barriers whose exchanges would have replayed and
    /// routed nothing (default true). The widened quantum still ends on
    /// the fixed schedule's barrier grid, so results are bit-identical
    /// with it on or off, at every `mp_jobs` value; purely a
    /// host-throughput optimisation for sync- or latency-bound phases.
    pub fn adaptive(mut self, enabled: bool) -> Self {
        self.sim.adaptive = enabled;
        self
    }

    /// Run the structural invariant checkers: per-tick processor checks
    /// plus directory/sync coherence checks at every 128-cycle chunk
    /// boundary, panicking with a report naming the cycle, context, and
    /// replay seed on violation. Defaults to
    /// [`interleave_obs::validate::default_enabled`].
    pub fn validate(mut self, enabled: bool) -> Self {
        self.sim.validate = enabled;
        self
    }

    /// Host worker threads advancing node shards in parallel between
    /// conservative quantum barriers (default 1 = serial). Clamped to
    /// the node count. Purely a host-throughput knob: results are
    /// bit-identical for every value.
    pub fn mp_jobs(mut self, jobs: usize) -> Self {
        self.sim.mp_jobs = jobs;
        self
    }

    /// Corrupts the directory once the clock reaches `cycle`. Fault
    /// injection for the validation layer's regression tests only.
    #[doc(hidden)]
    pub fn inject_directory_fault_at(mut self, cycle: u64) -> Self {
        self.sim.fault_at = Some(cycle);
        self
    }

    /// Finalizes the simulation.
    pub fn build(self) -> MpSim {
        self.sim
    }
}

/// Results of one multiprocessor run.
#[derive(Debug, Clone, PartialEq)]
pub struct MpResult {
    /// Measured cycles until every thread finished its share.
    pub cycles: u64,
    /// Execution-time breakdown summed over all node processors.
    pub breakdown: Breakdown,
    /// Directory/protocol statistics.
    pub directory: DirectoryStats,
    /// Threads simulated.
    pub threads: usize,
    /// Average outstanding misses observed at miss time (memory-level
    /// parallelism indicator).
    pub avg_mlp: f64,
    /// Per-node execution-time breakdowns (load-balance inspection).
    pub per_node: Vec<Breakdown>,
    /// Instrumentation registry: per-node processor metrics summed over
    /// all nodes (counters add, histograms merge) plus machine-level
    /// `mp.dir.*`, `mp.latency.*`, and `mp.sync.*` metrics. Event
    /// counters accumulate from cycle zero; `cycles.*` and `mp.dir.*`
    /// mirror the warmup-reset statistics.
    pub metrics: Registry,
}

impl MpSim {
    /// Starts building a simulation of `app` with default work sizes and
    /// the DASH-like latencies (see [`MpSimBuilder`]).
    pub fn builder(app: SplashProfile) -> MpSimBuilder {
        MpSimBuilder {
            sim: MpSim {
                app,
                scheme: Scheme::Single,
                nodes: 8,
                contexts_per_node: 1,
                total_work: 400_000,
                warmup_cycles: 20_000,
                latency: LatencyModel::dash_like(),
                seed: 0x19941004,
                idle_skip: true,
                adaptive: true,
                validate: interleave_obs::validate::default_enabled(),
                fault_at: None,
                mp_jobs: 1,
            },
        }
    }

    /// Everything that determines this run's result, on one line: two
    /// sims with equal descriptors produce bit-identical results, so the
    /// result cache keys on it. The destructure names every field, so a
    /// new one does not compile until it is keyed or declared host-only.
    pub fn descriptor(&self) -> String {
        let Self {
            app,
            scheme,
            nodes,
            contexts_per_node,
            total_work,
            warmup_cycles,
            latency,
            seed,
            fault_at,
            // Host-only: it skips cycles in which a shard can only idle.
            idle_skip: _,
            // Host-only: widened quanta end on the fixed barrier grid.
            adaptive: _,
            // Host-only: the checkers observe the run and never steer it.
            validate: _,
            // Host-only: shards exchange only at quantum barriers.
            mp_jobs: _,
        } = self;
        format!(
            "mp app={app:?} scheme={scheme:?} nodes={nodes:?} contexts={contexts_per_node:?} \
             work={total_work:?} warmup={warmup_cycles:?} latency={latency:?} seed={seed:?} \
             fault_at={fault_at:?}"
        )
    }

    /// Runs the simulation to completion.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent configuration, on an invariant violation
    /// when validation is enabled, or if the run exceeds an internal
    /// safety bound (livelock).
    pub fn run(&self) -> MpResult {
        self.run_on(Arc::new(RwLock::new(self.directory())))
    }

    /// The master directory, sized once: a node reports each eviction
    /// before the fill that caused it, so every tracked line is cached
    /// by some node's L1D and `nodes × frames` lines bound the table,
    /// which therefore never grows during a run.
    fn directory(&self) -> Directory {
        let l1d = CacheParams::primary_data();
        Directory::with_capacity(self.nodes, l1d.line, self.nodes * l1d.lines() as usize)
    }

    /// Runs the simulation over `master`, the machine's directory.
    fn run_on(&self, master: Arc<RwLock<Directory>>) -> MpResult {
        self.app.validate();
        let table_bytes = read_lock(&master).table_bytes();
        assert!(self.nodes >= 1, "need at least one node");
        let threads = self.nodes * self.contexts_per_node;
        let quota = (self.total_work / threads as u64).max(1);
        let hop = self.latency.lookahead();
        let contexts = self.contexts_per_node;

        let states: Vec<Arc<ShardSlot>> = (0..self.nodes)
            .map(|n| Arc::new(ShardSlot::new(ShardState::new(n, contexts, threads as u32, hop))))
            .collect();
        let mut shards: Vec<NodeShard> = (0..self.nodes)
            .map(|n| {
                let mut cfg = ProcConfig::new(self.scheme, contexts);
                cfg.idle_skip = self.idle_skip;
                cfg.validate = self.validate;
                let port = ShardPort::new(
                    n,
                    self.nodes,
                    self.seed,
                    self.latency,
                    states[n].clone(),
                    master.clone(),
                );
                NodeShard { cpu: Processor::new(cfg, port), contexts }
            })
            .collect();
        for (node, shard) in shards.iter_mut().enumerate() {
            for ctx in 0..contexts {
                let thread = node * contexts + ctx;
                shard.cpu.attach(
                    ctx,
                    Box::new(SplashThread::new(self.app.clone(), thread, threads, self.seed)),
                );
            }
        }

        // The barrier schedule is shared verbatim by the engine's serial
        // and threaded executors, so `mp_jobs` cannot influence results;
        // quanta of at most one lookahead (adaptively widened across
        // quiescent stretches, still on the fixed barrier grid), clipped
        // to the warmup boundary and to every 128-cycle validation chunk.
        let schedule = QuantumSchedule {
            hop,
            warmup: self.warmup_cycles,
            chunk: 128,
            safety_slack: self.total_work.saturating_mul(400).max(20_000_000),
            adaptive: self.adaptive,
        };
        let mut hooks = MachineHooks {
            sim: self,
            master: &master,
            states: &states,
            exchange: Exchange::new(hop),
            fault_pending: self.fault_at,
            quota,
        };
        let ((start, end), shards) =
            run_sharded(shards, self.mp_jobs, |exec| schedule.run(exec, &mut hooks));

        let cpus: Vec<Processor<ShardPort>> = shards.into_iter().map(|s| s.cpu).collect();
        let breakdown: Breakdown = cpus.iter().map(|c| c.breakdown()).sum();
        let per_node: Vec<Breakdown> = cpus.iter().map(|c| c.breakdown().clone()).collect();
        let directory = {
            let dir = read_lock(&master);
            debug_assert_eq!(dir.table_bytes(), table_bytes, "the directory outgrew its bound");
            *dir.stats()
        };
        let mut metrics = Registry::new();
        for cpu in &cpus {
            cpu.collect_metrics(&mut metrics);
        }
        metrics.counter("mp.dir.local", directory.local);
        metrics.counter("mp.dir.remote", directory.remote);
        metrics.counter("mp.dir.remote_cache", directory.remote_cache);
        metrics.counter("mp.dir.upgrades", directory.upgrades);
        metrics.counter("mp.dir.invalidations", directory.invalidations);
        metrics.counter("mp.dir.writebacks", directory.writebacks);
        let mut merged: [Histogram; 4] = Default::default();
        let mut mlp = (0u64, 0u64);
        let mut sync_stats = (0u64, 0u64);
        for state in &states {
            let st = state.lock();
            for (h, shard) in merged.iter_mut().zip(st.latencies.iter()) {
                h.merge(shard);
            }
            mlp.0 += st.mlp_accum.0;
            mlp.1 += st.mlp_accum.1;
            sync_stats.0 += st.sync.waits();
            sync_stats.1 += st.sync.grants();
        }
        for class in MissClass::MISSES {
            let h = &merged[class.index()];
            if !h.is_empty() {
                metrics.histogram(&format!("mp.latency.{}", class.label()), h);
            }
        }
        metrics.counter("mp.sync.waits", sync_stats.0);
        metrics.counter("mp.sync.grants", sync_stats.1);
        let avg_mlp = if mlp.1 == 0 { 0.0 } else { mlp.0 as f64 / mlp.1 as f64 };

        MpResult { cycles: end - start, breakdown, directory, threads, avg_mlp, per_node, metrics }
    }
}

/// One node as an engine shard: the processor over the node's
/// [`ShardPort`], which checks the node's [`ShardState`] out of its slot
/// for each segment.
struct NodeShard {
    cpu: Processor<ShardPort>,
    contexts: usize,
}

impl Shard for NodeShard {
    fn run_segment(&mut self, seg: Segment) {
        let _advance = profile::enter("mp.shard_advance");
        if seg.reset {
            self.cpu.reset_breakdown();
            for ctx in 0..self.contexts {
                self.cpu.reset_retired(ctx);
            }
        }
        self.cpu.port_mut().check_out();
        advance_shard(&mut self.cpu, seg.from, seg.to, self.contexts);
        self.cpu.port_mut().check_in();
    }
}

/// The machine-level callbacks the engine schedule drives between
/// segments. All of them run on the driver thread while every worker is
/// parked at a barrier, so every shard state is parked in its slot and
/// the slot locks are uncontended.
struct MachineHooks<'a> {
    sim: &'a MpSim,
    master: &'a RwLock<Directory>,
    states: &'a [Arc<ShardSlot>],
    exchange: Exchange,
    fault_pending: Option<u64>,
    quota: u64,
}

impl Hooks for MachineHooks<'_> {
    fn exchange(&mut self, _now: u64) {
        self.exchange.run(self.master, self.states);
    }

    /// Machine-wide coherence checks are O(tracked lines), so they run
    /// at chunk boundaries rather than per tick; per-tick processor
    /// checks are enabled on each CPU via `cfg.validate`.
    fn check(&mut self, now: u64) -> Result<(), String> {
        if !self.sim.validate {
            return Ok(());
        }
        let fail = |v: Violation| v.with_seed(self.sim.seed).to_string();
        let dir = read_lock(self.master);
        dir.check_invariants(now).map_err(fail)?;
        // Cross-check: every copy the master tracks must actually be
        // cached by its node.
        let guards: Vec<Parked<'_>> = self.states.iter().map(|s| s.lock()).collect();
        let mut missing = None;
        dir.for_each_cached_copy(|line, node, dirty| {
            if missing.is_none() && (node >= self.sim.nodes || !guards[node].cache.probe(line)) {
                missing = Some((line, node, dirty));
            }
        });
        if let Some((line, node, dirty)) = missing {
            let state = if dirty { "dirty" } else { "shared" };
            return Err(fail(
                Violation::new(
                    "mp.directory",
                    "directory tracks a copy the node does not cache",
                    now,
                    format!("line {line:#x} recorded {state} at node {node}"),
                )
                .with_context(node),
            ));
        }
        for g in &guards {
            g.sync.check_invariants(now).map_err(fail)?;
        }
        Ok(())
    }

    fn begin_measurement(&mut self, _now: u64) {
        write_lock(self.master).reset_stats();
        for state in self.states {
            for h in &mut state.lock().latencies {
                h.reset();
            }
        }
    }

    fn chunk_boundary(&mut self, now: u64) {
        if self.fault_pending.is_some_and(|t| now >= t) {
            self.fault_pending = None;
            // An illegal owner: no such node exists, so the directory
            // legality check must trip at the next boundary.
            write_lock(self.master).corrupt_line_for_test(0x40, self.sim.nodes + 5);
        }
    }

    fn done(&mut self) -> bool {
        self.states.iter().all(|s| s.lock().retired.iter().all(|&r| r >= self.quota))
    }

    /// Folds every shard's published processor idle bound and earliest
    /// queued message into the machine-wide claim the adaptive schedule
    /// acts on. Reads only simulated state published at barriers, so the
    /// answer — and therefore the widened schedule — is identical at
    /// every `mp_jobs` value.
    fn quiescent(&mut self) -> Quiescence {
        let mut q = Quiescence::External;
        for state in self.states {
            let st = state.lock();
            q = q.also_idle(st.cpu_idle).also_due(st.next_due());
            if q == Quiescence::Active {
                break;
            }
        }
        q
    }
}

/// Advances one shard's processor from `from` to exactly `to`, applying
/// queued messages at their due cycles and fast-forwarding idle and
/// stalled stretches (the per-node reuse of the event-driven
/// uniprocessor machinery: the jump target is clamped to the segment
/// end, the processor's own bound, and the earliest queued message).
/// The node's state is checked out, so nothing here takes a lock.
fn advance_shard(cpu: &mut Processor<ShardPort>, from: u64, to: u64, contexts: usize) {
    debug_assert_eq!(cpu.now(), from);
    let mut wakes = Vec::new();
    loop {
        let now = cpu.now();
        if now >= to {
            break;
        }
        // One peek per iteration: apply due messages only when one is
        // due, and bound any fast-forward by the next due cycle.
        let st = cpu.port_mut().state();
        let mut next_due = st.next_due();
        if next_due.is_some_and(|due| due <= now) {
            st.deliver_due(now, &mut wakes);
            next_due = st.next_due();
            for ctx in wakes.drain(..) {
                if cpu.ctx_view(ctx).waiting_on == Some(WaitReason::Sync) {
                    cpu.wake_context(ctx);
                }
                // Otherwise the context spins at issue and will observe
                // its token on retry.
            }
        }
        if !cpu.fast_forward(next_due.map_or(to, |due| due.min(to))) {
            cpu.tick();
        }
    }
    // Publish retired counts and the idle bound for the driver's
    // barrier-time done-check and quiescence fold.
    for ctx in 0..contexts {
        let retired = cpu.retired(ctx);
        cpu.port_mut().state().retired[ctx] = retired;
    }
    let idle = cpu.idle_bound();
    cpu.port_mut().state().cpu_idle = idle;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps;
    use interleave_stats::Category;

    fn quick(app: SplashProfile, scheme: Scheme, nodes: usize, ctxs: usize) -> MpResult {
        MpSim::builder(app)
            .scheme(scheme)
            .nodes(nodes)
            .contexts(ctxs)
            .work(24_000)
            .warmup(2_000)
            .build()
            .run()
    }

    #[test]
    fn builder_defaults_are_stable() {
        // These defaults were pinned by the old `MpSim::new(app, scheme,
        // nodes, contexts)` constructor; the builder must keep them.
        let sim =
            MpSim::builder(apps::water()).scheme(Scheme::Blocked).nodes(4).contexts(2).build();
        assert_eq!(sim.scheme, Scheme::Blocked);
        assert_eq!(sim.nodes, 4);
        assert_eq!(sim.contexts_per_node, 2);
        assert_eq!(sim.total_work, 400_000);
        assert_eq!(sim.warmup_cycles, 20_000);
        assert_eq!(sim.seed, 0x19941004);
        assert_eq!(sim.latency, LatencyModel::dash_like());
        assert_eq!(sim.mp_jobs, 1);
        assert!(sim.idle_skip);
        assert!(sim.adaptive);
        assert!(sim.fault_at.is_none());
    }

    #[test]
    fn descriptor_moves_with_fault_injection_and_not_with_host_switches() {
        let sim = || MpSim::builder(apps::water()).nodes(4).contexts(2);
        let base = sim().build().descriptor();
        assert_ne!(sim().inject_directory_fault_at(5_000).build().descriptor(), base);
        for host_only in [
            sim().validate(true),
            sim().validate(false),
            sim().idle_skip(false),
            sim().adaptive(false),
            sim().mp_jobs(4),
        ] {
            assert_eq!(host_only.build().descriptor(), base);
        }
    }

    #[test]
    fn directory_is_sized_once_for_a_table10_cell() {
        // Table 10's CI cell shape (the builder defaults: 8 nodes, 400k
        // work, 20k warmup) at its widest: 8 nodes x 2,048 L1D frames at
        // most half full is 32,768 slots of 16 bytes.
        let sim = MpSim::builder(apps::ocean()).scheme(Scheme::Blocked).contexts(8).build();
        let master = Arc::new(RwLock::new(sim.directory()));
        assert_eq!(read_lock(&master).table_bytes(), 512 * 1024);
        sim.run_on(master.clone());
        assert_eq!(read_lock(&master).table_bytes(), 512 * 1024, "the table reallocated");
    }

    #[test]
    fn water_completes_and_accounts() {
        let r = quick(apps::water(), Scheme::Interleaved, 4, 2);
        assert_eq!(r.threads, 8);
        assert!(r.cycles > 0);
        assert!(r.breakdown.get(Category::Busy) > 0);
        // All-processor cycles ≈ nodes × wall cycles (within the final
        // chunk granularity).
        let per_cpu = r.breakdown.total() / 4;
        assert!(per_cpu >= r.cycles - 256 && per_cpu <= r.cycles);
    }

    #[test]
    fn communication_classes_observed() {
        let r = quick(apps::mp3d(), Scheme::Blocked, 4, 2);
        assert!(r.directory.remote > 0, "remote memory misses expected");
        assert!(r.directory.remote_cache > 0, "dirty interventions expected");
        assert!(r.directory.invalidations > 0, "invalidations expected");
    }

    #[test]
    fn sync_time_appears_for_lock_heavy_apps() {
        let r = quick(apps::cholesky(), Scheme::Interleaved, 4, 2);
        assert!(
            r.breakdown.get(Category::Sync) > 0,
            "cholesky's task-queue lock should produce sync stall time"
        );
    }

    #[test]
    fn multiple_contexts_speed_up_mp3d() {
        let one = quick(apps::mp3d(), Scheme::Single, 4, 1);
        let four = quick(apps::mp3d(), Scheme::Interleaved, 4, 4);
        assert!(
            four.cycles < one.cycles,
            "4-context interleaved ({}) should beat single ({})",
            four.cycles,
            one.cycles
        );
    }

    #[test]
    fn per_node_breakdowns_are_balanced() {
        let r = quick(apps::ocean(), Scheme::Interleaved, 4, 2);
        assert_eq!(r.per_node.len(), 4);
        let busies: Vec<u64> = r.per_node.iter().map(|b| b.get(Category::Busy)).collect();
        let min = *busies.iter().min().unwrap();
        let max = *busies.iter().max().unwrap();
        assert!(min > 0);
        assert!(
            max < min * 3,
            "data-parallel work should be roughly balanced across nodes: {busies:?}"
        );
    }

    #[test]
    fn metrics_cover_directory_latency_and_cycles() {
        let r = quick(apps::mp3d(), Scheme::Interleaved, 4, 2);
        assert_eq!(r.metrics.counter_value("mp.dir.remote"), Some(r.directory.remote));
        assert_eq!(r.metrics.counter_value("mp.dir.local"), Some(r.directory.local));
        let lat = r.metrics.histogram_value("mp.latency.remote").expect("remote latencies");
        assert!(lat.count() > 0);
        assert!(lat.min() >= 1, "unloaded latency is at least one cycle");
        // cycles.* counters are the sum over all node processors, like the
        // aggregate breakdown.
        assert_eq!(r.metrics.counter_value("cycles.busy"), Some(r.breakdown.get(Category::Busy)));
    }

    #[test]
    fn deterministic_runs() {
        let a = quick(apps::locus(), Scheme::Interleaved, 2, 2);
        let b = quick(apps::locus(), Scheme::Interleaved, 2, 2);
        assert_eq!(a.cycles, b.cycles);
    }

    #[test]
    fn mp_jobs_is_bit_invisible() {
        let run = |jobs: usize| {
            MpSim::builder(apps::water())
                .scheme(Scheme::Interleaved)
                .nodes(4)
                .contexts(2)
                .work(16_000)
                .warmup(1_000)
                .mp_jobs(jobs)
                .build()
                .run()
        };
        let serial = run(1);
        assert_eq!(serial, run(2));
        assert_eq!(serial, run(4));
        assert_eq!(serial, run(64)); // clamped to the node count
    }

    #[test]
    fn idle_skip_is_bit_invisible_in_parallel() {
        let run = |skip: bool| {
            MpSim::builder(apps::cholesky())
                .scheme(Scheme::Interleaved)
                .nodes(4)
                .contexts(2)
                .work(8_000)
                .warmup(500)
                .mp_jobs(2)
                .idle_skip(skip)
                .build()
                .run()
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn adaptive_lookahead_is_bit_invisible() {
        // Cholesky's lock contention produces the machine-wide quiescent
        // stretches adaptive widening exploits; turning it on (serial or
        // threaded) must not change a single bit of the result.
        let run = |adaptive: bool, jobs: usize| {
            MpSim::builder(apps::cholesky())
                .scheme(Scheme::Interleaved)
                .nodes(4)
                .contexts(2)
                .work(8_000)
                .warmup(500)
                .adaptive(adaptive)
                .mp_jobs(jobs)
                .build()
                .run()
        };
        let fixed = run(false, 1);
        assert_eq!(fixed, run(true, 1));
        assert_eq!(fixed, run(true, 2));
        assert_eq!(fixed, run(true, 4));
    }

    #[test]
    fn adaptive_composes_with_disabled_idle_skip() {
        // Quiescence is folded from published idle bounds even when
        // within-segment idle skipping is off; the two knobs must stay
        // independent and both bit-invisible.
        let run = |adaptive: bool| {
            MpSim::builder(apps::barnes())
                .scheme(Scheme::Blocked)
                .nodes(2)
                .contexts(2)
                .work(6_000)
                .warmup(500)
                .idle_skip(false)
                .adaptive(adaptive)
                .build()
                .run()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn odd_warmup_boundary_composes_with_quanta_and_chunks() {
        // 777 is neither a quantum (80) nor a chunk (128) multiple, so
        // the warmup reset lands inside both; the parallel schedule must
        // clip its segments to the same cycle the serial one does.
        let run = |jobs: usize| {
            MpSim::builder(apps::mp3d())
                .scheme(Scheme::Blocked)
                .nodes(2)
                .contexts(2)
                .work(6_000)
                .warmup(777)
                .mp_jobs(jobs)
                .build()
                .run()
        };
        assert_eq!(run(1), run(2));
    }

    #[test]
    #[should_panic(expected = "out-of-range owner")]
    fn parallel_driver_propagates_validation_panics() {
        MpSim::builder(apps::water())
            .nodes(4)
            .contexts(1)
            .work(8_000)
            .warmup(500)
            .mp_jobs(4)
            .validate(true)
            .inject_directory_fault_at(1_000)
            .build()
            .run();
    }
}
