//! The conservative quantum-barrier driver.
//!
//! Time advances in quanta of at most one lookahead `hop`: within a
//! quantum every shard advances independently (optionally on parallel
//! host threads), and at the quantum barrier the machine's
//! [`Hooks::exchange`] replays logged state changes and routes messages.
//! Because no cross-shard message can be due before the end of the
//! quantum that produced it, results are bit-identical for any worker
//! count.
//!
//! [`QuantumSchedule::run`] owns the barrier placement — warmup in
//! hop-sized quanta clipped to the warmup boundary, then measurement in
//! fixed validation chunks, every clamp going through
//! [`crate::quantum_end`] — and is shared verbatim by the serial and
//! threaded executors of [`run_sharded`], so the worker count cannot
//! influence the schedule.
//!
//! # Adaptive lookahead
//!
//! With [`QuantumSchedule::adaptive`] set, the schedule consults
//! [`Hooks::quiescent`] before each quantum. If the machine is provably
//! quiet until cycle `q` — every shard idle, no message due before `q` —
//! the next quantum widens past the fixed `hop` floor to the last fixed
//! barrier cycle at or before `q` (or all the way to the boundary when
//! `q` lies beyond it). Every skipped barrier falls inside the quiet
//! window, so its exchange would have replayed nothing and routed
//! nothing: removing it is invisible to simulated state. Barriers that
//! do remain stay on the fixed schedule's grid, so transaction replay
//! and message delivery happen at exactly the cycles the fixed schedule
//! would use — which is why adaptive widening is byte-identical to fixed
//! quanta, a contract the determinism gate enforces.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use interleave_obs::profile;

use crate::time::{quantum_end, Quiescence};

/// One segment order from the schedule to every shard: advance from
/// `from` to exactly `to`, resetting measured statistics first when
/// `reset` is set (the first segment after warmup).
#[derive(Debug, Clone, Copy)]
pub struct Segment {
    /// Starting cycle (the shard's current clock).
    pub from: u64,
    /// Ending cycle (the next quantum barrier).
    pub to: u64,
    /// Reset measured statistics before advancing.
    pub reset: bool,
}

/// Why a schedule stopped early.
#[derive(Debug)]
pub enum Abort {
    /// A violation or livelock the schedule detected; carries the
    /// message to panic with after the workers shut down.
    Fail(String),
    /// A shard advance panicked; the payload waits in the executor's
    /// panic slot.
    Panicked,
}

/// Machine-level callbacks [`QuantumSchedule::run`] drives between
/// segments. All hooks run on the driver thread while every worker is
/// parked at a barrier, so implementations may freely lock shard state.
pub trait Hooks {
    /// The quantum barrier at cycle `now`: replay logged transactions
    /// and route the messages they generate.
    fn exchange(&mut self, now: u64);

    /// Machine-wide invariant checks at the warmup boundary and at every
    /// chunk boundary; an `Err` aborts the run with the message.
    fn check(&mut self, now: u64) -> Result<(), String> {
        let _ = now;
        Ok(())
    }

    /// Called once at the warmup boundary, after the check: reset
    /// measured statistics.
    fn begin_measurement(&mut self, now: u64) {
        let _ = now;
    }

    /// Called at every measured chunk boundary before the check (fault
    /// injection and similar test plumbing).
    fn chunk_boundary(&mut self, now: u64) {
        let _ = now;
    }

    /// Whether the run's completion condition holds (checked at chunk
    /// boundaries).
    fn done(&mut self) -> bool;

    /// Machine-wide quiescence, consulted before each quantum when the
    /// schedule is adaptive. The default pins the machine active, which
    /// disables widening.
    fn quiescent(&mut self) -> Quiescence {
        Quiescence::Active
    }
}

/// The barrier schedule: warmup in hop-sized quanta, then measurement in
/// fixed validation chunks, each advanced in quanta of at most `hop`
/// cycles with an exchange at every barrier.
///
/// The schedule is a pure function of its fields plus the hook's
/// deterministic quiescence reports — never of the executor's worker
/// count — which is what keeps parallel runs bit-identical to serial
/// ones.
#[derive(Debug, Clone, Copy)]
pub struct QuantumSchedule {
    /// Conservative lookahead: the minimum cycles any cross-shard
    /// message spends in flight, and therefore the fixed quantum length.
    pub hop: u64,
    /// Warmup cycles before measured statistics reset.
    pub warmup: u64,
    /// Measured-loop chunk length: completion, invariant checks, and
    /// fault hooks run at every chunk boundary.
    pub chunk: u64,
    /// Measured cycles past which the run aborts as a livelock.
    pub safety_slack: u64,
    /// Widen quanta across provably quiescent stretches (see the module
    /// docs); byte-identical to fixed quanta either way.
    pub adaptive: bool,
}

impl QuantumSchedule {
    /// Runs the schedule: `exec` advances every shard over one segment
    /// (returning `Err(())` if a shard panicked and the payload is
    /// parked), `hooks` supplies the machine-level callbacks. Returns
    /// the measured `(start, end)` cycle span.
    ///
    /// # Panics
    ///
    /// Panics if `hop` or `chunk` is zero.
    pub fn run(
        &self,
        exec: &mut dyn FnMut(Segment) -> Result<(), ()>,
        hooks: &mut impl Hooks,
    ) -> Result<(u64, u64), Abort> {
        assert!(self.hop > 0, "lookahead hop must be at least one cycle");
        assert!(self.chunk > 0, "validation chunk must be at least one cycle");
        let mut now = 0u64;
        while now < self.warmup {
            let to = self.segment_end(now, self.warmup, hooks);
            {
                let _segment = profile::enter("engine.segment");
                exec(Segment { from: now, to, reset: false }).map_err(|()| Abort::Panicked)?;
            }
            let _exchange = profile::enter("engine.exchange");
            hooks.exchange(to);
            now = to;
        }
        hooks.check(now).map_err(Abort::Fail)?;
        hooks.begin_measurement(now);
        let start = now;
        let safety = start.saturating_add(self.safety_slack);
        // The shards reset their own statistics at the start of the
        // first measured segment.
        let mut reset = true;
        loop {
            let chunk_end = now + self.chunk;
            while now < chunk_end {
                let to = self.segment_end(now, chunk_end, hooks);
                {
                    let _segment = profile::enter("engine.segment");
                    exec(Segment { from: now, to, reset }).map_err(|()| Abort::Panicked)?;
                }
                reset = false;
                let _exchange = profile::enter("engine.exchange");
                hooks.exchange(to);
                now = to;
            }
            hooks.chunk_boundary(now);
            hooks.check(now).map_err(Abort::Fail)?;
            if hooks.done() {
                break;
            }
            if now >= safety {
                return Err(Abort::Fail(
                    "quantum schedule exceeded its safety bound (livelock?)".into(),
                ));
            }
        }
        Ok((start, now))
    }

    /// End of the next quantum starting at `now` within `boundary`: the
    /// fixed `hop` clamp, adaptively widened — only onto the fixed
    /// schedule's own barrier grid — across a window the hooks prove
    /// quiescent.
    fn segment_end(&self, now: u64, boundary: u64, hooks: &mut impl Hooks) -> u64 {
        let fixed = quantum_end(now, self.hop, boundary);
        if !self.adaptive || fixed >= boundary {
            return fixed;
        }
        // The quiescence query locks every shard, so it is the only
        // part of quantum scheduling worth timing.
        let _schedule = profile::enter("engine.schedule");
        match hooks.quiescent() {
            Quiescence::Active => fixed,
            Quiescence::External => boundary,
            Quiescence::Until(q) => {
                if q >= boundary {
                    boundary
                } else {
                    // Snap down to the fixed barrier grid so every
                    // skipped barrier lies inside the quiet window and
                    // is provably a no-op exchange.
                    fixed.max(now + q.saturating_sub(now) / self.hop * self.hop)
                }
            }
        }
    }
}

/// One shard of the machine: everything a single worker advances
/// independently between barriers.
pub trait Shard: Send {
    /// Advances this shard over one commanded segment.
    fn run_segment(&mut self, seg: Segment);
}

/// Locks a mutex, ignoring poisoning: panics are handled deliberately by
/// the segment protocol (stored, shut down, re-raised), so a poisoned
/// lock must not cascade into a second panic that would wedge a barrier.
pub fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// See [`lock`].
pub fn read_lock<T>(m: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    m.read().unwrap_or_else(PoisonError::into_inner)
}

/// See [`lock`].
pub fn write_lock<T>(m: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    m.write().unwrap_or_else(PoisonError::into_inner)
}

/// One segment order from the driver to every worker group.
#[derive(Debug, Clone, Copy)]
struct SegmentCtl {
    seg: Segment,
    quit: bool,
}

/// Runs a schedule over `shards`, serially (`jobs <= 1`) or on `jobs`
/// host threads (the driver thread doubles as worker group 0). `drive`
/// receives the segment executor and runs the schedule — typically
/// [`QuantumSchedule::run`] — exactly once; the executor advances every
/// shard over each commanded segment and reports `Err(())` if any shard
/// panicked. Returns the schedule's measured span and the shards in
/// their original order.
///
/// # Panics
///
/// Re-raises the first shard panic, or panics with the message of an
/// [`Abort::Fail`], after every worker has shut down cleanly.
pub fn run_sharded<S: Shard>(
    mut shards: Vec<S>,
    jobs: usize,
    drive: impl FnOnce(&mut dyn FnMut(Segment) -> Result<(), ()>) -> Result<(u64, u64), Abort>,
) -> ((u64, u64), Vec<S>) {
    let jobs = jobs.clamp(1, shards.len().max(1));
    if jobs == 1 {
        let mut exec = |seg: Segment| -> Result<(), ()> {
            for shard in shards.iter_mut() {
                shard.run_segment(seg);
            }
            Ok(())
        };
        return match drive(&mut exec) {
            Ok(span) => (span, shards),
            Err(Abort::Fail(msg)) => panic!("{msg}"),
            Err(Abort::Panicked) => {
                unreachable!("the serial executor propagates panics directly")
            }
        };
    }

    let mut groups: Vec<Vec<(usize, S)>> = (0..jobs).map(|_| Vec::new()).collect();
    for (index, shard) in shards.drain(..).enumerate() {
        groups[index % jobs].push((index, shard));
    }
    // The driver thread doubles as worker group 0, so `jobs` counts
    // every host thread advancing shards.
    let mut own = groups.remove(0);
    let idle = SegmentCtl { seg: Segment { from: 0, to: 0, reset: false }, quit: false };
    let ctl = Mutex::new(idle);
    let start_bar = SpinBarrier::new(jobs);
    let end_bar = SpinBarrier::new(jobs);
    let panic_slot: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
    let (outcome, mut indexed) = std::thread::scope(|scope| {
        let ctl = &ctl;
        let start_bar = &start_bar;
        let end_bar = &end_bar;
        let panic_slot = &panic_slot;
        let handles: Vec<_> = groups
            .into_iter()
            .map(|group| {
                scope.spawn(move || worker_loop(group, ctl, start_bar, end_bar, panic_slot))
            })
            .collect();
        let mut exec = |seg: Segment| -> Result<(), ()> {
            *lock(ctl) = SegmentCtl { seg, quit: false };
            start_bar.wait();
            let result = catch_unwind(AssertUnwindSafe(|| run_group(&mut own, seg)));
            if let Err(payload) = result {
                lock(panic_slot).get_or_insert(payload);
            }
            end_bar.wait();
            // Any panic (ours or a worker's) aborts the schedule; the
            // payload waits in the slot.
            if lock(panic_slot).is_some() {
                Err(())
            } else {
                Ok(())
            }
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| drive(&mut exec)));
        // Quit handshake on every exit path: the workers park at the
        // start barrier, so release them before the scope would try to
        // join them.
        *lock(ctl) = SegmentCtl { quit: true, ..idle };
        start_bar.wait();
        let mut indexed = own;
        for h in handles {
            indexed.extend(h.join().expect("workers catch panics and exit at quit"));
        }
        (outcome, indexed)
    });
    indexed.sort_unstable_by_key(|&(index, _)| index);
    let shards: Vec<S> = indexed.into_iter().map(|(_, shard)| shard).collect();
    match outcome {
        Err(driver_panic) => resume_unwind(driver_panic),
        Ok(Err(Abort::Panicked)) => {
            let payload = panic_slot
                .into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("a panicked abort leaves its payload in the slot");
            resume_unwind(payload);
        }
        Ok(Err(Abort::Fail(msg))) => panic!("{msg}"),
        Ok(Ok(span)) => (span, shards),
    }
}

/// Runs one segment over every shard a worker group owns.
fn run_group<S: Shard>(group: &mut [(usize, S)], seg: Segment) {
    for (_, shard) in group.iter_mut() {
        shard.run_segment(seg);
    }
}

/// One worker's service loop: park at the start barrier, run the
/// commanded segment over the owned shards, park at the end barrier.
/// Panics are caught and parked in `panic_slot` so the barrier protocol
/// never wedges; the thread exits (returning its shards) on `quit`.
/// The loop holds a profiler batch, so a profiled run folds each
/// worker's phases once rather than once per segment.
fn worker_loop<S: Shard>(
    mut group: Vec<(usize, S)>,
    ctl: &Mutex<SegmentCtl>,
    start: &SpinBarrier,
    end: &SpinBarrier,
    panic_slot: &Mutex<Option<Box<dyn Any + Send>>>,
) -> Vec<(usize, S)> {
    let _batch = profile::batch();
    loop {
        start.wait();
        let ctl = *lock(ctl);
        if ctl.quit {
            return group;
        }
        let result = catch_unwind(AssertUnwindSafe(|| run_group(&mut group, ctl.seg)));
        if let Err(payload) = result {
            lock(panic_slot).get_or_insert(payload);
        }
        end.wait();
    }
}

/// A reusable spin rendezvous for the per-segment barriers. `std`'s
/// `Barrier` parks threads through the OS; segments are tens of
/// microseconds of host work, so spinning (with a yield fallback for
/// oversubscribed hosts) keeps the rendezvous cheap.
struct SpinBarrier {
    members: usize,
    count: AtomicUsize,
    generation: AtomicUsize,
}

impl SpinBarrier {
    fn new(members: usize) -> SpinBarrier {
        SpinBarrier { members, count: AtomicUsize::new(0), generation: AtomicUsize::new(0) }
    }

    fn wait(&self) {
        let generation = self.generation.load(Ordering::Acquire);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.members {
            // Last arrival: reset the count for the next use, then
            // release the waiters (the generation bump publishes the
            // reset).
            self.count.store(0, Ordering::Relaxed);
            self.generation.fetch_add(1, Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.generation.load(Ordering::Acquire) == generation {
                spins = spins.wrapping_add(1);
                if spins.is_multiple_of(1024) {
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records every segment it is told to run.
    struct LogShard {
        log: Vec<(u64, u64, bool)>,
    }

    impl Shard for LogShard {
        fn run_segment(&mut self, seg: Segment) {
            self.log.push((seg.from, seg.to, seg.reset));
        }
    }

    /// Hooks that finish after a fixed number of chunks and report a
    /// scripted quiescence before each quantum.
    struct ScriptedHooks {
        exchanges: Vec<u64>,
        chunks_left: usize,
        quiescence: Box<dyn FnMut(usize) -> Quiescence>,
        queries: usize,
    }

    impl ScriptedHooks {
        fn fixed(chunks: usize) -> ScriptedHooks {
            ScriptedHooks {
                exchanges: Vec::new(),
                chunks_left: chunks,
                quiescence: Box::new(|_| Quiescence::Active),
                queries: 0,
            }
        }
    }

    impl Hooks for ScriptedHooks {
        fn exchange(&mut self, now: u64) {
            self.exchanges.push(now);
        }

        fn done(&mut self) -> bool {
            self.chunks_left = self.chunks_left.saturating_sub(1);
            self.chunks_left == 0
        }

        fn quiescent(&mut self) -> Quiescence {
            let q = (self.quiescence)(self.queries);
            self.queries += 1;
            q
        }
    }

    fn schedule(adaptive: bool) -> QuantumSchedule {
        QuantumSchedule { hop: 80, warmup: 200, chunk: 128, safety_slack: 1 << 20, adaptive }
    }

    /// What one run observes: its span, the `(from, to, reset)`
    /// segments, and the barrier cycles.
    type Observed = ((u64, u64), Vec<(u64, u64, bool)>, Vec<u64>);

    /// One run under the serial executor.
    fn run_one(sched: QuantumSchedule, mut hooks: ScriptedHooks) -> Observed {
        let shards = vec![LogShard { log: Vec::new() }];
        let (span, shards) = run_sharded(shards, 1, |exec| sched.run(exec, &mut hooks));
        let log = shards.into_iter().next().unwrap().log;
        (span, log, hooks.exchanges)
    }

    #[test]
    fn fixed_schedule_clips_to_warmup_and_chunks() {
        let (span, log, barriers) = run_one(schedule(false), ScriptedHooks::fixed(1));
        // Warmup 200 with hop 80: quanta 80/80/40; one 128-cycle chunk:
        // 80/48, with the reset on the first measured segment.
        assert_eq!(
            log,
            vec![
                (0, 80, false),
                (80, 160, false),
                (160, 200, false),
                (200, 280, true),
                (280, 328, false),
            ]
        );
        assert_eq!(barriers, vec![80, 160, 200, 280, 328]);
        assert_eq!(span, (200, 328));
    }

    #[test]
    fn adaptive_quiet_machine_widens_to_each_boundary() {
        let mut hooks = ScriptedHooks::fixed(2);
        hooks.quiescence = Box::new(|_| Quiescence::External);
        let (span, log, barriers) = run_one(schedule(true), hooks);
        // Fully external machine: one segment per boundary.
        assert_eq!(log, vec![(0, 200, false), (200, 328, true), (328, 456, false)]);
        assert_eq!(barriers, vec![200, 328, 456]);
        assert_eq!(span, (200, 456));
    }

    #[test]
    fn adaptive_widening_snaps_down_to_the_fixed_grid() {
        let mut hooks = ScriptedHooks::fixed(1);
        // Quiet until cycle 190 < warmup end: the widened quantum must
        // stop at 160 (= 2 hops), the last fixed barrier inside the
        // quiet window, not at 190. Afterwards stay active.
        hooks.quiescence =
            Box::new(|n| if n == 0 { Quiescence::Until(190) } else { Quiescence::Active });
        let (_, log, _) = run_one(schedule(true), hooks);
        assert_eq!(
            log,
            vec![(0, 160, false), (160, 200, false), (200, 280, true), (280, 328, false)]
        );
    }

    #[test]
    fn adaptive_active_machine_matches_the_fixed_schedule() {
        let (_, fixed_log, fixed_barriers) = run_one(schedule(false), ScriptedHooks::fixed(2));
        let (_, adaptive_log, adaptive_barriers) = run_one(schedule(true), ScriptedHooks::fixed(2));
        assert_eq!(fixed_log, adaptive_log);
        assert_eq!(fixed_barriers, adaptive_barriers);
    }

    #[test]
    fn quiescence_below_one_hop_keeps_the_fixed_quantum() {
        let mut hooks = ScriptedHooks::fixed(1);
        hooks.quiescence = Box::new(|_| Quiescence::Until(79));
        let (_, log, _) = run_one(schedule(true), hooks);
        assert_eq!(log[0], (0, 80, false));
    }

    #[test]
    fn parallel_executor_matches_serial_segments() {
        let mk = || (0..5).map(|_| LogShard { log: Vec::new() }).collect::<Vec<_>>();
        let sched = schedule(false);
        let mut serial_hooks = ScriptedHooks::fixed(2);
        let (serial_span, serial) = run_sharded(mk(), 1, |e| sched.run(e, &mut serial_hooks));
        let mut par_hooks = ScriptedHooks::fixed(2);
        let (par_span, parallel) = run_sharded(mk(), 3, |e| sched.run(e, &mut par_hooks));
        assert_eq!(serial_span, par_span);
        for (s, p) in serial.iter().zip(parallel.iter()) {
            assert_eq!(s.log, p.log, "shard order or segments diverged under threads");
        }
    }

    #[test]
    #[should_panic(expected = "shard 3 exploded")]
    fn parallel_executor_propagates_shard_panics() {
        struct Bomb {
            index: usize,
        }
        impl Shard for Bomb {
            fn run_segment(&mut self, seg: Segment) {
                if self.index == 3 && seg.from >= 160 {
                    panic!("shard {} exploded", self.index);
                }
            }
        }
        let shards = (0..4).map(|index| Bomb { index }).collect::<Vec<_>>();
        let mut hooks = ScriptedHooks::fixed(4);
        run_sharded(shards, 4, |e| schedule(false).run(e, &mut hooks));
    }

    #[test]
    #[should_panic(expected = "safety bound")]
    fn never_done_run_hits_the_safety_bound() {
        struct Forever;
        impl Hooks for Forever {
            fn exchange(&mut self, _now: u64) {}
            fn done(&mut self) -> bool {
                false
            }
        }
        let sched =
            QuantumSchedule { hop: 80, warmup: 0, chunk: 128, safety_slack: 512, adaptive: false };
        let shards = vec![LogShard { log: Vec::new() }];
        run_sharded(shards, 1, |e| sched.run(e, &mut Forever));
    }
}
