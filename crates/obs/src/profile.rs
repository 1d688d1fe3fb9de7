//! Hierarchical host-phase self-profiler.
//!
//! The paper's methodology rests on exact attribution of *simulated*
//! cycles (the `Breakdown`); this module is the same idea applied to
//! *host* time. Hot phases of the simulator (cell execution, the uni
//! slice loop, idle skipping, quantum barriers, shard advances, ...)
//! bracket themselves with [`enter`] scopes; ultra-hot per-event sites
//! (ticks, event pops, generated instructions) use the clock-free
//! [`mark`] so enabling the profiler never distorts what it measures.
//!
//! # Accumulation model
//!
//! Each thread accumulates into a thread-local table keyed by the
//! `&'static str` phase name (pointer-compared on the hot path, so a
//! lookup is a short binary search over addresses, not a string
//! compare). A scope stack tracks child time, so every exit charges
//! `total` and `self = total - children` exactly once. When a thread's
//! outermost scope closes (unless the thread holds a [`batch`], which
//! folds once when it drops; and again when the thread dies, for marks
//! outside any scope) its table is folded into a process-wide
//! [`PhaseProfile`] by a name-sorted, field-wise commutative and
//! associative fold (property-tested in `tests/profile_properties.rs`),
//! so the harvested profile is independent of thread scheduling.
//! [`take`] flushes the calling thread and swaps the global profile out.
//!
//! # Cost when disabled
//!
//! The instrumentation is always compiled and starts off. Only
//! [`set_enabled`] turns it on: `interleave-sim sweep --profile` and
//! library callers such as the repo benchmark do. No environment
//! variable reaches it. Disabled cost per site is one relaxed load of
//! an `AtomicBool` and a branch, with no clock read and no TLS access.
//!
//! # Testing the attribution
//!
//! Nested scopes' self/total split is pinned by this module's unit
//! tests; `scripts/check.sh` checks the phase-attributed throughput
//! gate by feeding it a `PROFILE_*.json` whose `runner.cell` self time
//! it inflated by hand.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::json::{self, Value};

/// Accumulated statistics of one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseStats {
    /// Scope entries plus [`mark`] hits.
    pub calls: u64,
    /// Nanoseconds spent inside the phase, children included.
    pub total_ns: u64,
    /// Nanoseconds spent inside the phase, children excluded.
    pub self_ns: u64,
}

impl PhaseStats {
    /// Folds `other` into this entry (plain field-wise addition, so the
    /// fold is trivially commutative and associative).
    pub fn merge(&mut self, other: PhaseStats) {
        self.calls += other.calls;
        self.total_ns += other.total_ns;
        self.self_ns += other.self_ns;
    }
}

/// A name-sorted snapshot of per-phase host-time statistics.
///
/// Entries are kept sorted by name and re-recording a name folds
/// field-wise, so folding per-thread profiles is independent of
/// harvest order (the property `tests/profile_properties.rs` pins).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseProfile {
    entries: Vec<(String, PhaseStats)>,
}

impl PhaseProfile {
    /// An empty profile (the fold identity).
    pub const fn new() -> PhaseProfile {
        PhaseProfile { entries: Vec::new() }
    }

    /// Folds `stats` into the entry named `name`.
    pub fn record(&mut self, name: &str, stats: PhaseStats) {
        match self.entries.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
            Ok(i) => self.entries[i].1.merge(stats),
            Err(i) => self.entries.insert(i, (name.to_string(), stats)),
        }
    }

    /// Folds every entry of `other` into this profile.
    pub fn merge(&mut self, other: &PhaseProfile) {
        for (name, stats) in &other.entries {
            self.record(name, *stats);
        }
    }

    /// Statistics of the phase named `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<PhaseStats> {
        self.entries.binary_search_by(|(n, _)| n.as_str().cmp(name)).ok().map(|i| self.entries[i].1)
    }

    /// Entries in ascending name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &PhaseStats)> {
        self.entries.iter().map(|(n, s)| (n.as_str(), s))
    }

    /// Number of recorded phases.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Sum of every phase's self time — with a root scope around the
    /// unit of work (the runner wraps each cell in `runner.cell`), this
    /// approaches the measured wall time from below.
    pub fn total_self_ns(&self) -> u64 {
        self.entries.iter().map(|(_, s)| s.self_ns).sum()
    }

    /// Serialize as a JSON array, one phase object per line (so shell
    /// gates can `grep` individual phases), sorted by name. `indent` is
    /// the number of leading spaces applied to each line, so the array
    /// can be embedded in a larger hand-rolled document.
    pub fn to_json(&self, indent: usize) -> String {
        let pad = " ".repeat(indent);
        let mut out = String::new();
        out.push_str("[\n");
        for (i, (name, s)) in self.entries.iter().enumerate() {
            let comma = if i + 1 == self.entries.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "{pad}  {{\"name\": {}, \"calls\": {}, \"total_ns\": {}, \"self_ns\": {}}}{comma}",
                json::escape(name),
                s.calls,
                s.total_ns,
                s.self_ns
            );
        }
        let _ = write!(out, "{pad}]");
        out
    }

    /// Rebuilds a profile from the [`PhaseProfile::to_json`] array (or
    /// any parsed `Value` of the same shape, e.g. the `"phases"` field
    /// of a `PROFILE_*.json` document).
    ///
    /// # Errors
    ///
    /// Returns a message naming the first malformed entry.
    pub fn from_value(value: &Value) -> Result<PhaseProfile, String> {
        let arr = value.as_arr().ok_or("phase profile must be a JSON array")?;
        let mut profile = PhaseProfile::new();
        for (i, entry) in arr.iter().enumerate() {
            let name = entry
                .get("name")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("phase {i}: missing \"name\""))?;
            let field = |key: &str| {
                entry
                    .get(key)
                    .and_then(Value::as_u64)
                    .ok_or_else(|| format!("phase {i} ({name}): missing integral {key:?}"))
            };
            profile.record(
                name,
                PhaseStats {
                    calls: field("calls")?,
                    total_ns: field("total_ns")?,
                    self_ns: field("self_ns")?,
                },
            );
        }
        Ok(profile)
    }

    /// Parses the output of [`PhaseProfile::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a message for unparseable JSON or a malformed entry.
    pub fn from_json(doc: &str) -> Result<PhaseProfile, String> {
        PhaseProfile::from_value(&json::parse(doc)?)
    }
}

// --- enable switch -------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether profiling is currently on. Disabled cost at every
/// instrumentation site is this one relaxed load plus a branch.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns profiling on or off (off at process start). `interleave-sim
/// sweep --profile` turns it on for the sweep it profiles.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

// --- thread-local accumulation -------------------------------------------

struct Frame {
    slot: u32,
    start: Instant,
    child_ns: u64,
}

/// Harvested but not yet taken phases (all threads fold in here).
static HARVEST: Mutex<PhaseProfile> = Mutex::new(PhaseProfile::new());

#[derive(Default)]
struct ThreadProfiler {
    /// `(name ptr, name len) -> slot`, sorted by key: same-site lookups
    /// are a short binary search over addresses, never a string compare.
    /// Distinct sites sharing one name get distinct slots here and fold
    /// together by name at harvest time.
    lookup: Vec<(usize, usize, u32)>,
    slots: Vec<(&'static str, PhaseStats)>,
    stack: Vec<Frame>,
    /// Open [`batch`] guards; while nonzero, closing the outermost
    /// scope does not fold.
    batches: u32,
}

impl ThreadProfiler {
    fn slot(&mut self, name: &'static str) -> u32 {
        let key = (name.as_ptr() as usize, name.len());
        match self.lookup.binary_search_by(|&(p, l, _)| (p, l).cmp(&key)) {
            Ok(i) => self.lookup[i].2,
            Err(i) => {
                let slot = u32::try_from(self.slots.len()).expect("fewer than 2^32 phases");
                self.slots.push((name, PhaseStats::default()));
                self.lookup.insert(i, (key.0, key.1, slot));
                slot
            }
        }
    }

    fn exit(&mut self, end: Instant) {
        let Some(frame) = self.stack.pop() else {
            return;
        };
        let dur = end.saturating_duration_since(frame.start);
        let ns = u64::try_from(dur.as_nanos()).unwrap_or(u64::MAX);
        let stats = &mut self.slots[frame.slot as usize].1;
        stats.calls += 1;
        stats.total_ns += ns;
        stats.self_ns += ns.saturating_sub(frame.child_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += ns;
        }
        // Fold as soon as the outermost scope closes: a worker inside
        // `std::thread::scope` may run its thread-local destructor only
        // after the scope has returned and the harvest has been taken.
        if self.stack.is_empty() && self.batches == 0 {
            self.flush_into(&mut lock_global());
        }
    }

    fn flush_into(&mut self, harvest: &mut PhaseProfile) {
        for (name, stats) in &mut self.slots {
            if *stats != PhaseStats::default() {
                harvest.record(name, *stats);
                *stats = PhaseStats::default();
            }
        }
    }
}

impl Drop for ThreadProfiler {
    fn drop(&mut self) {
        let mut harvest = lock_global();
        self.flush_into(&mut harvest);
    }
}

fn lock_global() -> std::sync::MutexGuard<'static, PhaseProfile> {
    HARVEST.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

thread_local! {
    static TLS: RefCell<ThreadProfiler> = RefCell::new(ThreadProfiler::default());
}

// --- instrumentation API -------------------------------------------------

/// RAII guard returned by [`enter`]; dropping it exits the scope.
#[must_use = "the phase is timed until the guard drops"]
#[derive(Debug)]
pub struct ScopeGuard {
    active: bool,
}

/// Opens a timed hierarchical scope named `name`. Nested scopes charge
/// their time to the parent's `total` but not its `self`. No-op (one
/// atomic load) when profiling is off.
#[inline]
pub fn enter(name: &'static str) -> ScopeGuard {
    if !enabled() {
        return ScopeGuard { active: false };
    }
    TLS.with(|tls| {
        let mut t = tls.borrow_mut();
        let slot = t.slot(name);
        t.stack.push(Frame { slot, start: Instant::now(), child_ns: 0 });
    });
    ScopeGuard { active: true }
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let end = Instant::now();
        TLS.with(|tls| tls.borrow_mut().exit(end));
    }
}

/// Counts one hit of `name` without reading the clock — for per-event
/// sites too hot to time (ticks, event pops, generated instructions).
/// The hit appears in the profile with `calls` only; its time stays in
/// the enclosing scope's self time.
#[inline]
pub fn mark(name: &'static str) {
    if !enabled() {
        return;
    }
    TLS.with(|tls| {
        let mut t = tls.borrow_mut();
        let slot = t.slot(name);
        t.slots[slot as usize].1.calls += 1;
    });
}

/// Counts `n` hits of `name` in one shot — the batched form of
/// [`mark`], for sites that amortize bookkeeping over a run of events
/// (e.g. one generator refill producing a whole basic block). The hits
/// are indistinguishable in the profile from `n` separate marks.
#[inline]
pub fn mark_n(name: &'static str, n: u64) {
    if !enabled() || n == 0 {
        return;
    }
    TLS.with(|tls| {
        let mut t = tls.borrow_mut();
        let slot = t.slot(name);
        t.slots[slot as usize].1.calls += n;
    });
}

/// RAII guard returned by [`batch`]; dropping it folds the thread's
/// accumulation into the global profile.
#[must_use = "folding is deferred until the guard drops"]
#[derive(Debug)]
pub struct BatchGuard {
    active: bool,
}

/// Defers the calling thread's folds until the returned guard drops.
/// A thread otherwise folds (taking the process-wide lock) each time
/// its outermost scope closes; a loop that closes one short outermost
/// scope per iteration — a sharded executor's worker advancing one
/// quantum — holds a batch so it folds once. Drop the guard before the
/// thread's `std::thread::scope` returns. No-op when profiling is off.
pub fn batch() -> BatchGuard {
    if !enabled() {
        return BatchGuard { active: false };
    }
    TLS.with(|tls| tls.borrow_mut().batches += 1);
    BatchGuard { active: true }
}

impl Drop for BatchGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        TLS.with(|tls| {
            let mut t = tls.borrow_mut();
            t.batches -= 1;
            if t.batches == 0 && t.stack.is_empty() {
                t.flush_into(&mut lock_global());
            }
        });
    }
}

/// Flushes the calling thread and returns the accumulated global
/// profile, resetting it. Flush and swap happen under one lock hold so
/// a concurrent `take` cannot observe (or steal) a half-flushed
/// harvest. Open scopes on any thread are not included until they exit.
pub fn take() -> PhaseProfile {
    TLS.with(|tls| {
        let mut t = tls.borrow_mut();
        let mut harvest = lock_global();
        t.flush_into(&mut harvest);
        std::mem::take(&mut *harvest)
    })
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;

    /// Serializes tests that toggle the global switch or inspect the
    /// global harvest.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn nested_scopes_split_self_and_total() {
        let _serial = serial();
        set_enabled(true);
        let _ = take();
        {
            let _outer = enter("test.outer");
            std::thread::sleep(Duration::from_millis(2));
            {
                let _inner = enter("test.inner");
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        let profile = take();
        set_enabled(false);
        let outer = profile.get("test.outer").expect("outer recorded");
        let inner = profile.get("test.inner").expect("inner recorded");
        assert_eq!(outer.calls, 1);
        assert_eq!(inner.calls, 1);
        assert!(inner.total_ns >= 2_000_000, "inner ran 2ms, got {}ns", inner.total_ns);
        assert!(outer.total_ns >= inner.total_ns + 2_000_000);
        assert_eq!(inner.total_ns, inner.self_ns, "leaf scope: self == total");
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
    }

    #[test]
    fn marks_count_without_timing() {
        let _serial = serial();
        set_enabled(true);
        let _ = take();
        for _ in 0..5 {
            mark("test.mark");
        }
        let profile = take();
        set_enabled(false);
        let m = profile.get("test.mark").expect("mark recorded");
        assert_eq!(m.calls, 5);
        assert_eq!(m.total_ns, 0);
        assert_eq!(m.self_ns, 0);
    }

    #[test]
    fn mark_n_counts_in_one_shot() {
        let _serial = serial();
        set_enabled(true);
        let _ = take();
        mark_n("test.mark_n", 7);
        mark_n("test.mark_n", 0); // zero-length batches record nothing
        mark("test.mark_n");
        let profile = take();
        set_enabled(false);
        let m = profile.get("test.mark_n").expect("mark_n recorded");
        assert_eq!(m.calls, 8);
        assert_eq!(m.total_ns, 0);
    }

    #[test]
    fn disabled_records_nothing() {
        let _serial = serial();
        set_enabled(false);
        let _ = take();
        {
            let _scope = enter("test.disabled");
            mark("test.disabled.mark");
        }
        let profile = take();
        assert_eq!(profile.get("test.disabled"), None);
        assert_eq!(profile.get("test.disabled.mark"), None);
    }

    #[test]
    fn worker_threads_fold_into_the_harvest() {
        let _serial = serial();
        set_enabled(true);
        let _ = take();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let _scope = enter("test.worker");
                    mark("test.worker.mark");
                });
            }
        });
        let profile = take();
        set_enabled(false);
        assert_eq!(profile.get("test.worker").expect("folded").calls, 4);
        assert_eq!(profile.get("test.worker.mark").expect("folded").calls, 4);
    }

    #[test]
    fn a_batch_folds_once_when_it_drops() {
        let _serial = serial();
        set_enabled(true);
        let _ = take();
        std::thread::scope(|s| {
            s.spawn(|| {
                let batch = batch();
                for _ in 0..3 {
                    let _scope = enter("test.batched");
                }
                assert!(lock_global().get("test.batched").is_none(), "folded early");
                drop(batch);
                assert_eq!(lock_global().get("test.batched").map(|p| p.calls), Some(3));
            });
        });
        let profile = take();
        set_enabled(false);
        assert_eq!(profile.get("test.batched").expect("folded").calls, 3);
    }

    #[test]
    fn profile_json_round_trips() {
        let mut p = PhaseProfile::new();
        p.record("b.phase", PhaseStats { calls: 2, total_ns: 100, self_ns: 60 });
        p.record("a.phase", PhaseStats { calls: 1, total_ns: 40, self_ns: 40 });
        p.record("b.phase", PhaseStats { calls: 1, total_ns: 10, self_ns: 10 });
        let json = p.to_json(0);
        assert_eq!(json, p.to_json(0), "serialization is deterministic");
        let back = PhaseProfile::from_json(&json).expect("round trip");
        assert_eq!(back, p);
        assert_eq!(back.get("b.phase"), Some(PhaseStats { calls: 3, total_ns: 110, self_ns: 70 }));
        assert_eq!(back.total_self_ns(), 110);
    }

    #[test]
    fn from_json_rejects_malformed_entries() {
        assert!(PhaseProfile::from_json("{}").is_err());
        assert!(PhaseProfile::from_json(r#"[{"calls": 1}]"#).is_err());
        let err =
            PhaseProfile::from_json(r#"[{"name": "x", "calls": 1, "total_ns": 2}]"#).unwrap_err();
        assert!(err.contains("self_ns"), "unexpected error: {err}");
    }

    #[test]
    fn merge_matches_manual_fold() {
        let mut a = PhaseProfile::new();
        a.record("x", PhaseStats { calls: 1, total_ns: 5, self_ns: 5 });
        let mut b = PhaseProfile::new();
        b.record("x", PhaseStats { calls: 2, total_ns: 7, self_ns: 3 });
        b.record("y", PhaseStats { calls: 1, total_ns: 1, self_ns: 1 });
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.get("x"), Some(PhaseStats { calls: 3, total_ns: 12, self_ns: 8 }));
        assert_eq!(ab.len(), 2);
    }
}
