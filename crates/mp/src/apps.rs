use interleave_core::InstrSource;
use interleave_isa::{Access, Instr, SyncKind};
use interleave_workloads::{spec, AppProfile, SyntheticApp};

/// How a parallel application's threads touch shared data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SharingPattern {
    /// Shared blocks are used in read-modify-write bursts by one thread
    /// at a time (MP3D particles, PTHOR elements): produces dirty
    /// remote-cache transfers.
    Migratory,
    /// Shared data is read by everyone and written rarely (Barnes-Hut
    /// tree, Water molecule positions): replicates in caches, occasional
    /// invalidation bursts.
    ReadMostly,
    /// Each thread writes its own partition and reads its neighbour's
    /// (Ocean grid boundaries): producer–consumer pairs.
    Neighbor,
}

/// A SPLASH-like parallel application model (paper Table 9): a compute
/// profile plus shared-data and synchronization behaviour.
#[derive(Debug, Clone)]
pub struct SplashProfile {
    /// Application name.
    pub name: &'static str,
    /// Per-thread compute characteristics (op mix, private working set).
    pub compute: AppProfile,
    /// Fraction of memory references that go to shared data.
    pub share_frac: f64,
    /// Shared-data access pattern.
    pub pattern: SharingPattern,
    /// Size of the shared region in bytes.
    pub shared_bytes: u64,
    /// Instructions between critical sections (`None` = no locking).
    pub lock_period: Option<u64>,
    /// Critical-section length in instructions.
    pub cs_len: u64,
    /// Number of distinct locks (1 = a serializing global lock, as in
    /// Cholesky's task queue).
    pub n_locks: u32,
    /// Instructions between barrier arrivals (`None` = no barriers).
    pub barrier_period: Option<u64>,
}

impl SplashProfile {
    /// Checks parameter sanity.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range fractions or degenerate sizes.
    pub fn validate(&self) {
        self.compute.validate();
        assert!((0.0..=1.0).contains(&self.share_frac), "{}: share_frac", self.name);
        assert!(self.shared_bytes >= 4096, "{}: shared region too small", self.name);
        if self.lock_period.is_some() {
            assert!(self.n_locks >= 1, "{}: need at least one lock", self.name);
            assert!(self.cs_len >= 1, "{}: critical sections must be non-empty", self.name);
        }
        if let Some(p) = self.barrier_period {
            assert!(p > self.cs_len + 4, "{}: barrier period inside critical section", self.name);
        }
    }
}

const KB: u64 = 1024;

/// MP3D: rarefied hypersonic flow — high communication (migratory
/// particles/cells), barrier per time step, the most memory-bound
/// application of the suite.
pub fn mp3d() -> SplashProfile {
    SplashProfile {
        name: "MP3D",
        compute: spec::mp3d_uni(),
        share_frac: 0.45,
        pattern: SharingPattern::Migratory,
        shared_bytes: 512 * KB,
        lock_period: None,
        cs_len: 0,
        n_locks: 0,
        barrier_period: Some(2_500),
    }
}

/// Water: molecular dynamics — small working set, FP-divide heavy, locks
/// around molecule updates.
pub fn water() -> SplashProfile {
    SplashProfile {
        name: "Water",
        compute: spec::water_uni(),
        share_frac: 0.12,
        pattern: SharingPattern::ReadMostly,
        shared_bytes: 128 * KB,
        lock_period: Some(350),
        cs_len: 15,
        n_locks: 64,
        barrier_period: Some(6_000),
    }
}

/// Barnes-Hut: N-body — read-mostly tree, FP divides, per-step barriers.
pub fn barnes() -> SplashProfile {
    SplashProfile {
        name: "Barnes",
        compute: spec::barnes_uni(),
        share_frac: 0.30,
        pattern: SharingPattern::ReadMostly,
        shared_bytes: 384 * KB,
        lock_period: Some(900),
        cs_len: 10,
        n_locks: 128,
        barrier_period: Some(5_000),
    }
}

/// Ocean: eddy-current grid solver — neighbour exchange at partition
/// boundaries, frequent barriers.
pub fn ocean() -> SplashProfile {
    SplashProfile {
        name: "Ocean",
        compute: spec::tomcatv(),
        share_frac: 0.25,
        pattern: SharingPattern::Neighbor,
        shared_bytes: 512 * KB,
        lock_period: None,
        cs_len: 0,
        n_locks: 0,
        barrier_period: Some(1_200),
    }
}

/// LocusRoute: VLSI routing — migratory cost-grid cells under frequent
/// short critical sections.
pub fn locus() -> SplashProfile {
    SplashProfile {
        name: "Locus",
        compute: spec::locus_uni(),
        share_frac: 0.25,
        pattern: SharingPattern::Migratory,
        shared_bytes: 256 * KB,
        lock_period: Some(220),
        cs_len: 25,
        n_locks: 16,
        barrier_period: None,
    }
}

/// PTHOR: logic simulation — migratory task elements, very frequent
/// locking, high communication.
pub fn pthor() -> SplashProfile {
    SplashProfile {
        name: "PTHOR",
        compute: spec::eqntott(),
        share_frac: 0.35,
        pattern: SharingPattern::Migratory,
        shared_bytes: 384 * KB,
        lock_period: Some(140),
        cs_len: 12,
        n_locks: 8,
        barrier_period: Some(4_000),
    }
}

/// Cholesky: sparse factorization — a single task-queue lock with long
/// critical sections serializes the application (the paper's no-gain
/// case).
pub fn cholesky() -> SplashProfile {
    SplashProfile {
        name: "Cholesky",
        compute: spec::cholsky(),
        share_frac: 0.20,
        pattern: SharingPattern::Migratory,
        shared_bytes: 256 * KB,
        lock_period: Some(450),
        cs_len: 28,
        n_locks: 1,
        barrier_period: None,
    }
}

/// The seven SPLASH applications in the paper's presentation order
/// (Table 10).
pub fn splash_suite() -> Vec<SplashProfile> {
    vec![mp3d(), barnes(), water(), ocean(), locus(), pthor(), cholesky()]
}

/// The sharing and lock draws of one [`SplashThread`]: xoshiro256++
/// seeded through SplitMix64. A draw depends on every draw before it, so
/// the thread produces its stream strictly in order (which both pull
/// granularities of [`InstrSource`] do).
struct Xoshiro {
    s: [u64; 4],
}

impl Xoshiro {
    fn new(seed: u64) -> Xoshiro {
        let mut x = seed;
        let mut split_mix = move || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Xoshiro { s: [split_mix(), split_mix(), split_mix(), split_mix()] }
    }

    fn next(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// A draw in `0..n` (`n > 0`).
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// `true` with probability `p`, from 53 uniform bits in `[0, 1)`.
    fn chance(&mut self, p: f64) -> bool {
        ((self.next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)) < p
    }
}

/// One thread of a SPLASH-like application: wraps the compute stream of
/// [`SyntheticApp`], redirecting a fraction of its memory references to
/// shared data (per the sharing pattern) and inserting lock/barrier
/// synchronization.
pub struct SplashThread {
    profile: SplashProfile,
    thread: usize,
    n_threads: usize,
    inner: SyntheticApp,
    rng: Xoshiro,
    /// The release queued behind a critical section's last instruction.
    pending: Option<Instr>,
    since_lock: u64,
    since_barrier: u64,
    /// Remaining critical-section instructions and the held lock.
    in_cs: Option<(u64, u32)>,
    barrier_instance: u32,
    /// Current migratory block index and remaining references to it.
    block: u64,
    block_refs_left: u32,
}

const SHARED_BASE: u64 = 0x7000_0000;
/// Size of a migratory block (a particle/task record spanning a few
/// lines).
const BLOCK_BYTES: u64 = 256;

impl SplashThread {
    /// Creates thread `thread` of `n_threads` for `profile`.
    ///
    /// # Panics
    ///
    /// Panics if the profile is invalid or `thread >= n_threads`.
    pub fn new(profile: SplashProfile, thread: usize, n_threads: usize, seed: u64) -> SplashThread {
        profile.validate();
        assert!(thread < n_threads, "thread index out of range");
        let inner = SyntheticApp::new(profile.compute, thread, seed);
        SplashThread {
            rng: Xoshiro::new(seed ^ (thread as u64).wrapping_mul(0x9E37_79B9)),
            inner,
            thread,
            n_threads,
            pending: None,
            since_lock: 0,
            since_barrier: 0,
            in_cs: None,
            barrier_instance: 0,
            block: thread as u64,
            block_refs_left: 0,
            profile,
        }
    }

    fn shared_addr(&mut self, write: bool) -> u64 {
        let p = &self.profile;
        let span = p.shared_bytes;
        let offset = match p.pattern {
            SharingPattern::Migratory => {
                if self.block_refs_left == 0 {
                    // Move to another block from the common pool.
                    self.block = self.rng.below(span / BLOCK_BYTES);
                    self.block_refs_left = 4 + self.rng.below(12) as u32;
                }
                self.block_refs_left -= 1;
                self.block * BLOCK_BYTES + self.rng.below(BLOCK_BYTES)
            }
            SharingPattern::ReadMostly => self.rng.below(span),
            SharingPattern::Neighbor => {
                let part = span / self.n_threads as u64;
                let owner = if write {
                    self.thread as u64
                } else {
                    // Read the neighbour's boundary region.
                    ((self.thread + 1) % self.n_threads) as u64
                };
                owner * part + self.rng.below(part.max(BLOCK_BYTES))
            }
        };
        (SHARED_BASE + (offset % span)) & !3
    }

    /// Whether this memory reference should target shared data.
    fn redirect_to_shared(&mut self, write: bool) -> bool {
        let p = &self.profile;
        let frac = match (p.pattern, write) {
            // Read-mostly data takes few writes.
            (SharingPattern::ReadMostly, true) => p.share_frac * 0.1,
            _ => p.share_frac,
        };
        self.rng.chance(frac.clamp(0.0, 1.0))
    }

    /// The synchronization instruction due before the next compute
    /// instruction, if any, with its bookkeeping applied (never inside a
    /// critical section, or lock holders could block barrier partners
    /// forever).
    fn sync_point(&mut self) -> Option<Instr> {
        if let Some(release) = self.pending.take() {
            return Some(release);
        }
        if self.in_cs.is_some() {
            return None;
        }
        if let Some(period) = self.profile.barrier_period {
            if self.since_barrier >= period {
                self.since_barrier = 0;
                let instance = self.barrier_instance;
                self.barrier_instance = self.barrier_instance.wrapping_add(1);
                return Some(Instr::sync(0x1000, SyncKind::BarrierArrive, instance));
            }
        }
        if let Some(period) = self.profile.lock_period {
            if self.since_lock >= period {
                self.since_lock = 0;
                let id = self.rng.below(u64::from(self.profile.n_locks)) as u32;
                self.in_cs = Some((self.profile.cs_len, id));
                return Some(Instr::sync(0x1004, SyncKind::LockAcquire, id));
            }
        }
        None
    }

    /// How many compute instructions may follow before the next sync
    /// point: the end of the critical section, or the barrier or lock
    /// falling due. Called right after [`SplashThread::sync_point`]
    /// returned `None`, so each distance is at least one.
    fn compute_span(&self) -> u64 {
        if let Some((left, _)) = self.in_cs {
            return left;
        }
        let due = |period: Option<u64>, since: u64| period.map_or(u64::MAX, |p| p - since);
        due(self.profile.barrier_period, self.since_barrier)
            .min(due(self.profile.lock_period, self.since_lock))
    }

    /// Appends `n` compute instructions of the inner stream straight into
    /// `out`, then redirects a fraction of their data references to the
    /// shared region in stream order (so the draws happen in the same
    /// order at every batching) and advances the sync bookkeeping.
    fn compute_run(&mut self, out: &mut Vec<Instr>, n: u64) {
        let from = out.len();
        let got = self.inner.next_run(out, n as usize);
        assert_eq!(got as u64, n, "the compute stream is unbounded");
        for instr in &mut out[from..] {
            if let Some(mem) = instr.mem.as_mut() {
                let write = mem.kind == Access::Write;
                if self.redirect_to_shared(write) {
                    mem.addr = self.shared_addr(write);
                }
            }
        }
        self.since_lock += n;
        self.since_barrier += n;
        // Critical-section bookkeeping: queue the release when it ends.
        if let Some((left, id)) = self.in_cs {
            if left == n {
                self.in_cs = None;
                self.pending = Some(Instr::sync(0x1008, SyncKind::LockRelease, id));
            } else {
                self.in_cs = Some((left - n, id));
            }
        }
    }
}

impl InstrSource for SplashThread {
    /// Appends sync instructions and runs of compute instructions, each
    /// run generated in place at the end of `out`; entries that were in
    /// `out` before the call are not touched.
    fn next_run(&mut self, out: &mut Vec<Instr>, max: usize) -> usize {
        let mut room = max as u64;
        out.reserve(max);
        while room > 0 {
            if let Some(sync) = self.sync_point() {
                out.push(sync);
                room -= 1;
                continue;
            }
            let n = room.min(self.compute_span());
            self.compute_run(out, n);
            room -= n;
        }
        max
    }
}

impl std::fmt::Debug for SplashThread {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SplashThread")
            .field("app", &self.profile.name)
            .field("thread", &self.thread)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Pulls `count` instructions of thread `thread` of `n` in runs whose
    /// lengths cycle through `plan` (all nonzero), appending after a
    /// sentinel entry that must come back untouched: a run may rewrite
    /// only what it appended itself.
    fn take_in_runs(
        profile: SplashProfile,
        thread: usize,
        n: usize,
        count: usize,
        plan: &[usize],
    ) -> Vec<Instr> {
        let sentinel = Instr::nop(0xdead);
        let mut t = SplashThread::new(profile, thread, n, 11);
        let mut out = vec![sentinel];
        for &want in plan.iter().cycle() {
            let room = count + 1 - out.len();
            if room == 0 {
                break;
            }
            assert_eq!(t.next_run(&mut out, want.min(room)), want.min(room));
        }
        assert_eq!(out[0], sentinel, "an entry older than the run was touched");
        out.split_off(1)
    }

    fn take(profile: SplashProfile, thread: usize, n: usize, count: usize) -> Vec<Instr> {
        take_in_runs(profile, thread, n, count, &[count])
    }

    #[test]
    fn suite_validates() {
        for p in splash_suite() {
            p.validate();
        }
        assert_eq!(splash_suite().len(), 7);
    }

    #[test]
    fn locks_are_balanced() {
        let instrs = take(pthor(), 0, 4, 20_000);
        let acquires = instrs
            .iter()
            .filter(|i| matches!(i.sync, Some(s) if s.kind == SyncKind::LockAcquire))
            .count();
        let releases = instrs
            .iter()
            .filter(|i| matches!(i.sync, Some(s) if s.kind == SyncKind::LockRelease))
            .count();
        assert!(acquires > 50, "expected many critical sections, got {acquires}");
        assert!(
            (acquires as i64 - releases as i64).abs() <= 1,
            "unbalanced locks: {acquires} acquires vs {releases} releases"
        );
    }

    #[test]
    fn barrier_instances_are_sequential() {
        let instrs = take(mp3d(), 2, 8, 30_000);
        let instances: Vec<u32> = instrs
            .iter()
            .filter_map(|i| i.sync.filter(|s| s.kind == SyncKind::BarrierArrive).map(|s| s.id))
            .collect();
        assert!(instances.len() >= 3, "expected several barriers");
        for (k, inst) in instances.iter().enumerate() {
            assert_eq!(*inst as usize, k, "instances must number sequentially");
        }
    }

    #[test]
    fn shared_references_exist_and_stay_in_region() {
        let p = mp3d();
        let span = p.shared_bytes;
        let instrs = take(p, 1, 4, 20_000);
        let shared: Vec<u64> = instrs
            .iter()
            .filter_map(|i| i.mem.map(|m| m.addr))
            .filter(|a| (SHARED_BASE..SHARED_BASE + span).contains(a))
            .collect();
        let mems = instrs.iter().filter(|i| i.mem.is_some()).count();
        let frac = shared.len() as f64 / mems as f64;
        assert!((frac - 0.45).abs() < 0.08, "shared fraction {frac}");
    }

    #[test]
    fn neighbor_pattern_reads_other_partition() {
        let p = ocean();
        let n = 4;
        let part = p.shared_bytes / n as u64;
        let shared_bytes = p.shared_bytes;
        let instrs = take(p, 0, n, 30_000);
        let mut read_neighbor = 0;
        let mut wrote_own = 0;
        for i in &instrs {
            if let Some(m) = i.mem {
                if (SHARED_BASE..SHARED_BASE + shared_bytes).contains(&m.addr) {
                    let owner = (m.addr - SHARED_BASE) / part;
                    match m.kind {
                        Access::Read if owner == 1 => read_neighbor += 1,
                        Access::Write if owner == 0 => wrote_own += 1,
                        _ => {}
                    }
                }
            }
        }
        assert!(read_neighbor > 50, "thread 0 should read partition 1");
        assert!(wrote_own > 10, "thread 0 should write partition 0");
    }

    #[test]
    fn no_sync_inside_critical_sections() {
        let instrs = take(cholesky(), 0, 2, 30_000);
        let mut depth = 0i32;
        for i in &instrs {
            if let Some(s) = i.sync {
                match s.kind {
                    SyncKind::LockAcquire => {
                        assert_eq!(depth, 0, "nested acquire");
                        depth += 1;
                    }
                    SyncKind::LockRelease => {
                        assert_eq!(depth, 1, "release without acquire");
                        depth -= 1;
                    }
                    SyncKind::BarrierArrive => {
                        assert_eq!(depth, 0, "barrier inside critical section");
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// Any plan of run lengths yields the stream that all-`1` runs
        /// do, lock and barrier insertion included.
        #[test]
        fn stream_is_invariant_under_run_plan(plan in proptest::collection::vec(1usize..=64, 1..9)) {
            const LEN: usize = 6_500;
            for p in splash_suite() {
                for n in [2, 8, 32] {
                    let one_by_one = take_in_runs(p.clone(), n - 1, n, LEN, &[1]);
                    let planned = take_in_runs(p.clone(), n - 1, n, LEN, &plan);
                    prop_assert_eq!(&one_by_one, &planned, "{} with {} threads", p.name, n);
                }
            }
        }
    }

    #[test]
    fn compute_stream_is_pulled_in_batches() {
        // Pulled in the fetch unit's refill runs, the inner compute
        // stream must still be drawn in long runs, not per instruction.
        for p in splash_suite() {
            let mut t = SplashThread::new(p.clone(), 0, 8, 11);
            let mut out = Vec::with_capacity(32);
            for _ in 0..10_000 / 32 {
                out.clear();
                assert_eq!(t.next_run(&mut out, 32), 32);
            }
            let mean = t.inner.batch_lens().mean();
            assert!(mean >= 16.0, "{}: mean compute batch {mean}", p.name);
        }
    }

    #[test]
    fn xoshiro_known_answer() {
        let mut rng = Xoshiro::new(7);
        let first: Vec<u64> = (0..3).map(|_| rng.next()).collect();
        assert_eq!(first, [0x0e2c_1a00_2aae_913d, 0x2c0f_c8dd_fa4e_9e14, 0xb7b3_11b3_b0d4_5872]);
    }

    #[test]
    fn xoshiro_below_stays_in_range() {
        let mut rng = Xoshiro::new(42);
        for n in [1, 2, 12, 256, 1 << 40] {
            for _ in 0..1000 {
                assert!(rng.below(n) < n);
            }
        }
    }

    #[test]
    fn xoshiro_chance_extremes_and_rate() {
        let mut rng = Xoshiro::new(1);
        assert!((0..1000).all(|_| !rng.chance(0.0)));
        assert!((0..1000).all(|_| rng.chance(1.0)));
        let hits = (0..10_000).filter(|_| rng.chance(0.25)).count();
        assert!((2_000..3_000).contains(&hits), "p=0.25 gave {hits}/10000");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = take(water(), 3, 8, 1000);
        let b = take(water(), 3, 8, 1000);
        assert_eq!(a, b);
    }
}
