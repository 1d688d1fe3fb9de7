use std::collections::VecDeque;

use interleave_core::InstrSource;
use interleave_engine::rand64::{bounded, hashed};
use interleave_isa::{Instr, Op, Reg};
use interleave_obs::{profile, Histogram};

use crate::AppProfile;

/// Deterministic synthetic instruction stream for one application.
///
/// The generator walks a program counter through the profile's code
/// footprint (branch targets actually redirect the walk, so I-cache and
/// BTB behaviour emerge from the control flow), emits the profile's
/// operation mix with configurable dependency distances, and touches a
/// data footprint with hot/cold, streaming, and strided components.
///
/// Sampling is stateless: every random decision is a pure function of
/// `(app key, draw site, instruction index)` via
/// [`interleave_engine::rand64`], so instruction `i` of a stream is
/// identical no matter how the stream is pulled — one instruction at a
/// time, in batches of any size, or interleaved with other streams.
/// There is no generator object to advance and no draw-order coupling
/// between instructions.
///
/// When the profile carries `latency_hints`, divides are followed by a
/// backoff instruction covering the divide latency before the dependent
/// consumer — the compiler support for latency tolerance the paper
/// assumes (interpreted as a backoff by the interleaved scheme, an
/// explicit switch by the blocked scheme, and a no-op by the
/// single-context processor).
///
/// # Examples
///
/// ```
/// use interleave_core::InstrSource;
/// use interleave_workloads::{AppProfile, SyntheticApp};
///
/// let mut app = SyntheticApp::new(AppProfile::base("demo"), 0, 42);
/// let (mut first, mut again) = (Vec::new(), Vec::new());
/// assert_eq!(app.next_run(&mut first, 16), 16);
/// SyntheticApp::new(AppProfile::base("demo"), 0, 42).next_run(&mut again, 16);
/// assert_eq!(first, again, "streams are deterministic per seed");
/// ```
pub struct SyntheticApp {
    profile: AppProfile,
    /// The profile's probabilities and sizes in the form the walk uses.
    consts: Consts,
    /// Keyed-sampling seed: every draw is `hashed(key, site, emitted)`.
    key: u64,
    code_base: u64,
    data_base: u64,
    pc: u64,
    /// Start of the current hot code region (phase): the walk stays inside
    /// it until a phase change.
    region_base: u64,
    /// Active set of hot regions: phase changes mostly revisit these and
    /// only occasionally bring in a new region (slow working-set drift).
    active_regions: [u64; 3],
    /// Base of the window cold data references currently fall in (drifts
    /// slowly through the data footprint).
    data_window: u64,
    block_left: u32,
    last_int: Reg,
    last_fp: Reg,
    int_rr: u8,
    fp_rr: u8,
    stream_pos: u64,
    pending: VecDeque<Instr>,
    /// Recent load destinations and when they were emitted: the
    /// scheduler-modeled streams avoid using a load's result in its two
    /// delay slots (the paper's code is scheduled by Twine).
    recent_loads: [Option<(Reg, u64)>; 2],
    /// A load result that must be consumed shortly: (register, countdown).
    /// Real code uses nearly every loaded value within a few instructions;
    /// without this the stream would behave like an unbounded
    /// out-of-order memory system under the stall-on-use baseline.
    due_consumer: Option<(Reg, u8)>,
    emitted: u64,
    limit: Option<u64>,
    /// Distribution of run lengths handed out per [`InstrSource::next_run`]
    /// call.
    batch_lens: Histogram,
}

/// Per-profile constants, computed once so the per-instruction walk does
/// no float math: every probability is a [`threshold`] on a draw's top
/// 53 bits.
#[derive(Debug, Clone, Copy)]
struct Consts {
    /// Thresholds of the op-class cascade's running sums, in the order
    /// load, store, branch, FP, shift, integer multiply, integer divide;
    /// each sum is the same left-to-right `f64` sum the cascade compared
    /// the unit draw against.
    class: [u64; 7],
    /// `frac_fp`, as the FP-destination coin of a load.
    load_fp: u64,
    dep_near: u64,
    streaming: u64,
    locality: u64,
    fp_div: u64,
    fp_double: u64,
    /// A branch site whose hash is below this modulo 1,000 is a loop
    /// branch: the count of `k` in `0..1000` with
    /// `k as f64 / 1000.0 < loop_branch_frac` (a prefix, since the
    /// quotient grows with `k`).
    loop_sites: u64,
    /// Bytes of the hot data subset.
    hot: u64,
    /// Bytes of the drifting cold-data window.
    window: u64,
}

impl Consts {
    fn new(p: &AppProfile) -> Consts {
        let mut class = [0; 7];
        let mut acc = 0.0;
        for (t, frac) in class.iter_mut().zip([
            p.frac_load,
            p.frac_store,
            p.frac_branch,
            p.frac_fp,
            p.frac_shift,
            p.frac_int_mul,
            p.frac_int_div,
        ]) {
            acc += frac;
            *t = threshold(acc);
        }
        Consts {
            class,
            load_fp: threshold(p.frac_fp),
            dep_near: threshold(p.dep_near),
            streaming: threshold(p.streaming),
            locality: threshold(p.locality),
            fp_div: threshold(p.fp_div_frac),
            fp_double: threshold(p.fp_double_frac),
            loop_sites: (0..1000u64).take_while(|&k| k as f64 / 1000.0 < p.loop_branch_frac).count()
                as u64,
            // The hot subset is what the application keeps in its
            // primary cache; clamp it to cache scale so `locality` really
            // means "re-references recently used data".
            hot: ((p.data_footprint as f64 * p.hot_fraction) as u64).clamp(64, 12 * 1024),
            window: (32 * 1024).min(p.data_footprint),
        }
    }
}

/// The integer form of a coin with probability `p`: for every draw `d`,
/// `interleave_engine::rand64::coin(d, p)` equals `heads(d, threshold(p))`.
///
/// The coin compares `(d >> 11) as f64 * 2^-53` against `p`. Both the
/// conversion (53 bits) and the scaling (a power of two) are exact, so
/// it holds exactly when the integer `d >> 11` is below `p * 2^53`,
/// that is, below its ceiling. NaN and negative `p` give 0 (never
/// heads), as the float compare does.
const fn threshold(p: f64) -> u64 {
    let x = p * (1u64 << 53) as f64;
    let t = x as u64;
    if (t as f64) < x {
        t.saturating_add(1)
    } else {
        t
    }
}

/// Whether `draw` lands heads on a coin of [`threshold`] `t`.
#[inline]
fn heads(draw: u64, t: u64) -> bool {
    draw >> 11 < t
}

/// Fixed coins of the walk.
const CONSUME: u64 = threshold(0.85);
const ADDR_STEP: u64 = threshold(0.002);
const BR_PHASE: u64 = threshold(0.015);
const BR_DRIFT: u64 = threshold(0.05);
const TAKEN_LOOP: u64 = threshold(0.92);
const TAKEN_DATA: u64 = threshold(0.5);

/// Size of a hot code region (one "phase" of execution). Every profile's
/// code footprint is at least twice this ([`AppProfile::validate`]).
const REGION_BYTES: u64 = 2 * 1024;

const INT_POOL_BASE: u8 = 8;
const FP_POOL_BASE: u8 = 8;
const POOL_LEN: u8 = 16;
/// Base register used for addressing; never written, so address
/// generation does not serialize on data results.
const ADDR_REG: u8 = 29;

/// Draw-site lanes for stateless sampling: each random decision the
/// generator makes per instruction owns a lane, so one `(site, index)`
/// pair is never drawn for two purposes. Sites needing both a coin and a
/// small pick share one draw — the coin reads bits 11..64, the pick the
/// low bits (independence property-tested in `engine::rand64`).
mod site {
    /// Operation-class selector (the mix accumulator walk).
    pub const OP_CLASS: u64 = 1;
    /// Whether a load destination is FP.
    pub const LOAD_DST: u64 = 2;
    /// Whether a load's result gets a scheduled near consumer.
    pub const CONSUME: u64 = 3;
    /// Streaming-vs-resident selector for a data reference.
    pub const ADDR_CLASS: u64 = 4;
    /// Hot-subset coin for non-streaming references.
    pub const ADDR_LOC: u64 = 5;
    /// Offset within the hot subset.
    pub const ADDR_HOT: u64 = 6;
    /// Cold-window drift coin.
    pub const ADDR_STEP: u64 = 7;
    /// Offset within the cold window.
    pub const ADDR_OFF: u64 = 8;
    /// First source operand: near-dependence coin + pool pick (one draw).
    pub const SRC_A: u64 = 9;
    /// Second source operand: near-dependence coin + pool pick (one draw).
    pub const SRC_B: u64 = 10;
    /// Phase-change coin for a branch.
    pub const BR_PHASE: u64 = 11;
    /// Working-set drift coin on a phase change.
    pub const BR_DRIFT: u64 = 12;
    /// Which region drifts into the active set.
    pub const BR_PICK: u64 = 13;
    /// Active-set slot the new region replaces.
    pub const BR_SLOT_NEW: u64 = 14;
    /// Active-set slot a phase change jumps to.
    pub const BR_SLOT: u64 = 15;
    /// Taken/not-taken outcome of a conditional branch.
    pub const BR_TAKEN: u64 = 16;
    /// FP-divide coin within the FP class.
    pub const FP_DIV: u64 = 17;
    /// Single-vs-double precision of an FP divide.
    pub const FP_DOUBLE: u64 = 18;
    /// Which non-divide FP operation.
    pub const FP_OP: u64 = 19;
    /// Jittered basic-block length.
    pub const BLOCK_LEN: u64 = 20;
}

fn mix_hash(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    x = x.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    x ^ (x >> 33)
}

impl SyntheticApp {
    /// Creates the stream for `profile`, placed in address slot
    /// `app_slot` (each resident application gets disjoint code and data
    /// regions that still conflict in the caches, as real multiprogrammed
    /// applications do), seeded by `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the profile fails [`AppProfile::validate`].
    pub fn new(profile: AppProfile, app_slot: usize, seed: u64) -> SyntheticApp {
        profile.validate();
        // Slot strides are deliberately not multiples of the cache size or
        // TLB span, so co-resident applications interfere realistically
        // instead of aliasing perfectly.
        let code_base = 0x4000_0000 + app_slot as u64 * 0x0211_3000;
        let data_base = 0x1_0000_0000 + app_slot as u64 * 0x1039_7000;
        let key = seed ^ mix_hash(app_slot as u64 + 1) ^ mix_hash(profile.name.len() as u64);
        SyntheticApp {
            consts: Consts::new(&profile),
            key,
            code_base,
            data_base,
            pc: code_base,
            region_base: code_base,
            active_regions: [code_base; 3],
            data_window: 0,
            block_left: profile.block_len,
            last_int: Reg::int(INT_POOL_BASE),
            last_fp: Reg::fp(FP_POOL_BASE),
            int_rr: 0,
            fp_rr: 0,
            stream_pos: 0,
            pending: VecDeque::new(),
            recent_loads: [None; 2],
            due_consumer: None,
            emitted: 0,
            limit: None,
            batch_lens: Histogram::new(),
            profile,
        }
    }

    /// Caps the stream at `limit` instructions (fixed-work runs).
    pub fn with_limit(mut self, limit: u64) -> SyntheticApp {
        self.limit = Some(limit);
        self
    }

    /// The profile this stream was built from.
    pub fn profile(&self) -> &AppProfile {
        &self.profile
    }

    /// Distribution of run lengths produced per `next_run` call. The
    /// mean is the generator's batching amortization factor.
    pub fn batch_lens(&self) -> &Histogram {
        &self.batch_lens
    }

    /// The keyed draw for `site` at the current instruction index.
    #[inline]
    fn draw(&self, site: u64) -> u64 {
        hashed(self.key, site, self.emitted)
    }

    fn next_int_dst(&mut self) -> Reg {
        self.int_rr = (self.int_rr + 1) % POOL_LEN;
        let reg = Reg::int(INT_POOL_BASE + self.int_rr);
        self.last_int = reg;
        reg
    }

    fn next_fp_dst(&mut self) -> Reg {
        self.fp_rr = (self.fp_rr + 1) % POOL_LEN;
        let reg = Reg::fp(FP_POOL_BASE + self.fp_rr);
        self.last_fp = reg;
        reg
    }

    /// One draw decides near-dependence (high bits) and the pool pick
    /// (low bits); `site` distinguishes the two operand positions.
    fn int_src(&mut self, site: u64) -> Reg {
        let d = self.draw(site);
        let reg = if heads(d, self.consts.dep_near) {
            self.last_int
        } else {
            Reg::int(INT_POOL_BASE + bounded(d, u64::from(POOL_LEN)) as u8)
        };
        self.scheduled(reg)
    }

    fn fp_src(&mut self, site: u64) -> Reg {
        let d = self.draw(site);
        let reg = if heads(d, self.consts.dep_near) {
            self.last_fp
        } else {
            Reg::fp(FP_POOL_BASE + bounded(d, u64::from(POOL_LEN)) as u8)
        };
        self.scheduled(reg)
    }

    /// Models the global instruction scheduler: a load's result is not
    /// consumed within its two delay slots (the compiler fills them with
    /// independent work).
    fn scheduled(&mut self, reg: Reg) -> Reg {
        let embargoed = |r: Reg, loads: &[Option<(Reg, u64)>; 2], emitted: u64| {
            loads.iter().flatten().any(|&(l, at)| l == r && emitted.saturating_sub(at) <= 2)
        };
        if !embargoed(reg, &self.recent_loads, self.emitted) {
            return reg;
        }
        for offset in 1..POOL_LEN {
            let n = (reg.number() - INT_POOL_BASE + offset) % POOL_LEN + INT_POOL_BASE;
            let candidate = if reg.is_fp() { Reg::fp(n) } else { Reg::int(n) };
            if !embargoed(candidate, &self.recent_loads, self.emitted) {
                return candidate;
            }
        }
        reg
    }

    fn step_pc(&mut self) -> u64 {
        let pc = self.pc;
        self.pc = self.wrap_region(self.pc + 4);
        pc
    }

    /// Keeps an address inside the current hot region.
    fn wrap_region(&self, addr: u64) -> u64 {
        let offset = addr.wrapping_sub(self.region_base) & (REGION_BYTES - 1);
        self.region_base + (offset & !3)
    }

    fn data_addr(&mut self) -> u64 {
        let p = self.profile;
        let c = self.consts;
        let offset = if heads(self.draw(site::ADDR_CLASS), c.streaming) {
            self.stream_pos = (self.stream_pos + p.stream_stride) % p.data_footprint;
            if p.software_prefetch {
                // Prefetch the next stream element so its line is (mostly)
                // resident by the time the stream reaches it.
                let ahead = (self.stream_pos + 4 * p.stream_stride) % p.data_footprint;
                let pf_pc = self.peek_pc(1);
                self.pending.push_back(Instr::prefetch(
                    pf_pc,
                    Reg::int(ADDR_REG),
                    self.data_base + (ahead & !3),
                ));
            }
            self.stream_pos
        } else if heads(self.draw(site::ADDR_LOC), c.locality) {
            bounded(self.draw(site::ADDR_HOT), c.hot)
        } else {
            // Cold references fall in a window that drifts slowly through
            // the footprint (working-set behaviour), not uniformly over
            // the whole data segment.
            if heads(self.draw(site::ADDR_STEP), ADDR_STEP) {
                let step = c.window / 4;
                self.data_window = (self.data_window + step) % p.data_footprint;
            }
            (self.data_window + bounded(self.draw(site::ADDR_OFF), c.window)) % p.data_footprint
        };
        self.data_base + (offset & !3)
    }

    /// Emits a branch closing the current basic block. Site behaviour
    /// (bias and target) is a pure function of the site PC, so the BTB
    /// can learn the biased sites.
    fn gen_branch(&mut self, pc: u64) -> Instr {
        let p = self.profile;
        // Phase change (a call into, or return from, another part of the
        // program): jump to a new hot region. These look like indirect
        // jumps to the BTB — their targets vary — and are the source of
        // I-cache pressure proportional to the code footprint.
        if heads(self.draw(site::BR_PHASE), BR_PHASE) {
            let regions = p.code_footprint / REGION_BYTES;
            if heads(self.draw(site::BR_DRIFT), BR_DRIFT) {
                // Working-set drift: bring a new region into the active set.
                let pick = bounded(self.draw(site::BR_PICK), regions);
                let slot = bounded(self.draw(site::BR_SLOT_NEW), self.active_regions.len() as u64);
                self.active_regions[slot as usize] = self.code_base + pick * REGION_BYTES;
            }
            let slot = bounded(self.draw(site::BR_SLOT), self.active_regions.len() as u64);
            self.region_base = self.active_regions[slot as usize];
            self.pc = self.region_base;
            let cond = self.scheduled(self.last_int);
            return Instr::branch(pc, Some(cond), true, self.region_base);
        }
        // Site behaviour within a region is a pure function of the site
        // PC so the BTB can learn the biased sites.
        let h = mix_hash(pc ^ 0x5EED);
        let block_bytes = u64::from(p.block_len) * 4;
        let is_loop = h % 1000 < self.consts.loop_sites;
        let (taken_prob, target) = if is_loop {
            // Loop-closing branch: strongly biased taken, tight backward
            // target (the hot-loop attractor).
            let back = block_bytes * (1 + (h >> 10) % 4);
            (TAKEN_LOOP, self.wrap_region(pc.wrapping_sub(back)))
        } else {
            // Data-dependent branch: unbiased, short forward target.
            let fwd = block_bytes * (1 + (h >> 10) % 2);
            (TAKEN_DATA, self.wrap_region(pc + fwd))
        };
        let taken = heads(self.draw(site::BR_TAKEN), taken_prob);
        if taken {
            self.pc = target;
        }
        let cond = self.scheduled(self.last_int);
        Instr::branch(pc, Some(cond), taken, target)
    }

    /// Emits a divide followed (optionally) by a latency hint and the
    /// dependent consumer, via the pending queue.
    fn gen_divide(&mut self, pc: u64, op: Op) -> Instr {
        let (dst, src, latency) = match op {
            Op::IntDiv => {
                let src = self.int_src(site::SRC_A);
                (self.next_int_dst(), src, 35u32)
            }
            Op::FpDivSingle => {
                let src = self.fp_src(site::SRC_A);
                (self.next_fp_dst(), src, 31)
            }
            Op::FpDivDouble => {
                let src = self.fp_src(site::SRC_A);
                (self.next_fp_dst(), src, 61)
            }
            _ => unreachable!("gen_divide only handles divides"),
        };
        let div = Instr::arith(pc, op, Some(dst), Some(src), None);
        if self.profile.latency_hints {
            let hint_pc = self.peek_pc(0);
            self.pending.push_back(Instr::backoff(hint_pc, latency.saturating_sub(4).max(1)));
        }
        let cons_pc = self.peek_pc(1);
        let consumer = if dst.is_fp() {
            Instr::arith(cons_pc, Op::FpAdd, Some(self.next_fp_dst()), Some(dst), None)
        } else {
            Instr::alu(cons_pc, Some(self.next_int_dst()), Some(dst), None)
        };
        self.pending.push_back(consumer);
        div
    }

    fn peek_pc(&self, ahead: u64) -> u64 {
        self.wrap_region(self.pc + ahead * 4)
    }

    fn gen_instr(&mut self) -> Instr {
        if let Some(queued) = self.pending.pop_front() {
            // Queued instructions carry pre-assigned PCs; keep the walk
            // consistent by advancing past them.
            self.pc = self.wrap_region(queued.pc + 4);
            return queued;
        }

        // Consume a recently loaded value once its scheduled distance
        // (past the delay slots) elapses.
        if let Some((reg, countdown)) = self.due_consumer {
            if countdown == 0 {
                self.due_consumer = None;
                let pc = self.step_pc();
                return if reg.is_fp() {
                    Instr::arith(pc, Op::FpAdd, Some(self.next_fp_dst()), Some(reg), None)
                } else {
                    Instr::alu(pc, Some(self.next_int_dst()), Some(reg), None)
                };
            }
            self.due_consumer = Some((reg, countdown - 1));
        }

        if self.block_left == 0 {
            self.block_left = self.jittered_block_len();
            let pc = self.step_pc();
            return self.gen_branch(pc);
        }
        self.block_left -= 1;
        let pc = self.step_pc();

        let c = self.consts;
        let class = self.draw(site::OP_CLASS);
        if heads(class, c.class[0]) {
            let dst = if heads(self.draw(site::LOAD_DST), c.load_fp) {
                self.next_fp_dst()
            } else {
                self.next_int_dst()
            };
            let addr = self.data_addr();
            self.recent_loads = [Some((dst, self.emitted)), self.recent_loads[0]];
            if self.due_consumer.is_none() && heads(self.draw(site::CONSUME), CONSUME) {
                self.due_consumer = Some((dst, 2));
            }
            return Instr::load(pc, dst, Reg::int(ADDR_REG), addr);
        }
        if heads(class, c.class[1]) {
            let src = self.int_src(site::SRC_A);
            let addr = self.data_addr();
            return Instr::store(pc, src, Reg::int(ADDR_REG), addr);
        }
        if heads(class, c.class[2]) {
            return self.gen_branch(pc);
        }
        if heads(class, c.class[3]) {
            if heads(self.draw(site::FP_DIV), c.fp_div) {
                let op = if heads(self.draw(site::FP_DOUBLE), c.fp_double) {
                    Op::FpDivDouble
                } else {
                    Op::FpDivSingle
                };
                return self.gen_divide(pc, op);
            }
            let op = match bounded(self.draw(site::FP_OP), 3) {
                0 => Op::FpAdd,
                1 => Op::FpMul,
                _ => Op::FpConv,
            };
            let (s1, s2) = (self.fp_src(site::SRC_A), self.fp_src(site::SRC_B));
            return Instr::arith(pc, op, Some(self.next_fp_dst()), Some(s1), Some(s2));
        }
        if heads(class, c.class[4]) {
            let src = self.int_src(site::SRC_A);
            return Instr::arith(pc, Op::Shift, Some(self.next_int_dst()), Some(src), None);
        }
        if heads(class, c.class[5]) {
            let (s1, s2) = (self.int_src(site::SRC_A), self.int_src(site::SRC_B));
            return Instr::arith(pc, Op::IntMul, Some(self.next_int_dst()), Some(s1), Some(s2));
        }
        if heads(class, c.class[6]) {
            return self.gen_divide(pc, Op::IntDiv);
        }
        let (s1, s2) = (self.int_src(site::SRC_A), self.int_src(site::SRC_B));
        Instr::alu(pc, Some(self.next_int_dst()), Some(s1), Some(s2))
    }

    fn jittered_block_len(&mut self) -> u32 {
        let mean = self.profile.block_len;
        let lo = mean.saturating_sub(mean / 2).max(1);
        let hi = mean + mean / 2;
        lo + bounded(self.draw(site::BLOCK_LEN), u64::from(hi - lo + 1)) as u32
    }
}

impl InstrSource for SyntheticApp {
    // Each instruction is counted, then generated (draws are keyed by
    // `emitted`), so the stream is identical no matter how it is cut
    // into runs.
    fn next_run(&mut self, out: &mut Vec<Instr>, max: usize) -> usize {
        // The limit bounds the whole run up front, so the loop appends
        // straight into `out` (the fetch unit's buffer) with no
        // per-instruction `Option`.
        let produced = match self.limit {
            Some(limit) => limit.saturating_sub(self.emitted).min(max as u64) as usize,
            None => max,
        };
        out.extend((0..produced).map(|_| {
            self.emitted += 1;
            self.gen_instr()
        }));
        if produced > 0 {
            profile::mark("workloads.gen_batch");
            profile::mark_n("workloads.gen_instrs", produced as u64);
            self.batch_lens.record(produced as u64);
        }
        produced
    }
}

impl std::fmt::Debug for SyntheticApp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SyntheticApp")
            .field("profile", &self.profile.name)
            .field("emitted", &self.emitted)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use interleave_engine::rand64::{coin, unit_f64};
    use proptest::prelude::*;

    fn pull(app: &mut SyntheticApp, n: usize) -> Vec<Instr> {
        let mut out = Vec::with_capacity(n);
        assert_eq!(app.next_run(&mut out, n), n, "unbounded stream");
        out
    }

    fn take(profile: AppProfile, n: usize) -> Vec<Instr> {
        pull(&mut SyntheticApp::new(profile, 0, 7), n)
    }

    #[test]
    fn deterministic_per_seed() {
        let a = take(AppProfile::base("a"), 500);
        let b = take(AppProfile::base("a"), 500);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let mut x = SyntheticApp::new(AppProfile::base("a"), 0, 1);
        let mut y = SyntheticApp::new(AppProfile::base("a"), 0, 2);
        assert_ne!(pull(&mut x, 200), pull(&mut y, 200));
    }

    #[test]
    fn op_mix_roughly_matches_profile() {
        let mut p = AppProfile::base("mix");
        p.frac_fp = 0.3;
        p.frac_load = 0.2;
        let instrs = take(p, 20_000);
        let loads = instrs.iter().filter(|i| i.op == Op::Load).count() as f64;
        let fps = instrs.iter().filter(|i| i.op.is_fp()).count() as f64;
        let n = instrs.len() as f64;
        assert!((loads / n - 0.2).abs() < 0.05, "load fraction {}", loads / n);
        assert!((fps / n - 0.3).abs() < 0.08, "fp fraction {}", fps / n);
    }

    #[test]
    fn code_stays_in_footprint() {
        let p = AppProfile::base("code");
        let app = SyntheticApp::new(p, 2, 3);
        let base = app.code_base;
        let mut app = app;
        for i in pull(&mut app, 5000) {
            assert!(i.pc >= base && i.pc < base + p.code_footprint, "pc {:x}", i.pc);
        }
    }

    #[test]
    fn data_stays_in_footprint() {
        let p = AppProfile::base("data");
        let app = SyntheticApp::new(p, 1, 3);
        let base = app.data_base;
        let mut app = app;
        for i in pull(&mut app, 5000) {
            if let Some(m) = i.mem {
                assert!(m.addr >= base && m.addr < base + p.data_footprint);
            }
        }
    }

    #[test]
    fn divides_carry_hints_and_consumers() {
        let mut p = AppProfile::base("div");
        p.frac_fp = 0.4;
        p.fp_div_frac = 1.0;
        p.latency_hints = true;
        let instrs = take(p, 3000);
        let divs = instrs.iter().filter(|i| i.op.is_divide()).count();
        let hints = instrs.iter().filter(|i| i.op == Op::Backoff).count();
        assert!(divs > 50, "expected many divides, got {divs}");
        assert!(
            (divs as i64 - hints as i64).abs() <= 1,
            "every divide should carry a backoff hint ({divs} vs {hints})"
        );
        // Consumer follows the hint and reads the divide's destination.
        for w in instrs.windows(3) {
            if w[0].op.is_divide() {
                assert_eq!(w[1].op, Op::Backoff);
                assert_eq!(w[2].src1, w[0].dst);
            }
        }
    }

    #[test]
    fn no_hints_when_disabled() {
        let mut p = AppProfile::base("nohint");
        p.frac_fp = 0.4;
        p.fp_div_frac = 1.0;
        p.latency_hints = false;
        let instrs = take(p, 2000);
        assert_eq!(instrs.iter().filter(|i| i.op == Op::Backoff).count(), 0);
        assert!(instrs.iter().any(|i| i.op.is_divide()));
    }

    #[test]
    fn load_results_not_used_in_delay_slots() {
        let mut p = AppProfile::base("sched");
        p.frac_load = 0.4;
        p.dep_near = 0.9;
        let instrs = take(p, 20_000);
        for window in instrs.windows(3) {
            if window[0].op == Op::Load {
                let dst = window[0].dst.unwrap();
                for later in &window[1..] {
                    assert!(
                        later.sources().all(|s| s != dst),
                        "load at {:x} consumed in a delay slot: {:?} then {:?}",
                        window[0].pc,
                        window[0],
                        later
                    );
                }
            }
        }
    }

    #[test]
    fn software_prefetch_emits_prefetches_for_streams() {
        let mut p = AppProfile::base("pf");
        p.streaming = 0.5;
        p.software_prefetch = true;
        let instrs = take(p, 10_000);
        let prefetches = instrs.iter().filter(|i| i.op == Op::Prefetch).count();
        let loads = instrs.iter().filter(|i| i.op == Op::Load).count();
        assert!(prefetches > loads / 8, "streams should carry prefetches ({prefetches})");
        // Prefetches bind nothing.
        assert!(instrs.iter().filter(|i| i.op == Op::Prefetch).all(|i| i.dst.is_none()));
    }

    #[test]
    fn load_results_are_consumed_soon() {
        let mut p = AppProfile::base("consume");
        p.frac_load = 0.3;
        let instrs = take(p, 20_000);
        let mut consumed = 0;
        let mut loads = 0;
        for (i, instr) in instrs.iter().enumerate() {
            if instr.op == Op::Load {
                loads += 1;
                let dst = instr.dst.unwrap();
                if instrs[i + 1..].iter().take(8).any(|c| c.sources().any(|s| s == dst)) {
                    consumed += 1;
                }
            }
        }
        assert!(
            consumed as f64 / loads as f64 > 0.6,
            "most load results should be consumed within a few instructions ({consumed}/{loads})"
        );
    }

    #[test]
    fn limit_caps_stream() {
        let mut app = SyntheticApp::new(AppProfile::base("lim"), 0, 9).with_limit(10);
        let mut out = Vec::new();
        while app.next_run(&mut out, 1) == 1 {}
        assert_eq!(out.len(), 10);
    }

    #[test]
    fn limit_caps_batched_stream() {
        let mut app = SyntheticApp::new(AppProfile::base("lim"), 0, 9).with_limit(10);
        let mut out = Vec::new();
        assert_eq!(app.next_run(&mut out, 7), 7);
        assert_eq!(app.next_run(&mut out, 7), 3, "run truncates at the limit");
        assert_eq!(app.next_run(&mut out, 7), 0);
        assert_eq!(out.len(), 10);
    }

    #[test]
    fn most_branch_sites_are_consistent() {
        // Site PCs keep fixed targets (so the BTB can learn), except the
        // few phase-change branches, which behave like indirect jumps.
        let mut p = AppProfile::base("sites");
        p.frac_branch = 0.4;
        let instrs = take(p, 20_000);
        let mut targets: std::collections::HashMap<u64, std::collections::HashSet<u64>> =
            std::collections::HashMap::new();
        let mut total = 0usize;
        for i in &instrs {
            if let Some(b) = i.branch {
                targets.entry(i.pc).or_default().insert(b.target);
                total += 1;
            }
        }
        assert!(total > 1000, "expected many branches");
        let single = targets.values().filter(|t| t.len() == 1).count();
        assert!(
            single as f64 / targets.len() as f64 > 0.5,
            "most sites should keep one target ({single}/{})",
            targets.len()
        );
    }

    #[test]
    fn code_walk_visits_multiple_regions() {
        let mut p = AppProfile::base("phases");
        p.code_footprint = 64 * 1024;
        let instrs = take(p, 60_000);
        let regions: std::collections::HashSet<u64> = instrs.iter().map(|i| i.pc >> 12).collect();
        assert!(regions.len() >= 3, "phase changes should spread over the code");
    }

    #[test]
    fn batch_len_histogram_records_runs() {
        let mut app = SyntheticApp::new(AppProfile::base("h"), 0, 3);
        let mut out = Vec::new();
        app.next_run(&mut out, 32);
        app.next_run(&mut out, 32);
        app.next_run(&mut out, 1);
        let h = app.batch_lens();
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 65);
        assert_eq!(h.max(), 32);
        assert_eq!(h.min(), 1);
    }

    /// Pulls `total` instructions in runs whose lengths cycle through
    /// `plan` (all nonzero).
    fn take_in_runs(profile: AppProfile, total: usize, plan: &[usize]) -> Vec<Instr> {
        let mut app = SyntheticApp::new(profile, 0, 7);
        let mut out = Vec::new();
        for &want in plan.iter().cycle() {
            let room = total - out.len();
            if room == 0 {
                break;
            }
            app.next_run(&mut out, want.min(room));
        }
        out
    }

    proptest! {
        /// Instruction `i` of a stream is identical whatever run
        /// lengths it is pulled in — sampling is a pure function of
        /// (key, site, index). All-`1` runs are the reference.
        #[test]
        fn stream_is_invariant_under_run_plan(plan in proptest::collection::vec(1usize..97, 1..8)) {
            let one_by_one = take_in_runs(AppProfile::base("inv"), 600, &[1]);
            let planned = take_in_runs(AppProfile::base("inv"), 600, &plan);
            prop_assert_eq!(one_by_one, planned);
        }

        /// The integer coin agrees with the float compare it replaces,
        /// for random draws and probabilities, 0 and 1, exact multiples
        /// of 2^-53 and their neighbours, and draws just either side of
        /// each threshold.
        #[test]
        fn heads_matches_float_coin(
            draw in any::<u64>(),
            raw in any::<u64>(),
            kind in 0u8..6,
            low in 0u64..1 << 11,
        ) {
            let multiple = (raw >> 11) as f64 / (1u64 << 53) as f64;
            let p = match kind {
                0 => unit_f64(raw),
                1 => 0.0,
                2 => 1.0,
                3 => multiple,
                4 => multiple.next_up(),
                _ => multiple.next_down(),
            };
            let t = threshold(p);
            let edge = t.min((1 << 53) - 1);
            for d in [draw, edge.saturating_sub(1) << 11 | low, edge << 11 | low] {
                prop_assert_eq!(heads(d, t), coin(d, p), "draw {:#x}, p {:e}", d, p);
            }
        }
    }

    #[test]
    fn threshold_edges() {
        assert_eq!(threshold(0.0), 0);
        assert_eq!(threshold(1.0), 1 << 53);
        assert_eq!(threshold(2f64.powi(-53)), 1);
        assert_eq!(threshold(2f64.powi(-54)), 1);
        // Never heads, like the float compare.
        assert_eq!(threshold(f64::NAN), 0);
        assert_eq!(threshold(-0.5), 0);
        // Always heads.
        assert!(heads(u64::MAX, threshold(f64::INFINITY)));
    }
}
