//! Measurement of synthetic instruction streams: sample a stream and
//! report its realized operation mix and reference behaviour, for
//! validating profiles against their targets (and for documentation).

use interleave_core::InstrSource;
use interleave_isa::{Instr, Op};
use interleave_stats::Table;

use crate::{AppProfile, SyntheticApp};

/// Instructions pulled per `next_run` call while sampling.
const SAMPLE_RUN: u64 = 1024;

/// Realized statistics of an instruction-stream sample.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StreamStats {
    /// Instructions sampled.
    pub instructions: u64,
    /// Loads.
    pub loads: u64,
    /// Stores.
    pub stores: u64,
    /// Branches (taken count in `.1`).
    pub branches: (u64, u64),
    /// FP arithmetic operations.
    pub fp_ops: u64,
    /// Divides (integer + FP).
    pub divides: u64,
    /// Backoff hints.
    pub backoffs: u64,
    /// Prefetches.
    pub prefetches: u64,
    /// Distinct 32-byte data lines touched.
    pub data_lines: u64,
    /// Distinct 4 KB data pages touched.
    pub data_pages: u64,
    /// Distinct 32-byte code lines touched.
    pub code_lines: u64,
}

impl StreamStats {
    /// Collects statistics over the next `n` instructions of `source`.
    ///
    /// # Panics
    ///
    /// Panics if the source ends before `n` instructions.
    pub fn sample(source: &mut dyn InstrSource, n: u64) -> StreamStats {
        let mut stats = StreamStats::default();
        let mut data_lines = std::collections::HashSet::new();
        let mut data_pages = std::collections::HashSet::new();
        let mut code_lines = std::collections::HashSet::new();
        let mut run: Vec<Instr> = Vec::new();
        let mut left = n;
        while left > 0 {
            run.clear();
            let want = left.min(SAMPLE_RUN) as usize;
            assert_eq!(source.next_run(&mut run, want), want, "stream ended during sampling");
            left -= want as u64;
            for instr in &run {
                stats.instructions += 1;
                code_lines.insert(instr.pc >> 5);
                match instr.op {
                    Op::Load => stats.loads += 1,
                    Op::Store => stats.stores += 1,
                    Op::Prefetch => stats.prefetches += 1,
                    Op::Branch => {
                        stats.branches.0 += 1;
                        if instr.branch.is_some_and(|b| b.taken) {
                            stats.branches.1 += 1;
                        }
                    }
                    Op::Backoff => stats.backoffs += 1,
                    op if op.is_fp() => stats.fp_ops += 1,
                    _ => {}
                }
                if instr.op.is_divide() {
                    stats.divides += 1;
                }
                if let Some(mem) = instr.mem {
                    data_lines.insert(mem.addr >> 5);
                    data_pages.insert(mem.addr >> 12);
                }
            }
        }
        stats.data_lines = data_lines.len() as u64;
        stats.data_pages = data_pages.len() as u64;
        stats.code_lines = code_lines.len() as u64;
        stats
    }

    /// Fraction helper.
    fn frac(&self, x: u64) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            x as f64 / self.instructions as f64
        }
    }

    /// Renders the statistics as a table (one profile per call).
    pub fn report(&self, name: &str) -> Table {
        let mut t = Table::new(format!("stream sample: {name}"));
        t.headers(["metric", "value"]);
        t.row(["instructions".to_string(), self.instructions.to_string()]);
        t.row(["load fraction".to_string(), format!("{:.3}", self.frac(self.loads))]);
        t.row(["store fraction".to_string(), format!("{:.3}", self.frac(self.stores))]);
        t.row(["branch fraction".to_string(), format!("{:.3}", self.frac(self.branches.0))]);
        let taken = if self.branches.0 == 0 {
            0.0
        } else {
            self.branches.1 as f64 / self.branches.0 as f64
        };
        t.row(["branch taken rate".to_string(), format!("{taken:.3}")]);
        t.row(["fp fraction".to_string(), format!("{:.3}", self.frac(self.fp_ops))]);
        t.row(["divides".to_string(), self.divides.to_string()]);
        t.row(["backoff hints".to_string(), self.backoffs.to_string()]);
        t.row(["prefetches".to_string(), self.prefetches.to_string()]);
        t.row(["data lines touched".to_string(), self.data_lines.to_string()]);
        t.row(["data pages touched".to_string(), self.data_pages.to_string()]);
        t.row(["code lines touched".to_string(), self.code_lines.to_string()]);
        t
    }
}

/// Samples `n` instructions of `profile`'s stream and returns the realized
/// statistics (convenience wrapper).
///
/// # Examples
///
/// ```
/// use interleave_workloads::{measure_profile, spec};
///
/// let stats = measure_profile(&spec::water_uni(), 5_000);
/// assert!(stats.divides > 0, "Water is divide-heavy");
/// ```
pub fn measure_profile(profile: &AppProfile, n: u64) -> StreamStats {
    let mut app = SyntheticApp::new(*profile, 0, 0x51EA7);
    StreamStats::sample(&mut app, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;

    #[test]
    fn realized_mix_tracks_profile() {
        let profile = spec::eqntott();
        let stats = measure_profile(&profile, 30_000);
        // The generator dilutes the configured mix slightly (scheduled
        // load consumers and block-closing branches add instructions).
        let load_frac = stats.loads as f64 / stats.instructions as f64;
        assert!((load_frac - profile.frac_load).abs() < 0.1, "loads {load_frac}");
        // Branches = the configured in-body fraction plus one block-closing
        // branch per basic block.
        let br_frac = stats.branches.0 as f64 / stats.instructions as f64;
        let lo = profile.frac_branch * 0.6;
        let hi = profile.frac_branch + 1.2 / profile.block_len as f64;
        assert!(br_frac > lo && br_frac < hi, "branches {br_frac} outside [{lo:.2}, {hi:.2}]");
    }

    #[test]
    fn working_sets_track_footprints() {
        let small = measure_profile(&spec::emit(), 30_000);
        let large = measure_profile(&spec::matrix300(), 30_000);
        assert!(
            large.data_lines as f64 > small.data_lines as f64 * 1.5,
            "matrix300 should touch far more lines ({} vs {})",
            large.data_lines,
            small.data_lines
        );
        assert!(large.data_pages > small.data_pages);
    }

    #[test]
    fn divide_heavy_profiles_backoff() {
        let stats = measure_profile(&spec::water_uni(), 30_000);
        assert!(stats.divides > 100);
        assert!(stats.backoffs > 0, "hints accompany divides");
    }

    #[test]
    fn report_renders() {
        let stats = measure_profile(&spec::mxm(), 2_000);
        let table = stats.report("Mxm");
        let text = table.to_string();
        assert!(text.contains("load fraction"));
        assert!(text.contains("Mxm"));
    }

    #[test]
    fn taken_rate_is_loopy() {
        let stats = measure_profile(&spec::mxm(), 30_000);
        let taken = stats.branches.1 as f64 / stats.branches.0.max(1) as f64;
        assert!(taken > 0.5, "loop-dominated code is mostly taken, got {taken}");
    }
}
