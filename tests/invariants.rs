//! Integration tests for the validation layer: clean runs stay clean
//! with every checker enabled, differential oracles hold across the
//! scheme grid, and a deliberately corrupted directory is caught with a
//! replayable report naming the cycle and context.

use std::panic::{catch_unwind, AssertUnwindSafe};

use interleave_core::{ProcConfig, Processor, Scheme, MAX_CONTEXTS};
use interleave_mem::{MemConfig, UniMemSystem};
use interleave_mp::{splash_suite, MpSim};
use interleave_obs::validate::Violation;
use interleave_obs::Registry;
use interleave_workloads::{litmus, mixes, SyntheticApp};
use proptest::prelude::*;

#[test]
fn violation_reports_name_cycle_context_and_seed() {
    let v = Violation::new(
        "mp.directory",
        "dirty line has an out-of-range owner",
        4242,
        "line 0x40".to_string(),
    )
    .with_context(9)
    .with_seed(0x1994_0501);
    let msg = v.to_string();
    assert!(msg.contains("validate[mp.directory]"), "component missing: {msg}");
    assert!(msg.contains("at cycle 4242"), "cycle missing: {msg}");
    assert!(msg.contains("context 9"), "context missing: {msg}");
    assert!(msg.contains("seed 0x19940501"), "seed missing: {msg}");
    assert!(msg.contains("line 0x40"), "detail missing: {msg}");
}

#[test]
fn multiprocessor_runs_clean_with_validation_on() {
    for (scheme, contexts) in [(Scheme::Single, 1), (Scheme::Interleaved, 2)] {
        let r = MpSim::builder(splash_suite()[0].clone())
            .scheme(scheme)
            .nodes(4)
            .contexts(contexts)
            .work(12_000)
            .warmup(1_000)
            .validate(true)
            .build()
            .run();
        assert!(r.cycles > 0, "{scheme:?} produced no measured cycles");
    }
}

/// The acceptance gate for the checkers themselves: corrupt the
/// directory mid-run (an out-of-range dirty owner — node 9 of 4) and
/// require the validation layer to halt the run with a report naming
/// the failure cycle and the offending context.
#[test]
fn seeded_directory_bug_is_caught_with_cycle_and_context() {
    let sim = MpSim::builder(splash_suite()[0].clone())
        .scheme(Scheme::Interleaved)
        .nodes(4)
        .contexts(2)
        .work(12_000)
        .warmup(500)
        .validate(true)
        .inject_directory_fault_at(2_000)
        .build();
    let result = catch_unwind(AssertUnwindSafe(|| sim.run()));
    let payload = result.expect_err("corrupted directory must not complete cleanly");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .expect("panic payload is a message");
    assert!(msg.contains("validate[mp.directory]"), "wrong component: {msg}");
    assert!(msg.contains("dirty line has an out-of-range owner"), "wrong invariant: {msg}");
    assert!(msg.contains("at cycle"), "no cycle in report: {msg}");
    assert!(msg.contains("context 9"), "no offending context in report: {msg}");
    assert!(msg.contains("seed"), "no replayable seed in report: {msg}");
}

/// The same fault injected with validation off must also be injected
/// with validation on — guard against the checker passing only because
/// the fault plumbing silently stopped firing.
#[test]
fn fault_injection_is_exercised_only_with_validation() {
    let sim = MpSim::builder(splash_suite()[1].clone())
        .scheme(Scheme::Blocked)
        .nodes(2)
        .contexts(2)
        .work(8_000)
        .warmup(500)
        .validate(true)
        .inject_directory_fault_at(1_000)
        .build();
    assert!(catch_unwind(AssertUnwindSafe(|| sim.run())).is_err());
}

/// One processor with `contexts` attached synthetic streams (the FP
/// mix's programs in turn) over the workstation memory, run to
/// completion with every checker on; returns the cycle count and the
/// processor's and memory's metric registry as JSON.
fn run_direct(scheme: Scheme, contexts: usize, quota: u64, idle_skip: bool) -> (u64, String) {
    let mut cfg = ProcConfig::new(scheme, contexts);
    cfg.idle_skip = idle_skip;
    cfg.validate = true;
    let mut cpu = Processor::new(cfg, UniMemSystem::new(MemConfig::workstation()));
    let apps = mixes::fp().apps;
    for ctx in 0..contexts {
        let app = apps[ctx % apps.len()];
        cpu.attach(ctx, Box::new(SyntheticApp::new(app, ctx, 0x1994_0508).with_limit(quota)));
    }
    let cycles = cpu.run_until_done(50_000_000);
    assert!(cpu.is_done(), "{scheme:?} x{contexts} did not finish");
    let mut reg = Registry::new();
    cpu.collect_metrics(&mut reg);
    cpu.port().collect_metrics(&mut reg);
    (cycles, reg.to_json_line())
}

/// mp-splash runs eight contexts per node, the widest the readiness
/// masks see in the paper's grids: with eight streams attached, idle
/// skipping must be bit-invisible for every multiple-context scheme,
/// with every checker (the mask recomputation included) on. The OS
/// path (four resident programs rotating over eight contexts) is
/// checked too.
#[test]
fn idle_skip_is_bit_invisible_at_eight_contexts() {
    for scheme in [Scheme::Blocked, Scheme::Interleaved, Scheme::FineGrained] {
        let on = run_direct(scheme, 8, 1_500, true);
        assert_eq!(on, run_direct(scheme, 8, 1_500, false), "{scheme:?} x8 diverged");
        let case = litmus::LitmusCase {
            name: "os-8",
            scheme,
            contexts: 8,
            quota: 1_000,
            seed: 0x1994_0508,
        };
        litmus::check_idle_skip_invariance(&case).unwrap();
        litmus::check_fixed_work(&case).unwrap();
    }
}

/// Four nodes of eight contexts: `mp_jobs` and adaptive lookahead stay
/// bit-invisible with the checkers on.
#[test]
fn mp_jobs_and_adaptive_are_bit_invisible_at_eight_contexts() {
    let run = |jobs: usize, adaptive: bool| {
        MpSim::builder(splash_suite()[0].clone())
            .scheme(Scheme::Interleaved)
            .nodes(4)
            .contexts(8)
            .work(16_000)
            .warmup(500)
            .validate(true)
            .mp_jobs(jobs)
            .adaptive(adaptive)
            .build()
            .run()
    };
    let serial = run(1, false);
    assert!(serial.cycles > 0);
    assert_eq!(serial, run(2, false), "mp_jobs 2 diverged at 8 contexts");
    assert_eq!(serial, run(1, true), "adaptive diverged at 8 contexts");
    assert_eq!(serial, run(2, true), "adaptive with mp_jobs 2 diverged at 8 contexts");
}

/// The masks are one word: 64 attached contexts run (every bit in use,
/// the top one included) bit-identically with and without idle skip, and
/// 65 are refused at configuration time.
#[test]
fn context_count_is_bounded_by_the_mask_word() {
    let on = run_direct(Scheme::Interleaved, MAX_CONTEXTS, 30, true);
    assert_eq!(on, run_direct(Scheme::Interleaved, MAX_CONTEXTS, 30, false));
    let refused = catch_unwind(|| ProcConfig::new(Scheme::Interleaved, MAX_CONTEXTS + 1));
    assert!(refused.is_err(), "65 contexts must be refused");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Differential oracle over a generated grid: idle-cycle skipping is
    /// bit-invisible and the fixed-work bound holds for every scheme,
    /// context count, and seed.
    #[test]
    fn litmus_oracles_hold_across_generated_cases(
        (scheme_idx, contexts) in prop_oneof![
            Just((0usize, 1usize)),
            (1usize..4, 2usize..=4).prop_map(|(s, c)| (s, c)),
        ],
        seed in any::<u32>(),
    ) {
        let scheme = [Scheme::Single, Scheme::Blocked, Scheme::Interleaved, Scheme::FineGrained]
            [scheme_idx];
        let case = litmus::LitmusCase {
            name: "generated",
            scheme,
            contexts,
            quota: 1_200,
            seed: u64::from(seed),
        };
        litmus::check_idle_skip_invariance(&case).unwrap();
        litmus::check_fixed_work(&case).unwrap();
    }

    /// Litmus grid for the parallel multiprocessor driver: over a
    /// generated grid of applications, schemes, context counts, worker
    /// counts, and seeds, `mp_jobs` must be bit-invisible — the full
    /// result (cycles, breakdowns, directory stats, metric registry)
    /// equals the serial driver's, with the invariant checkers on.
    #[test]
    fn mp_jobs_is_bit_invisible_across_generated_grid(
        app_idx in 0usize..4,
        scheme_idx in 0usize..3,
        contexts in 1usize..=2,
        jobs in 2usize..=4,
        seed in any::<u32>(),
    ) {
        let scheme = [Scheme::Blocked, Scheme::Interleaved, Scheme::FineGrained][scheme_idx];
        let run = |mp_jobs: usize| {
            MpSim::builder(splash_suite()[app_idx].clone())
                .scheme(scheme)
                .nodes(4)
                .contexts(contexts)
                .work(6_000)
                .warmup(500)
                .seed(u64::from(seed))
                .validate(true)
                .mp_jobs(mp_jobs)
                .build()
                .run()
        };
        let serial = run(1);
        let sharded = run(jobs);
        prop_assert_eq!(serial, sharded, "mp_jobs={} diverged from the serial driver", jobs);
    }

    /// Adaptive lookahead widening must be bit-invisible across the same
    /// generated grid, at every worker count, with the invariant
    /// checkers on: the widened schedule only ever skips barriers whose
    /// exchanges would have been no-ops, so the full result (cycles,
    /// breakdowns, directory stats, metric registry) equals the fixed
    /// schedule's.
    #[test]
    fn adaptive_lookahead_is_bit_invisible_across_generated_grid(
        app_idx in 0usize..4,
        scheme_idx in 0usize..3,
        contexts in 1usize..=2,
        jobs in 1usize..=4,
        seed in any::<u32>(),
    ) {
        let scheme = [Scheme::Blocked, Scheme::Interleaved, Scheme::FineGrained][scheme_idx];
        let run = |adaptive: bool| {
            MpSim::builder(splash_suite()[app_idx].clone())
                .scheme(scheme)
                .nodes(4)
                .contexts(contexts)
                .work(6_000)
                .warmup(500)
                .seed(u64::from(seed))
                .validate(true)
                .mp_jobs(jobs)
                .adaptive(adaptive)
                .build()
                .run()
        };
        let fixed = run(false);
        let adaptive = run(true);
        prop_assert_eq!(
            fixed, adaptive,
            "adaptive lookahead diverged from the fixed schedule at mp_jobs={}", jobs
        );
    }
}
