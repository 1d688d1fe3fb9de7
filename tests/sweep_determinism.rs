//! The parallel sweep runner must be a pure optimization: running the
//! same `ExperimentSpec` serially or with any number of jobs yields
//! bit-identical results (same cells, same order, equal simulation
//! outputs). The same holds for idle-cycle skipping in the hot loop:
//! fixed-seed golden tests pin the simulated numbers, and skipping on
//! vs off must produce byte-identical metrics artifacts.

use std::path::PathBuf;

use interleave::bench::{cache, ExperimentSpec, Runner, Scale, Shard};
use interleave::core::Scheme;
use interleave::mp::{splash_suite, MpSim};
use interleave::stats::{Breakdown, Category};
use interleave::workloads::{mixes, MultiprogramSim};
use proptest::prelude::*;

fn small_grid() -> ExperimentSpec {
    let mut spec = ExperimentSpec::new("determinism", Scale::Ci)
        .contexts([2, 4])
        .quota(2_000)
        .work(12_000)
        .warmup(500);
    for w in [mixes::ic(), mixes::fp()] {
        spec = spec.uni(w);
    }
    spec.mp(splash_suite()[0].clone())
}

#[test]
fn parallel_sweep_is_bit_identical_to_serial() {
    let spec = small_grid();
    let serial = Runner::serial().run(&spec);
    let parallel = Runner::new(4).run(&spec);
    assert_eq!(serial.jobs, 1);
    assert_eq!(parallel.jobs, 4);
    // 3 targets × (baseline + 2 counts × 2 schemes) = 15 cells.
    assert_eq!(serial.cells.len(), 15);
    assert!(serial.results_match(&parallel), "parallel sweep diverged from serial execution");
    // And the rendered artifacts agree too.
    assert_eq!(serial.to_table().to_string(), parallel.to_table().to_string());
}

#[test]
fn repeated_parallel_sweeps_are_reproducible() {
    let spec = small_grid();
    let first = Runner::new(4).run(&spec);
    let second = Runner::new(4).run(&spec);
    assert!(first.results_match(&second));
}

/// Asserts a breakdown matches golden per-category values in
/// `Category::ALL` order.
fn assert_breakdown(what: &str, got: &Breakdown, golden: [u64; 7]) {
    for (c, want) in Category::ALL.into_iter().zip(golden) {
        assert_eq!(got.get(c), want, "{what}: category {c:?} diverged from the golden value");
    }
}

/// Fixed-seed golden values for a uniprocessor multiprogramming run.
/// Any drift here means the event queue or idle skipping changed
/// simulated behaviour. Runs both with and without idle skipping: the
/// full results (every field, not just the breakdown) must be identical.
///
/// Values re-goldened once for the `engine::rand64` generator rewrite
/// (DESIGN.md, "Hot path v2"); the distribution-level oracles pin the
/// simulated behaviour across that stream change.
#[test]
fn uni_golden_values_with_and_without_idle_skip() {
    let run = |idle_skip: bool| {
        MultiprogramSim::builder(mixes::fp())
            .scheme(Scheme::Interleaved)
            .contexts(2)
            .quota(2_000)
            .warmup(500)
            .idle_skip(idle_skip)
            .build()
            .run()
    };
    let on = run(true);
    let off = run(false);
    assert_eq!(on, off, "idle skipping changed a uniprocessor result");
    assert_eq!(on.cycles, 78_944);
    assert_eq!(on.instructions, 28_303);
    assert_breakdown(
        "uni fp/interleaved/2",
        &on.breakdown,
        [28_137, 13_165, 1_708, 9_848, 15_998, 0, 10_088],
    );

    let blocked = MultiprogramSim::builder(mixes::ic())
        .scheme(Scheme::Blocked)
        .contexts(4)
        .quota(2_000)
        .warmup(500)
        .build()
        .run();
    assert_eq!(blocked.cycles, 27_392);
    assert_eq!(blocked.instructions, 9_370);
    assert_breakdown(
        "uni ic/blocked/4",
        &blocked.breakdown,
        [9_343, 5_766, 50, 5_053, 1_049, 0, 6_131],
    );
}

/// Same as above for the multiprocessor lockstep loop, whose idle
/// skipping must also respect warmup and quota-check boundaries.
#[test]
fn mp_golden_values_with_and_without_idle_skip() {
    let run = |idle_skip: bool| {
        MpSim::builder(splash_suite()[0].clone())
            .scheme(Scheme::Interleaved)
            .nodes(4)
            .contexts(2)
            .work(12_000)
            .warmup(500)
            .idle_skip(idle_skip)
            .build()
            .run()
    };
    let on = run(true);
    let off = run(false);
    assert_eq!(on, off, "idle skipping changed a multiprocessor result");
    assert_eq!(on.cycles, 28_160);
    assert_breakdown(
        "mp splash0/interleaved/4x2",
        &on.breakdown,
        [12_626, 5_983, 1_460, 0, 81_550, 0, 11_021],
    );
}

/// The parallel multiprocessor driver is a pure host optimization: the
/// golden run above must reproduce bit-for-bit at every worker count,
/// including the full metrics registry.
#[test]
fn mp_golden_values_hold_at_every_mp_jobs() {
    let run = |jobs: usize| {
        MpSim::builder(splash_suite()[0].clone())
            .scheme(Scheme::Interleaved)
            .nodes(4)
            .contexts(2)
            .work(12_000)
            .warmup(500)
            .mp_jobs(jobs)
            .build()
            .run()
    };
    let serial = run(1);
    assert_eq!(serial.cycles, 28_160);
    for jobs in [2, 3, 4] {
        let parallel = run(jobs);
        assert_eq!(serial, parallel, "mp_jobs={jobs} diverged from the serial driver");
    }
}

/// Sweep-level check: a whole grid run with idle skipping disabled must
/// reproduce the default grid cell for cell, down to the serialized
/// metrics artifact bytes.
#[test]
fn idle_skip_produces_byte_identical_metrics_artifacts() {
    let on = Runner::new(2).run(&small_grid().idle_skip(true));
    let off = Runner::new(2).run(&small_grid().idle_skip(false));
    assert!(on.results_match(&off), "idle skipping changed sweep results");
    assert_eq!(
        on.metrics_json(),
        off.metrics_json(),
        "METRICS artifact must be byte-identical with idle skipping on or off"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The `--shard K/N` partitioner must tile any grid: for every
    /// shard count the K slices are pairwise disjoint, their union is
    /// exactly the grid, and recomputing a slice yields the same
    /// indices (the property assembling a grid from shards stands on).
    #[test]
    fn shard_slices_partition_any_grid(grid_cells in 0usize..200, count in 1usize..=8) {
        let mut seen = vec![false; grid_cells];
        for index in 1..=count {
            let shard = Shard::new(index, count);
            let slice: Vec<usize> = shard.indices(grid_cells).collect();
            prop_assert_eq!(
                slice.clone(),
                shard.indices(grid_cells).collect::<Vec<usize>>(),
                "slice must be stable across invocations"
            );
            for i in slice {
                prop_assert!(i < grid_cells, "index {} outside the grid", i);
                prop_assert!(!seen[i], "index {} claimed by two shards", i);
                seen[i] = true;
            }
        }
        prop_assert!(seen.iter().all(|&c| c), "shard union must cover the grid");
    }
}

/// The checkpoint key is the resume contract: it must be stable across
/// processes (same spec + cell -> same file name forever) and distinct
/// across cells, or a resumed sweep would silently reuse the wrong
/// result.
#[test]
fn checkpoint_keys_are_stable_and_distinct_across_the_grid() {
    let spec = small_grid();
    let cells = spec.cells();
    let keys: Vec<u64> = cells.iter().map(|c| cache::cell_key(&spec, c)).collect();
    let again: Vec<u64> = cells.iter().map(|c| cache::cell_key(&spec, c)).collect();
    assert_eq!(keys, again, "checkpoint keys must be stable across invocations");
    let mut unique = keys.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), cells.len(), "every cell must get a distinct checkpoint key");
    // A result-affecting knob moves every key.
    let tightened = small_grid().quota(1_000);
    assert_ne!(cache::cell_key(&tightened, &cells[0]), keys[0]);
}

/// Drops the volatile host-side keys from a BENCH document, mirroring
/// scripts/determinism_gate.sh: the top-level
/// unix_timestamp/jobs/wall_ms/sim_cycles_per_sec lines and the inline
/// per-cell wall_ms/sim_cycles_per_sec fields.
fn strip_volatile(bench: &str) -> String {
    const TOP_LEVEL: [&str; 4] =
        ["  \"unix_timestamp\"", "  \"jobs\"", "  \"wall_ms\"", "  \"sim_cycles_per_sec\""];
    bench
        .lines()
        .filter(|line| !TOP_LEVEL.iter().any(|k| line.starts_with(k)))
        .map(|line| {
            let mut line = line.to_string();
            for key in ["\"wall_ms\": ", "\"sim_cycles_per_sec\": "] {
                while let Some(start) = line.find(key) {
                    let rest = &line[start..];
                    let len = rest.find(", ").map(|i| i + 2).unwrap_or(rest.len());
                    line.replace_range(start..start + len, "");
                }
            }
            line
        })
        .collect::<Vec<_>>()
        .join("\n")
        + "\n"
}

fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ilv_sweep_det_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Running the grid as K disjoint shards into one checkpoint directory,
/// then one whole-grid sweep over it, must restore every cell — a
/// missing shard would show up as recomputed cells — and reproduce the
/// single-process `--jobs N` sweep byte-for-byte: METRICS strictly,
/// BENCH after stripping the volatile host keys.
#[test]
fn checkpointed_shards_assemble_byte_identical_to_single_process_sweep() {
    let spec = small_grid();
    let reference = Runner::new(4).run(&spec);
    for count in [2, 3, 5] {
        let ckpt = test_dir(&format!("shards{count}"));
        for index in 1..=count {
            Runner::new(2).shard(Shard::new(index, count)).checkpoint_dir(&ckpt).run(&spec);
        }
        let assembled = Runner::new(4).checkpoint_dir(&ckpt).run(&spec);
        assert_eq!(assembled.resumed, 15, "{count} shards must checkpoint every cell");
        assert_eq!(
            assembled.metrics_json(),
            reference.metrics_json(),
            "{count}-way assembled METRICS must match the single-process artifact byte-for-byte"
        );
        assert_eq!(
            strip_volatile(&assembled.to_json()),
            strip_volatile(&reference.to_json()),
            "{count}-way assembled BENCH must match after stripping volatile host keys"
        );
        let _ = std::fs::remove_dir_all(&ckpt);
    }
}

/// A sweep resumed from a fully checkpointed directory recomputes
/// nothing and still renders byte-identical artifacts.
#[test]
fn resumed_sweep_skips_cells_and_matches_artifacts() {
    let spec = small_grid();
    let ckpt = test_dir("resume");
    let cold = Runner::new(2).checkpoint_dir(&ckpt).run(&spec);
    assert_eq!(cold.resumed, 0);
    let warm = Runner::new(2).checkpoint_dir(&ckpt).run(&spec);
    assert_eq!(warm.resumed, 15, "every cell must resume from its checkpoint");
    assert!(cold.results_match(&warm));
    assert_eq!(cold.metrics_json(), warm.metrics_json());
    assert_eq!(strip_volatile(&cold.to_json()), strip_volatile(&warm.to_json()));
    let _ = std::fs::remove_dir_all(&ckpt);
}

#[test]
fn explicit_seed_axis_is_deterministic_and_distinct() {
    let base = small_grid();
    let seeded = |seed: u64| Runner::new(2).run(&base.clone().seeds([seed]));
    assert!(seeded(11).results_match(&seeded(11)));
    assert!(!seeded(11).results_match(&seeded(12)));
    // Scheme::Single baseline cells still come first per target.
    let sweep = seeded(11);
    assert_eq!(sweep.cells[0].0.scheme, Scheme::Single);
    assert_eq!(sweep.cells[0].0.seed, Some(11));
}
