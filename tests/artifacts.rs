//! The artifact registry behind `interleave-sim sweep --artifact`: every
//! registered paper table and figure renders, and the Figures 6-9
//! breakdowns read the Table 7 / Table 10 grids exactly as grids run one
//! target at a time would.

use std::collections::HashSet;

use interleave::bench::artifacts::breakdown_table;
use interleave::bench::{artifact_spec, ExperimentSpec, Runner, Scale, ARTIFACTS};
use interleave::core::Scheme;
use interleave::mp::splash_suite;
use interleave::workloads::mixes;

/// Cuts a spec down to a few thousand instructions per cell.
fn tiny(spec: ExperimentSpec) -> ExperimentSpec {
    spec.quota(1_000).work(8_000).warmup(1_000)
}

#[test]
fn names_are_unique_and_prefix_their_spec_names() {
    let mut artifacts = HashSet::new();
    let mut specs = HashSet::new();
    for artifact in ARTIFACTS {
        assert!(artifacts.insert(artifact.name), "artifact {} registered twice", artifact.name);
        for spec in (artifact.specs)(Scale::Ci) {
            assert!(spec.name().starts_with(artifact.name), "{} in {}", spec.name(), artifact.name);
            assert!(specs.insert(spec.name().to_string()), "spec {} appears twice", spec.name());
        }
    }
}

#[test]
fn every_artifact_renders_non_empty_tables() {
    let runner = Runner::new(2);
    for artifact in ARTIFACTS {
        let sweeps: Vec<_> =
            (artifact.specs)(Scale::Ci).into_iter().map(|s| runner.run(&tiny(s))).collect();
        let text = (artifact.render)(&sweeps);
        let lines: Vec<&str> = text.lines().collect();
        let rules: Vec<usize> = (0..lines.len())
            .filter(|&i| !lines[i].is_empty() && lines[i].chars().all(|c| c == '-'))
            .collect();
        assert!(!rules.is_empty(), "{} rendered no table:\n{text}", artifact.name);
        for i in rules {
            let row = lines.get(i + 1).copied().unwrap_or("");
            assert!(!row.trim().is_empty(), "{} rendered an empty table:\n{text}", artifact.name);
        }
    }
}

#[test]
fn breakdown_figures_equal_per_target_grids() {
    let runner = Runner::new(2);
    let per_target: [(&str, Vec<ExperimentSpec>); 2] = [
        (
            "table7",
            mixes::all()
                .into_iter()
                .map(|w| ExperimentSpec::new(w.name, Scale::Ci).uni(w).contexts([2, 4]))
                .collect(),
        ),
        (
            "table10",
            splash_suite()
                .into_iter()
                .map(|a| ExperimentSpec::new(a.name, Scale::Ci).mp(a).contexts([2, 4, 8]))
                .collect(),
        ),
    ];
    for (artifact, targets) in per_target {
        let grid = runner.run(&tiny(artifact_spec(artifact, Scale::Ci).unwrap()));
        let targets: Vec<_> = targets.into_iter().map(|s| runner.run(&tiny(s))).collect();
        for scheme in [Scheme::Blocked, Scheme::Interleaved] {
            let alone: Vec<Vec<String>> = targets
                .iter()
                .flat_map(|sweep| breakdown_table(sweep, scheme).rows().to_vec())
                .collect();
            assert_eq!(breakdown_table(&grid, scheme).rows(), alone, "{artifact} {scheme:?}");
        }
    }
}
