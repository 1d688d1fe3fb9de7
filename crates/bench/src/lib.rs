//! The experiment API and the artifact registry that regenerates the
//! paper's tables and figures.
//!
//! Work is described as an [`runner::ExperimentSpec`] — a grid of
//! cells plus configuration overrides — and executed by a
//! [`runner::Runner`], which parallelizes cells across OS threads with
//! bit-identical results at any job count. [`artifacts::ARTIFACTS`]
//! names every paper table and figure as a set of specs plus a
//! renderer; `interleave-sim sweep --artifact <name>` runs one and
//! prints it, and `--json DIR` writes its `BENCH_*`/`METRICS_*`
//! artifacts. `--scale full` runs paper-scale configurations (36 ×
//! 6M-cycle time slices, 16-node machines); the default is a scaled
//! configuration that preserves the shapes while finishing quickly (see
//! DESIGN.md). [`resolve_specs`] is the one place an artifact name and
//! its knobs become specs, for the CLI and the serve daemon alike.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifacts;
pub mod cache;
pub mod runner;

pub use artifacts::{Artifact, ARTIFACTS};
pub use cache::ResultCache;
pub use runner::{
    Cell, CellResult, CellSim, ExperimentSpec, Runner, Scale, Shard, Snapshot, SweepResult, Target,
};

/// Resolves a named artifact and the spec knobs every front end
/// accepts (`--scale`, `--seed`, `--mp-jobs`, or the same keys on the
/// serve wire) into the artifact's experiment grids. `None` keeps a
/// knob at the spec's default.
///
/// # Errors
///
/// Returns a message naming the artifact when it is unknown.
pub fn resolve_specs(
    artifact: &str,
    scale: Scale,
    seed: Option<u64>,
    mp_jobs: Option<usize>,
) -> Result<Vec<ExperimentSpec>, String> {
    let specs = (artifacts::find(artifact)?.specs)(scale);
    Ok(specs
        .into_iter()
        .map(|mut spec| {
            if let Some(seed) = seed {
                spec = spec.seeds([seed]);
            }
            if let Some(mp_jobs) = mp_jobs {
                spec = spec.mp_jobs(mp_jobs);
            }
            spec
        })
        .collect())
}

/// [`resolve_specs`] for an artifact that must be exactly one grid —
/// what the serve daemon accepts, so a spec submitted over the wire
/// resolves to exactly the grid `sweep` would run.
///
/// # Errors
///
/// Returns a message naming the artifact when it is unknown or is not
/// exactly one grid.
pub fn one_grid_spec(
    artifact: &str,
    scale: Scale,
    seed: Option<u64>,
    mp_jobs: Option<usize>,
) -> Result<ExperimentSpec, String> {
    let mut specs = resolve_specs(artifact, scale, seed, mp_jobs)?;
    match specs.len() {
        1 => Ok(specs.remove(0)),
        n => Err(format!(
            "artifact `{artifact}` runs {}; only a one-grid artifact ({}) can be submitted \
             (`sweep --artifact {artifact}` runs it)",
            if n == 0 { "no grid".to_string() } else { format!("{n} grids") },
            artifacts::one_grid_names().join(", ")
        )),
    }
}

/// The one grid behind a named artifact at its default seed.
///
/// # Errors
///
/// As [`one_grid_spec`].
pub fn artifact_spec(artifact: &str, scale: Scale) -> Result<ExperimentSpec, String> {
    one_grid_spec(artifact, scale, None, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifact_spec_resolves_one_grid_artifacts() {
        for name in ["table7", "table10", "smoke", "runlengths", "ablation_contexts"] {
            let spec = artifact_spec(name, Scale::Ci).unwrap();
            assert_eq!(spec.name(), name);
            assert!(!spec.cells().is_empty());
        }
        let seeded = one_grid_spec("smoke", Scale::Ci, Some(9), Some(2)).unwrap();
        assert!(seeded.cells().iter().all(|c| c.seed == Some(9)));
        let err = artifact_spec("table99", Scale::Ci).unwrap_err();
        assert!(err.contains("unknown artifact"), "{err}");
        for name in ["table4", "ablation_btb"] {
            let err = artifact_spec(name, Scale::Ci).unwrap_err();
            assert!(err.contains(&format!("artifact `{name}`")), "{err}");
        }
    }
}
