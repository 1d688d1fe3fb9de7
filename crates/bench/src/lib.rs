//! The experiment API and the artifact registry that regenerates the
//! paper's tables and figures.
//!
//! Work is described as an [`runner::ExperimentSpec`] — a grid of
//! cells plus configuration overrides — and executed by a
//! [`runner::Runner`], which parallelizes cells across OS threads
//! (`INTERLEAVE_JOBS` controls the worker count) with bit-identical
//! results at any job count. [`artifacts::ARTIFACTS`] names every paper
//! table and figure as a set of specs plus a renderer;
//! `interleave-sim sweep --artifact <name>` runs one and prints it, and
//! `--json DIR` writes its `BENCH_*`/`METRICS_*` artifacts. Set
//! `INTERLEAVE_FULL=1` (or `--scale full`) to run paper-scale
//! configurations (36 × 6M-cycle time slices, 16-node machines); the
//! default is a scaled configuration that preserves the shapes while
//! finishing quickly (see DESIGN.md).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifacts;
pub mod cache;
pub mod checkpoint;
pub mod merge;
pub mod runner;

pub use artifacts::{Artifact, ARTIFACTS};
pub use cache::ResultCache;
pub use merge::{MergeError, MergedSweep};
pub use runner::{
    Cell, CellResult, ExperimentSpec, Runner, Scale, Shard, Snapshot, SweepResult, Target,
};

/// Builds the one experiment grid behind a named artifact — the
/// library-level entry shared by the `profile`/`submit` subcommands
/// and the `interleave-sim serve` daemon, so a spec submitted over the
/// wire resolves to exactly the grid the CLI would run.
///
/// # Errors
///
/// Returns a message naming the artifact when it is unknown or is not
/// exactly one grid.
pub fn artifact_spec(artifact: &str, scale: Scale) -> Result<ExperimentSpec, String> {
    let mut specs = (artifacts::find(artifact)?.specs)(scale);
    match specs.len() {
        1 => Ok(specs.remove(0)),
        n => Err(format!(
            "artifact `{artifact}` runs {}; only a one-grid artifact ({}) can be profiled or \
             submitted (`sweep --artifact {artifact}` runs it)",
            if n == 0 { "no grid".to_string() } else { format!("{n} grids") },
            artifacts::one_grid_names().join(", ")
        )),
    }
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
        let err = artifact_spec("table99", Scale::Ci).unwrap_err();
        assert!(err.contains("unknown artifact"), "{err}");
        for name in ["table4", "ablation_btb"] {
            let err = artifact_spec(name, Scale::Ci).unwrap_err();
            assert!(err.contains(&format!("artifact `{name}`")), "{err}");
        }
    }
}
