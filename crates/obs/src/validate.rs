//! Shared vocabulary for the simulator's invariant checkers.
//!
//! Every structural checker in the workspace (`interleave-mem` MSHR
//! occupancy, `interleave-mp` directory legality, `interleave-pipeline`
//! scoreboard consistency, `interleave-core` cycle accounting) reports
//! failures as a [`Violation`]: which component broke which invariant, at
//! which cycle, for which hardware context, and — when the caller knows
//! it — the seed that replays the failing run.
//!
//! The checkers themselves are *always compiled*; whether they run is a
//! runtime decision resolved by [`default_enabled`]: on when
//! `INTERLEAVE_VALIDATE=1` is set, off otherwise. Simulation drivers expose the same switch as a builder
//! knob so tests can enable validation without touching the environment.

use std::fmt;
use std::sync::OnceLock;

/// A broken structural invariant, with enough context to replay it.
///
/// Rendered through [`fmt::Display`] as e.g.
///
/// ```text
/// validate[mp.directory]: dirty line has an out-of-range owner at cycle 777 (context 9, seed 0x19941004): line 0x40 owned by node 9 of 4
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Component that detected the violation (`mem.mshr`, `mp.directory`,
    /// `pipeline.scoreboard`, `core.breakdown`, ...).
    pub component: &'static str,
    /// Short statement of the invariant that broke.
    pub invariant: &'static str,
    /// Simulation cycle at which the violation was detected.
    pub cycle: u64,
    /// Hardware context (or node) the violation implicates, if any.
    pub context: Option<usize>,
    /// Seed that replays the failing run, when the reporting layer knows
    /// it (simulation drivers attach it via [`Violation::with_seed`]).
    pub seed: Option<u64>,
    /// Free-form detail: the offending values.
    pub detail: String,
}

impl Violation {
    /// Builds a violation with no context or seed attached.
    pub fn new(
        component: &'static str,
        invariant: &'static str,
        cycle: u64,
        detail: String,
    ) -> Violation {
        Violation { component, invariant, cycle, context: None, seed: None, detail }
    }

    /// Attaches the implicated hardware context (or node).
    pub fn with_context(mut self, context: usize) -> Violation {
        self.context = Some(context);
        self
    }

    /// Attaches the seed that replays the failing run.
    pub fn with_seed(mut self, seed: u64) -> Violation {
        self.seed = Some(seed);
        self
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "validate[{}]: {} at cycle {}", self.component, self.invariant, self.cycle)?;
        match (self.context, self.seed) {
            (Some(c), Some(s)) => write!(f, " (context {c}, seed {s:#x})")?,
            (Some(c), None) => write!(f, " (context {c})")?,
            (None, Some(s)) => write!(f, " (seed {s:#x})")?,
            (None, None) => {}
        }
        if self.detail.is_empty() {
            Ok(())
        } else {
            write!(f, ": {}", self.detail)
        }
    }
}

/// Default state of the invariant checkers: on when
/// `INTERLEAVE_VALIDATE=1` is set, off otherwise (cached on first call:
/// the checkers consult this on hot paths, and the drivers resolve it
/// once at build time anyway). Simulation builders use this as the
/// default for their `validate` knobs.
pub fn default_enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| std::env::var("INTERLEAVE_VALIDATE").is_ok_and(|v| v == "1"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_cycle_context_and_seed() {
        let v = Violation::new("mp.directory", "dirty line has sharers", 777, "line 0x40".into())
            .with_context(9)
            .with_seed(0x1994);
        let s = v.to_string();
        assert!(s.contains("cycle 777"), "{s}");
        assert!(s.contains("context 9"), "{s}");
        assert!(s.contains("seed 0x1994"), "{s}");
        assert!(s.contains("mp.directory"), "{s}");
        assert!(s.contains("line 0x40"), "{s}");
    }

    #[test]
    fn display_without_optionals_is_clean() {
        let v = Violation::new("mem.mshr", "occupancy exceeds capacity", 3, String::new());
        assert_eq!(v.to_string(), "validate[mem.mshr]: occupancy exceeds capacity at cycle 3");
    }

    #[test]
    fn default_follows_the_environment() {
        // This pins the wiring, not the environment: the default is on
        // exactly when INTERLEAVE_VALIDATE=1.
        let set = std::env::var("INTERLEAVE_VALIDATE").is_ok_and(|v| v == "1");
        assert_eq!(default_enabled(), set);
    }
}
