use interleave_isa::TimingModel;

use crate::MAX_CONTEXTS;

/// How the processor treats store misses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorePolicy {
    /// A store miss makes the context unavailable until the line is owned
    /// (sequentially consistent behaviour; the paper's default — contexts
    /// switch "whenever a cache miss occurs").
    SwitchOnMiss,
    /// Stores retire into a write buffer and never block the context
    /// (release-consistent behaviour — one of the alternative latency
    /// tolerance techniques of the paper's introduction).
    WriteBuffer,
}

/// Context scheduling scheme (paper Sections 2–3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// Conventional single-context processor: the baseline. Stalls on use
    /// of missing data (lockup-free cache, no switching).
    Single,
    /// Blocked multiple contexts (Weber & Gupta, APRIL): run one context
    /// until it misses, then flush the whole pipeline and switch.
    Blocked,
    /// Interleaved multiple contexts (the paper's proposal): round-robin
    /// issue over available contexts with selective squash.
    Interleaved,
    /// Fine-grained multiple contexts (Denelcor HEP style, paper
    /// Section 2.1): cycle-by-cycle switching but with *no pipeline
    /// interlocks* — each context may have only one instruction active in
    /// the pipeline, so a single thread issues at best one instruction per
    /// pipeline depth.
    FineGrained,
}

impl Scheme {
    /// Human-readable name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Scheme::Single => "single",
            Scheme::Blocked => "blocked",
            Scheme::Interleaved => "interleaved",
            Scheme::FineGrained => "fine-grained",
        }
    }
}

/// Processor configuration.
///
/// # Examples
///
/// ```
/// use interleave_core::{ProcConfig, Scheme};
///
/// let cfg = ProcConfig::new(Scheme::Interleaved, 4);
/// assert_eq!(cfg.contexts, 4);
/// assert_eq!(cfg.btb_entries, 2048);
/// ```
#[derive(Debug, Clone)]
pub struct ProcConfig {
    /// Scheduling scheme.
    pub scheme: Scheme,
    /// Number of hardware contexts.
    pub contexts: usize,
    /// Operation timings (paper Table 3).
    pub timing: TimingModel,
    /// Branch target buffer entries (2048 in the paper; 0 disables it).
    pub btb_entries: usize,
    /// Store-miss handling policy.
    pub store_policy: StorePolicy,
    /// Fast-forward over cycles in which the processor can only idle
    /// (empty pipe, every context waiting) or stay frozen behind a
    /// stalled RF occupant (see `Processor::stall_bound`). Purely a
    /// host-throughput optimisation: results are bit-identical with it
    /// on or off. Disable to force cycle-by-cycle simulation, e.g. when
    /// debugging the hot loop itself.
    pub idle_skip: bool,
    /// Run the structural invariant checkers every tick (scoreboard
    /// hazards, cycle-accounting identity, memory-system structure; see
    /// DESIGN.md "Validation"). Defaults to
    /// [`interleave_obs::validate::default_enabled`]: on under
    /// `INTERLEAVE_VALIDATE=1`, off otherwise. Note this is a field — [`ProcConfig::validate`] the
    /// *method* checks the configuration itself.
    pub validate: bool,
}

impl ProcConfig {
    /// Standard configuration for a scheme and context count.
    ///
    /// # Panics
    ///
    /// Panics if `contexts` is zero or above [`MAX_CONTEXTS`], or if a
    /// [`Scheme::Single`] processor is given more than one context.
    pub fn new(scheme: Scheme, contexts: usize) -> ProcConfig {
        let cfg = ProcConfig {
            scheme,
            contexts,
            timing: TimingModel::r4000_like(),
            btb_entries: 2048,
            store_policy: StorePolicy::SwitchOnMiss,
            idle_skip: true,
            validate: interleave_obs::validate::default_enabled(),
        };
        cfg.validate();
        cfg
    }

    /// Checks internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on inconsistency (see [`ProcConfig::new`]).
    pub fn validate(&self) {
        assert!(self.contexts >= 1, "need at least one context");
        assert!(
            self.contexts <= MAX_CONTEXTS,
            "at most {MAX_CONTEXTS} contexts are supported, got {}",
            self.contexts
        );
        assert!(
            self.scheme != Scheme::Single || self.contexts == 1,
            "the single-context scheme supports exactly one context"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names() {
        assert_eq!(Scheme::Single.name(), "single");
        assert_eq!(Scheme::Blocked.name(), "blocked");
        assert_eq!(Scheme::Interleaved.name(), "interleaved");
        assert_eq!(Scheme::FineGrained.name(), "fine-grained");
    }

    #[test]
    fn valid_configs() {
        ProcConfig::new(Scheme::Single, 1).validate();
        ProcConfig::new(Scheme::Blocked, 8).validate();
        ProcConfig::new(Scheme::Interleaved, 4).validate();
        ProcConfig::new(Scheme::FineGrained, 16).validate();
    }

    #[test]
    #[should_panic]
    fn single_with_many_contexts_rejected() {
        let _ = ProcConfig::new(Scheme::Single, 2);
    }

    #[test]
    fn full_word_of_contexts_accepted() {
        ProcConfig::new(Scheme::Interleaved, MAX_CONTEXTS).validate();
    }

    #[test]
    #[should_panic(expected = "at most 64 contexts")]
    fn more_contexts_than_a_mask_word_rejected() {
        let _ = ProcConfig::new(Scheme::Interleaved, MAX_CONTEXTS + 1);
    }

    #[test]
    #[should_panic]
    fn zero_contexts_rejected() {
        let _ = ProcConfig::new(Scheme::Blocked, 0);
    }
}
