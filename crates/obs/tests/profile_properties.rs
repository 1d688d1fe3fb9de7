//! Property tests for the [`PhaseProfile`] merge fold.
//!
//! The host-phase profiler accumulates per-thread profiles and folds
//! them into one global harvest as threads exit; worker threads finish
//! in nondeterministic order, so an order-independent `PROFILE_*` json
//! requires the fold to be a commutative, associative monoid with the
//! empty profile as identity.

use interleave_obs::profile::{PhaseProfile, PhaseStats};
use proptest::prelude::*;

/// One recording event: a small name pool (so merges collide often) and
/// `u16`/`u32` magnitudes (so sums never overflow `u64`).
#[derive(Debug, Clone, Copy)]
struct Event {
    name: u8,
    calls: u16,
    total_ns: u32,
    self_ns: u32,
}

fn event() -> impl Strategy<Value = Event> {
    (0u8..6, any::<u16>(), any::<u32>(), any::<u32>())
        .prop_map(|(name, calls, total_ns, self_ns)| Event { name, calls, total_ns, self_ns })
}

fn build(events: &[Event]) -> PhaseProfile {
    let mut profile = PhaseProfile::new();
    for e in events {
        profile.record(
            &format!("phase.{}", e.name),
            PhaseStats {
                calls: u64::from(e.calls),
                total_ns: u64::from(e.total_ns),
                self_ns: u64::from(e.self_ns),
            },
        );
    }
    profile
}

proptest! {
    /// Merging is commutative: `a ∪ b == b ∪ a`.
    #[test]
    fn merge_commutes(
        a in proptest::collection::vec(event(), 0..40),
        b in proptest::collection::vec(event(), 0..40),
    ) {
        let (a, b) = (build(&a), build(&b));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(ab, ba);
    }

    /// Merging is associative: `(a ∪ b) ∪ c == a ∪ (b ∪ c)`.
    #[test]
    fn merge_associates(
        a in proptest::collection::vec(event(), 0..30),
        b in proptest::collection::vec(event(), 0..30),
        c in proptest::collection::vec(event(), 0..30),
    ) {
        let (a, b, c) = (build(&a), build(&b), build(&c));
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        prop_assert_eq!(left, right);
    }

    /// The empty profile is a two-sided identity.
    #[test]
    fn empty_is_identity(a in proptest::collection::vec(event(), 0..40)) {
        let a = build(&a);
        let mut left = PhaseProfile::new();
        left.merge(&a);
        let mut right = a.clone();
        right.merge(&PhaseProfile::new());
        prop_assert_eq!(&left, &a);
        prop_assert_eq!(&right, &a);
    }

    /// Folding a batch of per-thread profiles is independent of harvest
    /// order — the property the profiler's thread-exit fold relies on.
    #[test]
    fn fold_order_is_irrelevant(
        batches in proptest::collection::vec(
            proptest::collection::vec(event(), 0..20), 0..8,
        ),
    ) {
        let profiles: Vec<PhaseProfile> = batches.iter().map(|b| build(b)).collect();
        let mut forward = PhaseProfile::new();
        for p in &profiles {
            forward.merge(p);
        }
        let mut reverse = PhaseProfile::new();
        for p in profiles.iter().rev() {
            reverse.merge(p);
        }
        prop_assert_eq!(&forward, &reverse);
        // And folding equals building from the concatenated event log.
        let all: Vec<Event> = batches.into_iter().flatten().collect();
        prop_assert_eq!(&forward, &build(&all));
    }

    /// `to_json` → `from_json` is lossless for any profile, so harvest
    /// order aside, the emitted `PROFILE_*` document carries the exact
    /// fold result.
    #[test]
    fn json_round_trips(a in proptest::collection::vec(event(), 0..40)) {
        let a = build(&a);
        let parsed = PhaseProfile::from_json(&a.to_json(0)).expect("round-trip parses");
        prop_assert_eq!(parsed, a);
    }
}
