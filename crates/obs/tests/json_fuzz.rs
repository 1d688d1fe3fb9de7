//! Fuzzing [`json::parse`], the parser behind every artifact reader and
//! the daemon's job bodies: random bytes, and truncations, byte flips
//! and splices of valid `METRICS` lines and job bodies, must come back
//! as `Ok` or `Err` — never a panic.

use interleave_obs::{json, Histogram, Registry};
use proptest::prelude::*;

/// Valid documents of every shape the project reads: a registry
/// rendered as a `METRICS` line, a `METRICS` cell line, and job bodies
/// (with escapes, exponents and nesting the writers never emit).
fn corpus() -> Vec<String> {
    let mut reg = Registry::new();
    reg.counter("cycles.busy", 58_341);
    reg.counter("mem.l1d.misses", 3_227);
    let mut h = Histogram::default();
    for v in [2, 3, 17, 417, 1 << 20] {
        h.record(v);
    }
    reg.histogram("core.run_length", &h);
    vec![
        reg.to_json_line(),
        r#"{"grid_index": 1, "target": "FP", "scheme": "blocked", "contexts": 2, "seed": null, "metrics": {"core.run_length": {"count": 1678, "sum": 33397, "min": 2, "max": 417, "mean": 19.9029, "buckets": [{"lo": 2, "hi": 3, "n": 22}]}, "cycles.busy": 58341}}"#.to_string(),
        r#"{"artifact": "table7", "scale": "ci", "seed": 7, "jobs": 2, "mp_jobs": 4}"#.to_string(),
        r#"{"artifact": "smoke\n\"\\/", "seed": -1.5e+3, "x": [true, false, null, [], {}]}"#.to_string(),
    ]
}

/// How a valid document is damaged.
#[derive(Debug, Clone, Copy)]
enum Damage {
    /// Keep the first `n` bytes (modulo the length).
    Truncate(usize),
    /// XOR the byte at `at` with `mask`.
    Flip { at: usize, mask: u8 },
    /// Copy `len` bytes from `from` over the bytes at `to`.
    Splice { from: usize, to: usize, len: usize },
    /// Insert `byte` at `at`.
    Insert { at: usize, byte: u8 },
}

fn damage() -> impl Strategy<Value = Damage> {
    prop_oneof![
        any::<usize>().prop_map(Damage::Truncate),
        (any::<usize>(), 1u8..=255).prop_map(|(at, mask)| Damage::Flip { at, mask }),
        (any::<usize>(), any::<usize>(), 1usize..16).prop_map(|(from, to, len)| Damage::Splice {
            from,
            to,
            len
        }),
        (any::<usize>(), any::<u8>()).prop_map(|(at, byte)| Damage::Insert { at, byte }),
    ]
}

fn apply(doc: &mut Vec<u8>, d: Damage) {
    let n = doc.len();
    match d {
        Damage::Truncate(keep) => doc.truncate(keep % (n + 1)),
        Damage::Flip { at, mask } => doc[at % n] ^= mask,
        Damage::Splice { from, to, len } => {
            let (from, to) = (from % n, to % n);
            let len = len.min(n - from).min(n - to);
            doc.copy_within(from..from + len, to);
        }
        Damage::Insert { at, byte } => doc.insert(at % (n + 1), byte),
    }
}

/// Parses bytes as the daemon and the artifact readers see them: as
/// text, with invalid UTF-8 replaced.
fn parse_bytes(bytes: &[u8]) -> Result<json::Value, String> {
    json::parse(&String::from_utf8_lossy(bytes))
}

#[test]
fn corpus_parses() {
    for doc in corpus() {
        assert!(json::parse(&doc).is_ok(), "{doc}");
    }
}

#[test]
fn every_truncation_of_the_corpus_returns() {
    for doc in corpus() {
        for keep in 0..doc.len() {
            let _ = parse_bytes(&doc.as_bytes()[..keep]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn random_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = parse_bytes(&bytes);
    }

    #[test]
    fn damaged_documents_never_panic(
        pick in 0usize..4,
        damages in proptest::collection::vec(damage(), 1..6),
    ) {
        let mut doc = corpus().swap_remove(pick).into_bytes();
        for d in damages {
            if doc.is_empty() {
                break;
            }
            apply(&mut doc, d);
        }
        let _ = parse_bytes(&doc);
    }

    #[test]
    fn structural_bytes_never_panic(
        bytes in proptest::collection::vec(
            prop_oneof![
                Just(b'['), Just(b']'), Just(b'{'), Just(b'}'), Just(b'"'), Just(b'\\'),
                Just(b':'), Just(b','), Just(b'u'), Just(b'1'), Just(b'-'), Just(b'e'),
                Just(b' '), Just(b'n'), Just(0xC3u8), Just(0xA9u8),
            ],
            0..128,
        ),
    ) {
        let _ = parse_bytes(&bytes);
    }
}
