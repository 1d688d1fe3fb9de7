//! The correctness oracle: `golden.json` pins an FNV-64 digest of every
//! output the benchmark produces at [`GOLDEN_SEED`], one per cell (over
//! `CellResult::metrics().to_json_line()`) and one per `METRICS` document
//! the daemon serves first in a serve-mix round's set-up pairs, for each
//! of the [`ROUNDS`] round seeds.
//! `bless` regenerates the file.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use interleave_obs::json::{self, escape, Value};

use crate::{Workload, ROUNDS};

/// The seed whose outputs `golden.json` pins (the default `--seed`).
pub const GOLDEN_SEED: u64 = 1;

/// 64-bit FNV-1a.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// `(label, digest)` for every output of one round, in grid order.
pub type Digests = Vec<(String, u64)>;

/// Pinned digests, keyed by workload and round-seed index.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Golden {
    rounds: BTreeMap<(Workload, usize), BTreeMap<String, u64>>,
}

impl Golden {
    /// Where the pinned digests live.
    pub fn path() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("golden.json")
    }

    /// Reads `golden.json`.
    pub fn load(path: &Path) -> Result<Golden, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if doc.get("seed").and_then(Value::as_u64) != Some(GOLDEN_SEED) {
            return Err(format!("{}: expected \"seed\": {GOLDEN_SEED}", path.display()));
        }
        let mut golden = Golden::default();
        for w in Workload::ALL {
            let rounds = doc
                .get("workloads")
                .and_then(|ws| ws.get(w.name()))
                .and_then(Value::as_arr)
                .ok_or_else(|| format!("{}: no rounds for {}", path.display(), w.name()))?;
            for (round, entries) in rounds.iter().enumerate() {
                let Value::Obj(entries) = entries else {
                    return Err(format!(
                        "{}: {} round {round} is not an object",
                        path.display(),
                        w.name()
                    ));
                };
                let mut pinned = BTreeMap::new();
                for (label, hex) in entries {
                    let digest = hex
                        .as_str()
                        .and_then(|h| u64::from_str_radix(h, 16).ok())
                        .ok_or_else(|| format!("{}: bad digest for {label}", path.display()))?;
                    pinned.insert(label.clone(), digest);
                }
                golden.rounds.insert((w, round), pinned);
            }
        }
        Ok(golden)
    }

    /// Pins `digests` as the outputs of round-seed index `round % ROUNDS`.
    pub fn insert(&mut self, workload: Workload, round: usize, digests: &Digests) {
        self.rounds.entry((workload, round % ROUNDS)).or_default().extend(digests.iter().cloned());
    }

    /// One message per output of round `round` (at [`GOLDEN_SEED`]) whose
    /// digest differs from, or is missing in, the pinned set.
    pub fn check(&self, workload: Workload, round: usize, digests: &Digests) -> Vec<String> {
        let index = round % ROUNDS;
        let Some(pinned) = self.rounds.get(&(workload, index)) else {
            return vec![format!(
                "{} round {index}: nothing pinned in golden.json",
                workload.name()
            )];
        };
        digests
            .iter()
            .filter_map(|(label, digest)| match pinned.get(label) {
                Some(p) if p == digest => None,
                Some(p) => Some(format!(
                    "{} round {index} {label}: digest {digest:016x}, golden {p:016x}",
                    workload.name()
                )),
                None => {
                    Some(format!("{} round {index} {label}: not in golden.json", workload.name()))
                }
            })
            .collect()
    }

    /// The `golden.json` document, one round per line.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\n  \"schema\": \"interleave-benchmark-golden-v1\",\n  \"seed\": {GOLDEN_SEED},\n  \"workloads\": {{\n"
        );
        for (wi, w) in Workload::ALL.into_iter().enumerate() {
            let _ = writeln!(out, "    {}: [", escape(w.name()));
            let rounds: Vec<_> = self.rounds.range((w, 0)..(w, usize::MAX)).collect();
            for (ri, (_, pinned)) in rounds.iter().enumerate() {
                let entries: Vec<String> =
                    pinned.iter().map(|(l, d)| format!("{}: \"{d:016x}\"", escape(l))).collect();
                let comma = if ri + 1 == rounds.len() { "" } else { "," };
                let _ = writeln!(out, "      {{{}}}{comma}", entries.join(", "));
            }
            let comma = if wi + 1 == Workload::ALL.len() { "" } else { "," };
            let _ = writeln!(out, "    ]{comma}");
        }
        out.push_str("  }\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv64_matches_reference_vectors() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn round_trips_and_flags_mismatches() {
        let mut golden = Golden::default();
        for w in Workload::ALL {
            golden.insert(w, 0, &vec![("a".into(), 1), ("b".into(), 2)]);
        }
        let dir = std::env::temp_dir().join(format!("ilv-golden-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("golden.json");
        std::fs::write(&path, golden.to_json()).unwrap();
        let back = Golden::load(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(back, golden);
        let w = Workload::UniMixes;
        assert!(back.check(w, ROUNDS, &vec![("a".into(), 1)]).is_empty(), "rounds wrap");
        assert_eq!(back.check(w, 0, &vec![("a".into(), 9), ("c".into(), 3)]).len(), 2);
        assert_eq!(back.check(w, 1, &vec![("a".into(), 1)]).len(), 1, "unpinned round");
    }
}
