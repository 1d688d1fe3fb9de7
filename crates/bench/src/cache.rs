//! Content-addressed result cache: crash-safe, exactly-reproducing
//! per-cell results keyed by a canonical configuration hash.
//!
//! [`ResultCache`] is the one store type behind both sweep checkpoints
//! (`sweep --checkpoint-dir`) and the `interleave-sim serve` result
//! cache. It writes one `CELL_<key>.json` file per freshly computed cell
//! and restores cells whose file already exists; one handle can be shared
//! across many [`crate::Runner`]s (the serve worker pool hands one
//! `Arc<ResultCache>` to every job) and counts hits/misses so
//! `GET /stats` can report a hit rate. Three properties make reuse safe:
//!
//! 1. **Keying.** A cell's descriptor is the descriptor of the sim that
//!    [`crate::ExperimentSpec::build`] resolves it into, salted with a
//!    format version and the crate version. The sim's descriptor names
//!    every one of its fields in an exhaustive destructure, so every
//!    result-affecting setting is keyed by construction, and the
//!    host-only ones (`idle_skip`, `validate`, `adaptive`, `mp_jobs`) are
//!    left out there by name, so entries survive across them. The file
//!    name is the FNV-1a hash of the descriptor; the file stores the
//!    descriptor itself, and a load requires an exact match, so neither a
//!    hash collision nor a renamed file can serve another configuration.
//! 2. **Atomicity.** Files are written to a temp name unique to the
//!    process and the call, then renamed into place, so a sweep killed mid-write never leaves a
//!    torn entry — the next run recomputes that cell.
//! 3. **Exactness.** The serialization round-trips every field of the
//!    result bit-for-bit (the registry, which holds the memory counters
//!    and run-length histogram, via its exact `from_value`
//!    reconstruction; the one `f64`, `avg_mlp`, as its IEEE bit
//!    pattern), so a resumed sweep's artifacts are byte-identical to
//!    an uninterrupted run's, and a cached response byte-equals a fresh
//!    run — enforced by `tests/sweep_determinism.rs` and the resume and
//!    serve smokes in `scripts/check.sh`.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use interleave_mp::{DirectoryStats, MpResult};
use interleave_obs::json::{self, Value};
use interleave_obs::Registry;
use interleave_stats::{Breakdown, Category};
use interleave_workloads::MultiprogramResult;

use crate::runner::{Cell, CellResult, ExperimentSpec, Target};

/// Schema tag written into (and required of) every checkpoint file.
const SCHEMA: &str = "interleave-checkpoint-v3";

/// Numbers every `store` call of the process, so concurrent stores of
/// one cell never share a temp file.
static STORE_SEQ: AtomicU64 = AtomicU64::new(0);

/// FNV-1a 64-bit hash: tiny, dependency-free, and stable across
/// platforms and releases — exactly what a file-name key needs (this is
/// a cache key, not a security boundary).
fn fnv1a64(data: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in data.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Everything that determines one cell's result: the built sim's
/// descriptor, salted with the descriptor format and crate versions.
fn descriptor(spec: &ExperimentSpec, cell: &Cell) -> String {
    let sim = spec.build(cell).descriptor();
    format!("interleave-cell-v3 crate={} {sim}", env!("CARGO_PKG_VERSION"))
}

/// The checkpoint key for one cell of a spec.
pub fn cell_key(spec: &ExperimentSpec, cell: &Cell) -> u64 {
    fnv1a64(&descriptor(spec, cell))
}

/// A content-addressed store of per-cell results with hit/miss counters.
///
/// Thread-safe: `load`/`store` take `&self`, so one cache can back any
/// number of concurrent runners (atomicity of the file writes makes
/// concurrent stores of the same key safe — last rename wins, and every
/// candidate is bit-identical anyway).
pub struct ResultCache {
    dir: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl std::fmt::Debug for ResultCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResultCache")
            .field("dir", &self.dir)
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .finish()
    }
}

impl ResultCache {
    /// A cache rooted at `dir` (created lazily on first store).
    pub fn new(dir: impl Into<PathBuf>) -> ResultCache {
        ResultCache { dir: dir.into(), hits: AtomicU64::new(0), misses: AtomicU64::new(0) }
    }

    /// The entry path for a cell descriptor.
    fn path(&self, descriptor: &str) -> PathBuf {
        self.dir.join(format!("CELL_{:016x}.json", fnv1a64(descriptor)))
    }

    /// Restores a cell's result when a valid entry for its resolved
    /// configuration exists, counting a hit; counts a miss otherwise. A
    /// file that exists but fails validation is reported on stderr and
    /// ignored — the cell recomputes.
    pub fn load(&self, spec: &ExperimentSpec, cell: &Cell) -> Option<CellResult> {
        let descriptor = descriptor(spec, cell);
        let path = self.path(&descriptor);
        let result = std::fs::read_to_string(&path).ok().and_then(|text| {
            let parsed = parse(&text, &descriptor, matches!(cell.target, Target::Uni(_)));
            if parsed.is_none() {
                eprintln!(
                    "warning: ignoring invalid checkpoint {} (recomputing cell)",
                    path.display()
                );
            }
            parsed
        });
        match result {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        result
    }

    /// Stores a freshly computed cell result (write-to-temp then rename;
    /// the temp name carries the pid and a per-call number, so parallel
    /// shards sharing a directory and threads sharing this cache never
    /// trample each other mid-write). Returns the final path.
    pub fn store(
        &self,
        spec: &ExperimentSpec,
        cell: &Cell,
        result: &CellResult,
    ) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(&self.dir)?;
        let descriptor = descriptor(spec, cell);
        let path = self.path(&descriptor);
        let seq = STORE_SEQ.fetch_add(1, Ordering::Relaxed);
        let tmp = path.with_extension(format!("json.tmp.{}.{seq}", std::process::id()));
        std::fs::write(&tmp, to_json(&descriptor, result))?;
        std::fs::rename(&tmp, &path)?;
        Ok(path)
    }

    /// Loads served from the cache so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Loads that had to be computed fresh so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Fraction of loads served from the cache (0.0 when nothing has
    /// been looked up yet).
    pub fn hit_rate(&self) -> f64 {
        let hits = self.hits() as f64;
        let total = hits + self.misses() as f64;
        if total == 0.0 {
            0.0
        } else {
            hits / total
        }
    }
}

/// Serializes one cell result, with the descriptor it was computed
/// for, as the checkpoint document.
fn to_json(descriptor: &str, result: &CellResult) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
    out.push_str(&format!("  \"descriptor\": {},\n", json::escape(descriptor)));
    match result {
        CellResult::Uni(r) => {
            out.push_str("  \"kind\": \"uni\",\n");
            out.push_str(&format!("  \"cycles\": {},\n", r.cycles));
            out.push_str(&format!("  \"breakdown\": {},\n", breakdown_json(&r.breakdown)));
            out.push_str(&format!("  \"instructions\": {},\n", r.instructions));
            out.push_str(&format!("  \"metrics\": {}\n", r.metrics.to_json_line()));
        }
        CellResult::Mp(r) => {
            out.push_str("  \"kind\": \"mp\",\n");
            out.push_str(&format!("  \"cycles\": {},\n", r.cycles));
            out.push_str(&format!("  \"breakdown\": {},\n", breakdown_json(&r.breakdown)));
            out.push_str(&format!("  \"threads\": {},\n", r.threads));
            // IEEE-754 bit pattern: the generic JSON number path cannot
            // round-trip every f64 exactly, the hex bits can.
            out.push_str(&format!("  \"avg_mlp_bits\": \"{:016x}\",\n", r.avg_mlp.to_bits()));
            out.push_str(&format!("  \"directory\": {},\n", directory_json(&r.directory)));
            let per_node: Vec<String> = r.per_node.iter().map(breakdown_json).collect();
            out.push_str(&format!("  \"per_node\": [{}],\n", per_node.join(", ")));
            out.push_str(&format!("  \"metrics\": {}\n", r.metrics.to_json_line()));
        }
    }
    out.push_str("}\n");
    out
}

/// Parses a checkpoint document, accepting it only if it was computed
/// for exactly `descriptor` and holds a result of the cell's kind.
fn parse(text: &str, descriptor: &str, uni: bool) -> Option<CellResult> {
    let doc = json::parse(text).ok()?;
    if doc.get("schema")?.as_str()? != SCHEMA || doc.get("descriptor")?.as_str()? != descriptor {
        return None;
    }
    let cycles = doc.get("cycles")?.as_u64()?;
    let breakdown = breakdown_from_value(doc.get("breakdown")?)?;
    let metrics = Registry::from_value(doc.get("metrics")?)?;
    match (doc.get("kind")?.as_str()?, uni) {
        ("uni", true) => Some(CellResult::Uni(Box::new(MultiprogramResult {
            cycles,
            breakdown,
            instructions: doc.get("instructions")?.as_u64()?,
            metrics,
        }))),
        ("mp", false) => {
            let bits = u64::from_str_radix(doc.get("avg_mlp_bits")?.as_str()?, 16).ok()?;
            let per_node = doc
                .get("per_node")?
                .as_arr()?
                .iter()
                .map(breakdown_from_value)
                .collect::<Option<Vec<_>>>()?;
            Some(CellResult::Mp(Box::new(MpResult {
                cycles,
                breakdown,
                directory: directory_from_value(doc.get("directory")?)?,
                threads: doc.get("threads")?.as_u64()? as usize,
                avg_mlp: f64::from_bits(bits),
                per_node,
                metrics,
            })))
        }
        _ => None,
    }
}

/// A breakdown as a 7-element array in [`Category::ALL`] order.
fn breakdown_json(b: &Breakdown) -> String {
    let counts: Vec<String> = Category::ALL.iter().map(|&c| b.get(c).to_string()).collect();
    format!("[{}]", counts.join(", "))
}

fn breakdown_from_value(v: &Value) -> Option<Breakdown> {
    let arr = v.as_arr()?;
    if arr.len() != Category::ALL.len() {
        return None;
    }
    let mut b = Breakdown::new();
    for (&category, val) in Category::ALL.iter().zip(arr) {
        b.record(category, val.as_u64()?);
    }
    Some(b)
}

fn directory_json(d: &DirectoryStats) -> String {
    format!(
        "{{\"local\": {}, \"remote\": {}, \"remote_cache\": {}, \"upgrades\": {}, \
         \"invalidations\": {}, \"writebacks\": {}}}",
        d.local, d.remote, d.remote_cache, d.upgrades, d.invalidations, d.writebacks
    )
}

fn directory_from_value(v: &Value) -> Option<DirectoryStats> {
    Some(DirectoryStats {
        local: v.get("local")?.as_u64()?,
        remote: v.get("remote")?.as_u64()?,
        remote_cache: v.get("remote_cache")?.as_u64()?,
        upgrades: v.get("upgrades")?.as_u64()?,
        invalidations: v.get("invalidations")?.as_u64()?,
        writebacks: v.get("writebacks")?.as_u64()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{Runner, Scale};
    use interleave_core::StorePolicy;
    use interleave_mp::splash_suite;
    use interleave_mp::LatencyModel;
    use interleave_workloads::mixes;
    use interleave_workloads::OsModel;
    use proptest::prelude::*;
    use std::ops::Range;
    use std::sync::{Arc, OnceLock};

    fn spec() -> ExperimentSpec {
        named_spec("ckpt")
    }

    fn named_spec(name: &str) -> ExperimentSpec {
        ExperimentSpec::new(name, Scale::Ci)
            .uni(mixes::ic())
            .mp(splash_suite()[0].clone())
            .contexts([2])
            .quota(2_000)
            .work(8_000)
            .warmup(500)
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ilv_cache_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn counts_hits_and_misses() {
        let dir = temp_dir("count");
        let cache = ResultCache::new(&dir);
        let spec = spec();
        let cell = &spec.cells()[0];
        assert!(cache.load(&spec, cell).is_none());
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        assert_eq!(cache.hit_rate(), 0.0);
        let result = spec.run_cell(cell);
        cache.store(&spec, cell, &result).unwrap();
        assert_eq!(cache.load(&spec, cell).as_ref(), Some(&result), "round-trips exactly");
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert!((cache.hit_rate() - 0.5).abs() < 1e-12);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shared_across_runners_dedupes_work() {
        let dir = temp_dir("share");
        let cache = Arc::new(ResultCache::new(&dir));
        let spec = spec();
        let first = Runner::serial().result_cache(Arc::clone(&cache)).run(&spec);
        assert_eq!(first.resumed, 0);
        let second = Runner::serial().result_cache(Arc::clone(&cache)).run(&spec);
        assert_eq!(second.resumed, second.cells.len(), "second runner hits for every cell");
        assert!(first.results_match(&second));
        assert_eq!(cache.hits(), second.cells.len() as u64);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn round_trips_both_kinds_exactly() {
        let spec = spec();
        let dir = temp_dir("rt");
        let cache = ResultCache::new(&dir);
        let sweep = Runner::serial().run(&spec);
        for (cell, result) in &sweep.cells {
            let path = cache.store(&spec, cell, result).expect("checkpoint written");
            assert!(path.exists());
            let restored = cache.load(&spec, cell).expect("checkpoint restores");
            assert_eq!(
                &restored,
                result,
                "{} {} x{}",
                cell.target.name(),
                cell.scheme.name(),
                cell.contexts
            );
        }
        // No temp files left behind.
        let leftovers = std::fs::read_dir(&dir)
            .unwrap()
            .filter(|e| e.as_ref().unwrap().path().to_string_lossy().contains(".tmp."))
            .count();
        assert_eq!(leftovers, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn key_is_stable_and_sensitive() {
        let spec1 = spec();
        let cells = spec1.cells();
        // Stable across invocations (a pure function of the descriptor).
        assert_eq!(cell_key(&spec1, &cells[0]), cell_key(&spec1, &cells[0]));
        // Distinct cells get distinct keys.
        let keys: std::collections::BTreeSet<u64> =
            cells.iter().map(|c| cell_key(&spec1, c)).collect();
        assert_eq!(keys.len(), cells.len());
        // The key of the first uni cell and of the first mp cell.
        let key = |s: &ExperimentSpec, uni: bool| {
            let cells = s.cells();
            let cell = cells.iter().find(|c| matches!(c.target, Target::Uni(_)) == uni).unwrap();
            cell_key(s, cell)
        };
        // (setting, target kind it affects, spec with it changed, changes
        // the key?), each against `spec1` — the seed against another seed.
        let other_os = OsModel { affinity_slices: 4, ..OsModel::scaled() };
        let far = LatencyModel { remote: (90, 140), ..LatencyModel::dash_like() };
        let cases = [
            ("quota", true, spec().quota(2_001), true),
            ("uni warmup", true, spec().warmup(501), true),
            ("os", true, spec().os(other_os), true),
            ("btb_entries", true, spec().btb_entries(64), true),
            ("store_policy", true, spec().store_policy(StorePolicy::WriteBuffer), true),
            ("nodes", false, spec().nodes(2), true),
            ("work", false, spec().work(8_001), true),
            ("mp warmup", false, spec().warmup(501), true),
            ("latency", false, spec().latency(far), true),
            // An override equal to the sim's own default resolves to the
            // same configuration, so it shares the key.
            ("btb_entries default", true, spec().btb_entries(2048), false),
            ("store_policy default", true, spec().store_policy(StorePolicy::SwitchOnMiss), false),
            ("uni seed default", true, spec().seeds([0x1994_0501]), false),
            ("latency default", false, spec().latency(LatencyModel::dash_like()), false),
            ("mp seed default", false, spec().seeds([0x1994_1004]), false),
            // Bit-invisible settings leave the key alone, so checkpoints
            // stay reusable across them.
            ("idle_skip", true, spec().idle_skip(false), false),
            ("adaptive", false, spec().adaptive(false), false),
            ("mp_jobs", false, spec().mp_jobs(4), false),
            ("uni name", true, named_spec("other"), false),
            ("mp name", false, named_spec("other"), false),
        ];
        for (setting, uni, changed, moves) in cases {
            assert_eq!(key(&spec1, uni) != key(&changed, uni), moves, "{setting}");
        }
        for uni in [true, false] {
            let (seven, eight) = (spec().seeds([7]), spec().seeds([8]));
            assert_ne!(key(&seven, uni), key(&eight, uni), "seed (uni: {uni})");
        }
    }

    /// Threads sharing one cache (as the serve daemon's workers do) may
    /// store the same cell at once; every store must succeed and leave a
    /// loadable entry.
    #[test]
    fn concurrent_stores_of_one_cell_all_succeed() {
        let dir = temp_dir("race");
        let cache = ResultCache::new(&dir);
        let spec = spec();
        let cell = &spec.cells()[0];
        let result = spec.run_cell(cell);
        let start = std::sync::Barrier::new(8);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    start.wait();
                    for _ in 0..200 {
                        cache.store(&spec, cell, &result).expect("store succeeds");
                    }
                });
            }
        });
        assert_eq!(cache.load(&spec, cell).as_ref(), Some(&result));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mismatched_or_corrupt_checkpoints_are_ignored() {
        let spec1 = spec();
        let dir = temp_dir("bad");
        let cells = spec1.cells();
        let cache = ResultCache::new(&dir);
        let result = spec1.run_cell(&cells[0]);
        let path = cache.store(&spec1, &cells[0], &result).unwrap();
        // A different config hashes to a different file: nothing loads.
        let requota = spec().quota(2_001);
        assert!(cache.load(&requota, &requota.cells()[0]).is_none());
        // Corrupt file: ignored, not a panic.
        std::fs::write(&path, "{ not json").unwrap();
        assert!(cache.load(&spec1, &cells[0]).is_none());
        // Wrong-schema file: ignored.
        std::fs::write(&path, "{\"schema\": \"other\"}").unwrap();
        assert!(cache.load(&spec1, &cells[0]).is_none());
        // A v1-shaped file (the old schema, with the key and coordinate
        // fields) under the cell's name: ignored, and the cell recomputes.
        let v1_fields = format!(
            "  \"key\": \"{:016x}\",\n  \"target\": \"IC\",\n  \"scheme\": \"single\",\n  \
             \"contexts\": 1,\n  \"seed\": null,\n  \"descriptor\"",
            cell_key(&spec1, &cells[0])
        );
        let v1 = to_json(&descriptor(&spec1, &cells[0]), &result)
            .replacen(SCHEMA, "interleave-checkpoint-v1", 1)
            .replacen("  \"descriptor\"", &v1_fields, 1);
        std::fs::write(&path, v1).unwrap();
        assert!(cache.load(&spec1, &cells[0]).is_none());
        // A v2-shaped file (memory counters and run-length histogram
        // stored again beside the registry that holds them): ignored.
        let v2_fields = "  \"mem_stats\": {\"l1d_hits\": 1, \"l1d_misses\": 0, \"l1i_hits\": 1, \
                         \"l1i_misses\": 0, \"l2_hits\": 0, \"l2_misses\": 0, \"dtlb_misses\": 0, \
                         \"itlb_misses\": 0, \"writebacks\": 0},\n  \"run_lengths\": {\"count\": 0, \
                         \"sum\": 0, \"min\": 0, \"max\": 0, \"mean\": 0.0000, \"buckets\": []},\n  \
                         \"metrics\"";
        let v2 = to_json(&descriptor(&spec1, &cells[0]), &result)
            .replacen(SCHEMA, "interleave-checkpoint-v2", 1)
            .replacen("interleave-cell-v3", "interleave-cell-v2", 1)
            .replacen("  \"metrics\"", v2_fields, 1);
        assert!(v2.contains("\"mem_stats\"") && v2.contains("interleave-cell-v2"));
        std::fs::write(&path, v2).unwrap();
        assert!(cache.load(&spec1, &cells[0]).is_none());
        let rerun = Runner::serial().checkpoint_dir(&dir).run(&spec1);
        assert_eq!(rerun.resumed, 0);
        assert_eq!(cache.load(&spec1, &cells[0]).as_ref(), Some(&result), "rewritten as v3");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A cell, its valid checkpoint document, and the byte spans of the
    /// document's `schema` and `descriptor` values.
    type ValidDoc = (Cell, Vec<u8>, [Range<usize>; 2]);

    /// The [`ValidDoc`]s of the first uni and the first mp cell of
    /// [`spec`].
    fn valid_docs() -> &'static [ValidDoc] {
        static DOCS: OnceLock<Vec<ValidDoc>> = OnceLock::new();
        DOCS.get_or_init(|| {
            let spec = spec();
            let cells = spec.cells();
            let uni = cells.iter().find(|c| matches!(c.target, Target::Uni(_)));
            let mp = cells.iter().find(|c| matches!(c.target, Target::Mp(_)));
            [uni, mp]
                .map(|cell| {
                    let cell = cell.expect("spec has both kinds").clone();
                    let doc = to_json(&descriptor(&spec, &cell), &spec.run_cell(&cell));
                    let value = |member: &str| {
                        let start =
                            doc.find(&format!("\"{member}\": ")).unwrap() + member.len() + 4;
                        start..start + doc[start..].find(",\n").unwrap()
                    };
                    let spans = [value("schema"), value("descriptor")];
                    (cell, doc.into_bytes(), spans)
                })
                .into()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Truncated, flipped and spliced checkpoints load as `None` or
        /// a result, never a panic, and any change to the `schema` or
        /// `descriptor` value is rejected.
        #[test]
        fn mutated_checkpoints_never_panic_and_never_pass_a_changed_descriptor(
            which in 0usize..2,
            mutation in 0u8..3,
            (a, b) in (any::<u64>(), any::<u64>()),
            (mask, len) in (1u8..=255, 1usize..64),
        ) {
            let (cell, doc, spans) = &valid_docs()[which];
            let (a, b) = (a as usize % doc.len(), b as usize % doc.len());
            let mut mutated = doc.clone();
            match mutation {
                0 => mutated.truncate(a),
                1 => mutated[a] ^= mask,
                _ => {
                    // Overwrite `len` bytes at `a` with the bytes at `b`:
                    // offsets stay put, so a value span compares in place.
                    let len = len.min(doc.len() - a).min(doc.len() - b);
                    mutated[a..a + len].copy_from_slice(&doc[b..b + len]);
                }
            }
            let spec = spec();
            let dir = temp_dir(&format!("fuzz_{which}"));
            let cache = ResultCache::new(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(cache.path(&descriptor(&spec, cell)), &mutated).unwrap();
            let loaded = cache.load(&spec, cell);
            let touched =
                spans.iter().any(|span| mutated.get(span.clone()) != Some(&doc[span.clone()]));
            prop_assert!(!(touched && loaded.is_some()), "{mutation} at {a} (from {b}) loaded");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn runner_resumes_from_checkpoints() {
        let spec = spec();
        let dir = temp_dir("resume");
        let first = Runner::serial().checkpoint_dir(&dir).run(&spec);
        assert_eq!(first.resumed, 0);
        let second = Runner::serial().checkpoint_dir(&dir).run(&spec);
        assert_eq!(second.resumed, second.cells.len(), "every cell restores");
        assert!(first.results_match(&second));
        assert_eq!(first.metrics_json(), second.metrics_json());
        // Partial resume: drop one checkpoint, rerun — exactly one cell
        // recomputes and the artifacts still match.
        let victim = ResultCache::new(&dir).path(&descriptor(&spec, &spec.cells()[2]));
        std::fs::remove_file(&victim).unwrap();
        let third = Runner::new(2).checkpoint_dir(&dir).run(&spec);
        assert_eq!(third.resumed, third.cells.len() - 1);
        assert!(first.results_match(&third));
        assert_eq!(first.metrics_json(), third.metrics_json());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The in-process twin of the resume smoke in `scripts/check.sh`: a
    /// directory holding one valid checkpoint and a torn temp file of
    /// another cell (a store killed before its rename) resumes exactly
    /// the checkpointed cell and recomputes the torn one.
    #[test]
    fn one_checkpoint_beside_a_torn_temp_file_resumes_one_cell() {
        let spec = spec();
        let cells = spec.cells();
        let dir = temp_dir("torn");
        let fresh = Runner::serial().run(&spec);
        let cache = ResultCache::new(&dir);
        let kept = cache.store(&spec, &cells[1], &fresh.cells[1].1).unwrap();
        let torn_doc = to_json(&descriptor(&spec, &cells[0]), &fresh.cells[0].1);
        let torn = cache.path(&descriptor(&spec, &cells[0])).with_extension("json.tmp.1.0");
        std::fs::write(&torn, &torn_doc[..torn_doc.len() / 2]).unwrap();
        let resumed = Runner::serial().checkpoint_dir(&dir).run(&spec);
        assert_eq!(resumed.resumed, 1, "only {} restores", kept.display());
        assert!(resumed.results_match(&fresh));
        assert_eq!(resumed.metrics_json(), fresh.metrics_json());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
