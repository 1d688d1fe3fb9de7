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
//! 1. **Keying.** The file name is an FNV-1a hash of
//!    [`crate::ExperimentSpec::cell_descriptor`] — the *resolved*
//!    result-affecting configuration (scale defaults folded in) plus the
//!    cell coordinates, salted with the crate version. An entry is only
//!    ever reused for a cell that is guaranteed to produce the identical
//!    result; host-throughput knobs proven bit-invisible (`idle_skip`,
//!    `adaptive`, `mp_jobs`, worker counts) are excluded, so entries
//!    survive across them.
//! 2. **Atomicity.** Files are written to a temp name unique to the
//!    process and the call, then renamed into place, so a sweep killed mid-write never leaves a
//!    torn entry — the next run recomputes that cell.
//! 3. **Exactness.** The serialization round-trips every field of the
//!    result bit-for-bit (histograms and registries via their exact
//!    `from_value` reconstructions; the one `f64`, `avg_mlp`, as its IEEE
//!    bit pattern), so a resumed sweep's artifacts are byte-identical to
//!    an uninterrupted run's, and a cached response byte-equals a fresh
//!    run — enforced by `tests/sweep_determinism.rs` and the resume and
//!    serve smokes in `scripts/check.sh`.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use interleave_mem::MemStats;
use interleave_mp::{DirectoryStats, MpResult};
use interleave_obs::json::{self, Value};
use interleave_obs::{Histogram, Registry};
use interleave_stats::{Breakdown, Category};
use interleave_workloads::MultiprogramResult;

use crate::runner::{Cell, CellResult, ExperimentSpec};

/// Schema tag written into (and required of) every checkpoint file.
const SCHEMA: &str = "interleave-checkpoint-v1";

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

/// The checkpoint key for one cell of a spec.
pub fn cell_key(spec: &ExperimentSpec, cell: &Cell) -> u64 {
    fnv1a64(&spec.cell_descriptor(cell))
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

    /// The entry path for one cell of a spec.
    fn cell_path(&self, spec: &ExperimentSpec, cell: &Cell) -> PathBuf {
        self.dir.join(format!("CELL_{:016x}.json", cell_key(spec, cell)))
    }

    /// Restores a cell's result when a valid entry for its resolved
    /// configuration exists, counting a hit; counts a miss otherwise. A
    /// file that exists but fails validation is reported on stderr and
    /// ignored — the cell recomputes.
    pub fn load(&self, spec: &ExperimentSpec, cell: &Cell) -> Option<CellResult> {
        let path = self.cell_path(spec, cell);
        let result = std::fs::read_to_string(&path).ok().and_then(|text| {
            let parsed = parse(&text, spec, cell);
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
        let path = self.cell_path(spec, cell);
        let seq = STORE_SEQ.fetch_add(1, Ordering::Relaxed);
        let tmp = path.with_extension(format!("json.tmp.{}.{seq}", std::process::id()));
        std::fs::write(&tmp, to_json(spec, cell, result))?;
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

/// Serializes one cell result as the checkpoint document.
fn to_json(spec: &ExperimentSpec, cell: &Cell, result: &CellResult) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
    out.push_str(&format!("  \"key\": \"{:016x}\",\n", cell_key(spec, cell)));
    // The pre-hash descriptor, for post-mortem inspection of what a
    // checkpoint was keyed on. Never read back (the key alone decides
    // reuse).
    out.push_str(&format!("  \"descriptor\": {},\n", json::escape(&spec.cell_descriptor(cell))));
    out.push_str(&format!("  \"target\": {},\n", json::escape(cell.target.name())));
    out.push_str(&format!("  \"scheme\": \"{}\",\n", cell.scheme.name()));
    out.push_str(&format!("  \"contexts\": {},\n", cell.contexts));
    let seed = cell.seed.map(|s| s.to_string()).unwrap_or_else(|| "null".into());
    out.push_str(&format!("  \"seed\": {seed},\n"));
    match result {
        CellResult::Uni(r) => {
            out.push_str("  \"kind\": \"uni\",\n");
            out.push_str(&format!("  \"cycles\": {},\n", r.cycles));
            out.push_str(&format!("  \"breakdown\": {},\n", breakdown_json(&r.breakdown)));
            out.push_str(&format!("  \"instructions\": {},\n", r.instructions));
            out.push_str(&format!("  \"mem_stats\": {},\n", mem_stats_json(&r.mem_stats)));
            out.push_str(&format!("  \"run_lengths\": {},\n", hist_json(&r.run_lengths)));
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

/// Parses and validates a checkpoint document for the given cell.
fn parse(text: &str, spec: &ExperimentSpec, cell: &Cell) -> Option<CellResult> {
    let doc = json::parse(text).ok()?;
    if doc.get("schema")?.as_str()? != SCHEMA {
        return None;
    }
    // The key check is what actually gates reuse (it hashes the full
    // resolved configuration); the coordinate checks are a cheap
    // cross-check against hash collisions between grid neighbors.
    if doc.get("key")?.as_str()? != format!("{:016x}", cell_key(spec, cell)) {
        return None;
    }
    if doc.get("target")?.as_str()? != cell.target.name()
        || doc.get("scheme")?.as_str()? != cell.scheme.name()
        || doc.get("contexts")?.as_u64()? != cell.contexts as u64
    {
        return None;
    }
    match (doc.get("seed")?, cell.seed) {
        (Value::Null, None) => {}
        (v, Some(s)) if v.as_u64() == Some(s) => {}
        _ => return None,
    }
    let cycles = doc.get("cycles")?.as_u64()?;
    let breakdown = breakdown_from_value(doc.get("breakdown")?)?;
    let metrics = Registry::from_value(doc.get("metrics")?)?;
    match doc.get("kind")?.as_str()? {
        "uni" => Some(CellResult::Uni(Box::new(MultiprogramResult {
            cycles,
            breakdown,
            mem_stats: mem_stats_from_value(doc.get("mem_stats")?)?,
            instructions: doc.get("instructions")?.as_u64()?,
            run_lengths: Histogram::from_value(doc.get("run_lengths")?)?,
            metrics,
        }))),
        "mp" => {
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

/// Field order here is the (stable) serialization contract; the parser
/// looks fields up by name, so reordering would stay compatible.
const MEM_STAT_FIELDS: [&str; 9] = [
    "l1d_hits",
    "l1d_misses",
    "l1i_hits",
    "l1i_misses",
    "l2_hits",
    "l2_misses",
    "dtlb_misses",
    "itlb_misses",
    "writebacks",
];

fn mem_stats_json(m: &MemStats) -> String {
    let vals = [
        m.l1d_hits,
        m.l1d_misses,
        m.l1i_hits,
        m.l1i_misses,
        m.l2_hits,
        m.l2_misses,
        m.dtlb_misses,
        m.itlb_misses,
        m.writebacks,
    ];
    let fields: Vec<String> =
        MEM_STAT_FIELDS.iter().zip(vals).map(|(name, v)| format!("\"{name}\": {v}")).collect();
    format!("{{{}}}", fields.join(", "))
}

fn mem_stats_from_value(v: &Value) -> Option<MemStats> {
    Some(MemStats {
        l1d_hits: v.get("l1d_hits")?.as_u64()?,
        l1d_misses: v.get("l1d_misses")?.as_u64()?,
        l1i_hits: v.get("l1i_hits")?.as_u64()?,
        l1i_misses: v.get("l1i_misses")?.as_u64()?,
        l2_hits: v.get("l2_hits")?.as_u64()?,
        l2_misses: v.get("l2_misses")?.as_u64()?,
        dtlb_misses: v.get("dtlb_misses")?.as_u64()?,
        itlb_misses: v.get("itlb_misses")?.as_u64()?,
        writebacks: v.get("writebacks")?.as_u64()?,
    })
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

/// A bare histogram in the registry's histogram JSON shape (exactly
/// reconstructed by [`Histogram::from_value`]).
fn hist_json(h: &Histogram) -> String {
    let buckets: Vec<String> = h
        .nonzero_buckets()
        .map(|(lo, hi, n)| format!("{{\"lo\": {lo}, \"hi\": {hi}, \"n\": {n}}}"))
        .collect();
    format!(
        "{{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"mean\": {:.4}, \
         \"buckets\": [{}]}}",
        h.count(),
        h.sum(),
        h.min(),
        h.max(),
        h.mean(),
        buckets.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{Runner, Scale, Target};
    use interleave_core::StorePolicy;
    use interleave_mp::splash_suite;
    use interleave_mp::LatencyModel;
    use interleave_workloads::mixes;
    use interleave_workloads::OsModel;
    use std::sync::Arc;

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
        let _ = std::fs::remove_dir_all(&dir);
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
        let victim = ResultCache::new(&dir).cell_path(&spec, &spec.cells()[2]);
        std::fs::remove_file(&victim).unwrap();
        let third = Runner::new(2).checkpoint_dir(&dir).run(&spec);
        assert_eq!(third.resumed, third.cells.len() - 1);
        assert!(first.results_match(&third));
        assert_eq!(first.metrics_json(), third.metrics_json());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
