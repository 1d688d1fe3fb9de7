//! Folds shard sweep artifacts back into the canonical single-process
//! documents.
//!
//! A sharded sweep writes `BENCH_<name>.shard<K>of<N>.json` /
//! `METRICS_<name>.shard<K>of<N>.json` per shard, each cell row stamped
//! with its canonical `grid_index`. Because every cell row is exactly
//! one line in both documents (see [`crate::SweepResult::to_json`] and
//! `metrics_json`), merging is deterministic line splicing: validate
//! that the shard set is complete and covering, sort the raw cell lines
//! by grid index, and reassemble them under the canonical (unsharded)
//! header. No value is ever re-parsed and re-formatted, so the merged
//! `METRICS` document is byte-identical to a single-process sweep's by
//! construction, and the merged `BENCH` document is identical after the
//! volatile host keys (`unix_timestamp`, `jobs`, `wall_ms`,
//! `sim_cycles_per_sec`) are stripped — the exact contract
//! `scripts/determinism_gate.sh` enforces and
//! `tests/sweep_determinism.rs` pins in-process.

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

use interleave_obs::json;

/// Why a shard set could not be merged. The message names the offending
/// files so CI logs are actionable.
#[derive(Debug)]
pub struct MergeError(pub String);

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "merge error: {}", self.0)
    }
}

impl std::error::Error for MergeError {}

/// One merged sweep: the reassembled canonical documents for one
/// artifact name.
#[derive(Debug)]
pub struct MergedSweep {
    /// Artifact name (`table7`, ...).
    pub artifact: String,
    /// Shards folded in.
    pub shards: usize,
    /// Total grid cells across all shards.
    pub grid_cells: usize,
    /// The canonical `BENCH_<artifact>.json` document.
    pub bench: String,
    /// The canonical `METRICS_<artifact>.json` document.
    pub metrics: String,
}

impl MergedSweep {
    /// Writes `BENCH_<artifact>.json` and `METRICS_<artifact>.json` into
    /// `dir`, returning both paths.
    pub fn write(&self, dir: &Path) -> std::io::Result<(PathBuf, PathBuf)> {
        std::fs::create_dir_all(dir)?;
        let bench = dir.join(format!("BENCH_{}.json", self.artifact));
        std::fs::write(&bench, &self.bench)?;
        let metrics = dir.join(format!("METRICS_{}.json", self.artifact));
        std::fs::write(&metrics, &self.metrics)?;
        Ok((bench, metrics))
    }
}

/// One parsed shard document (either kind).
struct ShardDoc {
    path: PathBuf,
    index: usize,
    count: usize,
    scale: String,
    grid_cells: usize,
    /// Raw cell lines (comma-stripped), keyed by grid index.
    cells: BTreeMap<usize, String>,
    /// Summed simulated cycles of the shard's cells (BENCH only).
    sim_cycles: u64,
    /// Header `jobs` (BENCH only).
    jobs: u64,
    /// Header `wall_ms` (BENCH only).
    wall_ms: u64,
}

/// Scans `dirs` for shard artifacts and merges every complete set
/// found, sorted by artifact name. Errors if no shard artifacts exist,
/// if a shard set is incomplete or inconsistent, or if a shard's
/// `METRICS` counterpart is missing.
pub fn merge_dirs(dirs: &[PathBuf]) -> Result<Vec<MergedSweep>, MergeError> {
    // artifact name -> (shard label -> BENCH path)
    let mut groups: BTreeMap<String, Vec<(PathBuf, usize, usize)>> = BTreeMap::new();
    for dir in dirs {
        let entries = std::fs::read_dir(dir)
            .map_err(|e| MergeError(format!("cannot read {}: {e}", dir.display())))?;
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            if let Some((artifact, k, n)) = parse_shard_file_name(&name, "BENCH_") {
                groups.entry(artifact).or_default().push((entry.path(), k, n));
            }
        }
    }
    if groups.is_empty() {
        return Err(MergeError(format!(
            "no shard artifacts (BENCH_<name>.shard<K>of<N>.json) found under: {}",
            dirs.iter().map(|d| d.display().to_string()).collect::<Vec<_>>().join(", ")
        )));
    }
    groups.into_iter().map(|(artifact, shards)| merge_group(&artifact, shards)).collect()
}

/// `BENCH_table7.shard2of4.json` -> `("table7", 2, 4)`.
fn parse_shard_file_name(name: &str, prefix: &str) -> Option<(String, usize, usize)> {
    let stem = name.strip_prefix(prefix)?.strip_suffix(".json")?;
    let (artifact, shard) = stem.rsplit_once(".shard")?;
    let (k, n) = shard.split_once("of")?;
    let k = k.parse::<usize>().ok()?;
    let n = n.parse::<usize>().ok()?;
    (!artifact.is_empty() && k >= 1 && k <= n).then(|| (artifact.to_string(), k, n))
}

fn merge_group(
    artifact: &str,
    shards: Vec<(PathBuf, usize, usize)>,
) -> Result<MergedSweep, MergeError> {
    let count = shards[0].2;
    let mut bench_docs: Vec<ShardDoc> = Vec::new();
    let mut metrics_docs: Vec<ShardDoc> = Vec::new();
    for (bench_path, k, n) in &shards {
        if *n != count {
            return Err(MergeError(format!(
                "{artifact}: mixed shard counts ({n} vs {count}) — artifacts from different \
                 sweep configurations cannot merge"
            )));
        }
        let metrics_path = bench_path
            .parent()
            .unwrap_or_else(|| Path::new("."))
            .join(format!("METRICS_{artifact}.shard{k}of{n}.json"));
        if !metrics_path.exists() {
            return Err(MergeError(format!(
                "{}: missing METRICS counterpart {}",
                bench_path.display(),
                metrics_path.display()
            )));
        }
        bench_docs.push(read_shard(bench_path, artifact, *k, count)?);
        metrics_docs.push(read_shard(&metrics_path, artifact, *k, count)?);
    }
    for docs in [&mut bench_docs, &mut metrics_docs] {
        docs.sort_by_key(|d| d.index);
        validate_set(artifact, docs, count)?;
    }
    let grid_cells = bench_docs[0].grid_cells;
    Ok(MergedSweep {
        artifact: artifact.to_string(),
        shards: count,
        grid_cells,
        bench: render_bench(artifact, &bench_docs, grid_cells),
        metrics: render_metrics(artifact, &metrics_docs, grid_cells),
    })
}

/// Parses one shard document: header fields for validation, raw cell
/// lines for splicing.
fn read_shard(path: &Path, artifact: &str, k: usize, n: usize) -> Result<ShardDoc, MergeError> {
    let fail = |msg: String| MergeError(format!("{}: {msg}", path.display()));
    let text = std::fs::read_to_string(path).map_err(|e| fail(format!("cannot read: {e}")))?;
    let doc = json::parse(&text).map_err(|e| fail(format!("not valid JSON: {e}")))?;
    let header_str = |key: &str| {
        doc.get(key)
            .and_then(|v| v.as_str())
            .map(str::to_string)
            .ok_or_else(|| fail(format!("missing {key:?} header")))
    };
    let header_u64 = |key: &str| {
        doc.get(key).and_then(|v| v.as_u64()).ok_or_else(|| fail(format!("missing {key:?} header")))
    };
    if header_str("artifact")? != artifact {
        return Err(fail(format!("embedded artifact does not match file name {artifact:?}")));
    }
    let shard = doc.get("shard").ok_or_else(|| {
        fail("no \"shard\" header — this is an unsharded artifact; nothing to merge".into())
    })?;
    let (index, count) = (
        shard.get("index").and_then(|v| v.as_u64()).unwrap_or(0) as usize,
        shard.get("count").and_then(|v| v.as_u64()).unwrap_or(0) as usize,
    );
    if (index, count) != (k, n) {
        return Err(fail(format!(
            "embedded shard {index}/{count} does not match file name {k}/{n}"
        )));
    }
    let mut cells = BTreeMap::new();
    let mut sim_cycles = 0u64;
    for line in text.lines() {
        if !line.trim_start().starts_with("{\"grid_index\":") {
            continue;
        }
        let row = line.trim_start();
        let row = row.strip_suffix(',').unwrap_or(row);
        let parsed = json::parse(row).map_err(|e| fail(format!("unparsable cell row: {e}")))?;
        let gi = parsed
            .get("grid_index")
            .and_then(|v| v.as_u64())
            .ok_or_else(|| fail("cell row without grid_index".into()))? as usize;
        sim_cycles += parsed.get("cycles").and_then(|v| v.as_u64()).unwrap_or(0);
        if cells.insert(gi, row.to_string()).is_some() {
            return Err(fail(format!("duplicate grid_index {gi}")));
        }
    }
    Ok(ShardDoc {
        path: path.to_path_buf(),
        index,
        count,
        scale: header_str("scale")?,
        grid_cells: header_u64("grid_cells")? as usize,
        cells,
        sim_cycles,
        jobs: doc.get("jobs").and_then(|v| v.as_u64()).unwrap_or(0),
        wall_ms: doc.get("wall_ms").and_then(|v| v.as_u64()).unwrap_or(0),
    })
}

/// Checks a sorted shard set is exactly `1..=count`, mutually
/// consistent, and covers the grid with no gaps or overlaps.
fn validate_set(artifact: &str, docs: &[ShardDoc], count: usize) -> Result<(), MergeError> {
    let indices: Vec<usize> = docs.iter().map(|d| d.index).collect();
    let expected: Vec<usize> = (1..=count).collect();
    if indices != expected {
        return Err(MergeError(format!(
            "{artifact}: incomplete shard set — have {indices:?}, need every shard in 1..={count}"
        )));
    }
    let first = &docs[0];
    for doc in docs {
        if doc.scale != first.scale || doc.grid_cells != first.grid_cells || doc.count != count {
            return Err(MergeError(format!(
                "{}: header disagrees with {} (scale/grid_cells/shard count)",
                doc.path.display(),
                first.path.display()
            )));
        }
        let expected: Vec<usize> = (doc.index - 1..doc.grid_cells).step_by(count.max(1)).collect();
        let got: Vec<usize> = doc.cells.keys().copied().collect();
        if got != expected {
            return Err(MergeError(format!(
                "{}: cell coverage {got:?} is not the canonical slice for shard {}/{count}",
                doc.path.display(),
                doc.index
            )));
        }
    }
    Ok(())
}

/// All cell lines of a shard set in ascending grid order, with the
/// canonical trailing commas re-applied.
fn spliced_cells(docs: &[ShardDoc]) -> Vec<String> {
    let mut rows: BTreeMap<usize, &str> = BTreeMap::new();
    for doc in docs {
        for (&gi, row) in &doc.cells {
            rows.insert(gi, row);
        }
    }
    let total = rows.len();
    rows.into_values()
        .enumerate()
        .map(|(i, row)| format!("{row}{}", if i + 1 < total { "," } else { "" }))
        .collect()
}

/// Reassembles the canonical `BENCH` document. Header layout must stay
/// in lockstep with [`crate::SweepResult::to_json`]: after stripping
/// the volatile keys the two renderings are byte-identical.
fn render_bench(artifact: &str, docs: &[ShardDoc], grid_cells: usize) -> String {
    let timestamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let total_sim_cycles: u64 = docs.iter().map(|d| d.sim_cycles).sum();
    // Aggregate host numbers: the compute the shard fleet actually
    // spent. All volatile keys, stripped before any byte comparison.
    let jobs: u64 = docs.iter().map(|d| d.jobs).sum();
    let wall_ms: u64 = docs.iter().map(|d| d.wall_ms).sum();
    let rate = if wall_ms > 0 { total_sim_cycles as f64 / (wall_ms as f64 / 1000.0) } else { 0.0 };
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"artifact\": \"{artifact}\",\n"));
    out.push_str(&format!("  \"unix_timestamp\": {timestamp},\n"));
    out.push_str(&format!("  \"scale\": \"{}\",\n", docs[0].scale));
    out.push_str(&format!("  \"grid_cells\": {grid_cells},\n"));
    out.push_str(&format!("  \"jobs\": {jobs},\n"));
    out.push_str(&format!("  \"wall_ms\": {wall_ms},\n"));
    out.push_str(&format!("  \"total_sim_cycles\": {total_sim_cycles},\n"));
    out.push_str(&format!("  \"sim_cycles_per_sec\": {rate:.1},\n"));
    out.push_str("  \"cells\": [\n");
    for row in spliced_cells(docs) {
        out.push_str(&format!("    {row}\n"));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Reassembles the canonical `METRICS` document — byte-identical to a
/// single-process sweep's `metrics_json`, so the determinism gate can
/// compare them with plain `cmp`.
fn render_metrics(artifact: &str, docs: &[ShardDoc], grid_cells: usize) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"artifact\": \"{artifact}\",\n"));
    out.push_str(&format!("  \"scale\": \"{}\",\n", docs[0].scale));
    out.push_str(&format!("  \"grid_cells\": {grid_cells},\n"));
    out.push_str("  \"cells\": [\n");
    for row in spliced_cells(docs) {
        out.push_str(&format!("    {row}\n"));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_file_names_parse() {
        assert_eq!(
            parse_shard_file_name("BENCH_table7.shard2of4.json", "BENCH_"),
            Some(("table7".to_string(), 2, 4))
        );
        assert_eq!(
            parse_shard_file_name("METRICS_a.b.shard1of1.json", "METRICS_"),
            Some(("a.b".to_string(), 1, 1))
        );
        for bad in [
            "BENCH_table7.json",
            "BENCH_table7.shard0of4.json",
            "BENCH_table7.shard5of4.json",
            "BENCH_table7.shardxofy.json",
            "METRICS_table7.shard1of4.json",
            "BENCH_.shard1of2.json",
        ] {
            assert_eq!(parse_shard_file_name(bad, "BENCH_"), None, "{bad}");
        }
    }

    #[test]
    fn empty_dir_is_a_clear_error() {
        let dir = std::env::temp_dir().join(format!("ilv_merge_empty_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let err = merge_dirs(std::slice::from_ref(&dir)).unwrap_err();
        assert!(err.to_string().contains("no shard artifacts"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
