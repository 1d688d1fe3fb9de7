//! `compare A B`: the two medians, spreads and a verdict for every
//! end-to-end metric × workload, judged by the bounds in
//! `BENCHMARK.json`. Each side is a `results.json` or a directory of
//! them (one per run); with several runs a side's median and quartiles
//! are taken over the runs' values, with one over its rounds.

use std::path::{Path, PathBuf};

use interleave_obs::json::{self, Value};

use crate::stats::{median, quartiles};
use crate::Workload;

/// An end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

fn benchmark_json() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("BENCHMARK.json")
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The `end_to_end` entries of `BENCHMARK.json`.
pub fn declared(doc: &Value) -> Result<Vec<Declared>, String> {
    let text = |m: &Value, key: &str| m.get(key).and_then(Value::as_str).map(str::to_string);
    let entries =
        doc.get("end_to_end").and_then(Value::as_arr).ok_or("BENCHMARK.json: no `end_to_end`")?;
    let mut e2e = Vec::new();
    for m in entries {
        e2e.push(Declared {
            name: text(m, "name").ok_or("end_to_end entry without a name")?,
            unit: text(m, "unit").ok_or("end_to_end entry without a unit")?,
            higher_is_better: text(m, "better").as_deref() == Some("higher"),
            bound: m
                .get("bound")
                .and_then(Value::as_f64)
                .ok_or("end_to_end entry without a bound")?,
        });
    }
    Ok(e2e)
}

/// The results documents of one side.
fn side(path: &Path) -> Result<Vec<Value>, String> {
    if !path.is_dir() {
        return Ok(vec![read_json(path)?]);
    }
    let mut files: Vec<PathBuf> = std::fs::read_dir(path)
        .map_err(|e| format!("read {}: {e}", path.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("{} holds no results", path.display()));
    }
    files.iter().map(|f| read_json(f)).collect()
}

/// Median and quartiles of one metric on one side.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Spread {
    fn relative_iqr(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs()
    }
}

fn spread(docs: &[Value], workload: &str, metric: &str) -> Option<(Spread, Vec<f64>)> {
    let entry = |d: &Value| d.get("workloads")?.get(workload)?.get("metrics")?.get(metric).cloned();
    let values: Vec<f64> = docs.iter().filter_map(|d| entry(d)?.get("value")?.as_f64()).collect();
    let median = median(&values)?;
    let (q1, q3) = match (quartiles(&values), docs) {
        (Some(q), _) => q,
        (None, [only]) => {
            let e = entry(only)?;
            match (e.get("q1").and_then(Value::as_f64), e.get("q3").and_then(Value::as_f64)) {
                (Some(q1), Some(q3)) => (q1, q3),
                _ => (median, median),
            }
        }
        (None, _) => (median, median),
    };
    Some((Spread { median, q1, q3 }, values))
}

/// The verdict on B against A for a metric with `bound`: `unresolved`
/// when either side spreads wider than the bound (unless every B value
/// beats every A value), else by how far B's median moved.
pub fn verdict(metric: &Declared, a: (Spread, &[f64]), b: (Spread, &[f64])) -> &'static str {
    let better = |x: f64, y: f64| if metric.higher_is_better { x > y } else { x < y };
    let change = (b.0.median - a.0.median) / a.0.median.abs();
    let worse_by = if metric.higher_is_better { -change } else { change };
    if a.0.relative_iqr().max(b.0.relative_iqr()) > metric.bound {
        let all_better = b.1.iter().all(|&y| a.1.iter().all(|&x| better(y, x)));
        return if all_better { "better" } else { "unresolved" };
    }
    if worse_by > metric.bound {
        "worse"
    } else if -worse_by > metric.bound {
        "better"
    } else {
        "within-bound"
    }
}

pub fn main(args: &[String]) -> Result<(), String> {
    let [a, b] = args else {
        return Err(
            "usage: interleave-benchmark compare A B (results.json files or directories of them)"
                .into(),
        );
    };
    let (a, b) = (side(Path::new(a))?, side(Path::new(b))?);
    let metrics = declared(&read_json(&benchmark_json())?)?;
    println!(
        "{:<13} {:<19} {:>14} {:>8} {:>14} {:>8} {:>8}  verdict",
        "workload", "metric", "A median", "A iqr", "B median", "B iqr", "change"
    );
    let mut worse = 0;
    for w in Workload::ALL {
        for m in &metrics {
            let (Some(sa), Some(sb)) =
                (spread(&a, w.name(), &m.name), spread(&b, w.name(), &m.name))
            else {
                continue;
            };
            let v = verdict(m, (sa.0, &sa.1), (sb.0, &sb.1));
            worse += usize::from(v == "worse");
            println!(
                "{:<13} {:<19} {:>14.6} {:>7.2}% {:>14.6} {:>7.2}% {:>+7.2}%  {v}",
                w.name(),
                m.name,
                sa.0.median,
                100.0 * sa.0.relative_iqr(),
                sb.0.median,
                100.0 * sb.0.relative_iqr(),
                100.0 * (sb.0.median - sa.0.median) / sa.0.median.abs(),
            );
        }
    }
    if worse > 0 {
        return Err(format!("{worse} metric(s) worse than their bound"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::PER_LAYER;

    fn rate(bound: f64) -> Declared {
        Declared { name: "r".into(), unit: "1/s".into(), higher_is_better: true, bound }
    }

    fn s(median: f64, q1: f64, q3: f64) -> Spread {
        Spread { median, q1, q3 }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let m = rate(0.1);
        let a = s(100.0, 99.0, 101.0);
        assert_eq!(verdict(&m, (a, &[100.0]), (s(95.0, 94.0, 96.0), &[95.0])), "within-bound");
        assert_eq!(verdict(&m, (a, &[100.0]), (s(85.0, 84.0, 86.0), &[85.0])), "worse");
        assert_eq!(verdict(&m, (a, &[100.0]), (s(120.0, 119.0, 121.0), &[120.0])), "better");
        let wide = s(100.0, 80.0, 120.0);
        assert_eq!(
            verdict(&m, (wide, &[80.0, 120.0]), (s(95.0, 94.0, 96.0), &[95.0])),
            "unresolved"
        );
        assert_eq!(
            verdict(&m, (wide, &[80.0, 120.0]), (s(130.0, 129.0, 131.0), &[130.0])),
            "better"
        );
        let latency = Declared { higher_is_better: false, ..rate(0.1) };
        assert_eq!(verdict(&latency, (a, &[100.0]), (s(120.0, 119.0, 121.0), &[120.0])), "worse");
    }

    #[test]
    fn benchmark_json_declares_what_the_benchmark_reports() {
        let doc = read_json(&benchmark_json()).unwrap();
        let e2e = declared(&doc).unwrap();
        let reported = crate::report::summarize(&[], None, true).metrics;
        let names: Vec<(&str, &str)> =
            e2e.iter().map(|m| (m.name.as_str(), m.unit.as_str())).collect();
        assert_eq!(names, reported.iter().map(|m| (m.name, m.unit)).collect::<Vec<_>>());
        let setup = e2e.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(e2e.iter().all(|m| m.bound <= setup.bound && m.bound <= 0.25));
        let per_layer: Vec<(&str, &str)> = doc
            .get("per_layer")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                (m.get("name").unwrap().as_str().unwrap(), m.get("unit").unwrap().as_str().unwrap())
            })
            .collect();
        assert_eq!(per_layer, PER_LAYER);
    }
}
