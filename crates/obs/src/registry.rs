//! Deterministic metric registry.

use std::fmt::Write as _;

use crate::histogram::Histogram;
use crate::json;

/// One collected metric value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Metric {
    /// A monotonic event count.
    Counter(u64),
    /// A bucketed value distribution (boxed: the fixed bucket array
    /// would otherwise dominate every entry's footprint).
    Histogram(Box<Histogram>),
}

/// A name-sorted snapshot of metrics collected from simulator
/// components after a run.
///
/// Components expose a `collect_metrics(&self, reg: &mut Registry)`
/// method that registers their counters and histograms under
/// dot-separated names (`mem.l1d.misses`, `core.run_length`, ...).
/// Entries are kept sorted by name and re-registering a name folds the
/// new value into the old (counters add, histograms merge), so the
/// snapshot is independent of collection order — which is what makes
/// sweep metric artifacts byte-identical between serial and parallel
/// runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Registry {
    entries: Vec<(String, Metric)>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Register (or fold into) a counter named `name`.
    pub fn counter(&mut self, name: &str, value: u64) {
        match self.entries.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
            Ok(i) => match &mut self.entries[i].1 {
                Metric::Counter(v) => *v += value,
                Metric::Histogram(_) => {
                    panic!("metric {name:?} already registered as a histogram")
                }
            },
            Err(i) => self.entries.insert(i, (name.to_string(), Metric::Counter(value))),
        }
    }

    /// Register (or merge into) a histogram named `name`.
    pub fn histogram(&mut self, name: &str, value: &Histogram) {
        match self.entries.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
            Ok(i) => match &mut self.entries[i].1 {
                Metric::Histogram(h) => h.merge(value),
                Metric::Counter(_) => {
                    panic!("metric {name:?} already registered as a counter")
                }
            },
            Err(i) => self
                .entries
                .insert(i, (name.to_string(), Metric::Histogram(Box::new(value.clone())))),
        }
    }

    /// Look up a metric by exact name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.entries
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| &self.entries[i].1)
    }

    /// Counter value by name, if `name` is a registered counter.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        match self.get(name)? {
            Metric::Counter(v) => Some(*v),
            Metric::Histogram(_) => None,
        }
    }

    /// Histogram by name, if `name` is a registered histogram.
    pub fn histogram_value(&self, name: &str) -> Option<&Histogram> {
        match self.get(name)? {
            Metric::Histogram(h) => Some(h.as_ref()),
            Metric::Counter(_) => None,
        }
    }

    /// Entries in ascending name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Metric)> {
        self.entries.iter().map(|(n, m)| (n.as_str(), m))
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing has been registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Serialize as a single-line JSON object, one key per metric, sorted
    /// by name. Counters serialize as bare numbers; histograms as
    /// `{"count","sum","min","max","mean","buckets":[{"lo","hi","n"}]}`.
    /// This is the registry's one JSON form: sweep `METRICS_*.json`
    /// artifacts embed one registry per cell line, checkpoints embed the
    /// same line, and `uni --json` writes it.
    pub fn to_json_line(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, metric)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            match metric {
                Metric::Counter(v) => {
                    let _ = write!(out, "{}: {v}", json::escape(name));
                }
                Metric::Histogram(h) => {
                    let buckets: Vec<String> = h
                        .nonzero_buckets()
                        .map(|(lo, hi, n)| format!("{{\"lo\": {lo}, \"hi\": {hi}, \"n\": {n}}}"))
                        .collect();
                    let _ = write!(
                        out,
                        "{}: {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
                         \"mean\": {:.4}, \"buckets\": [{}]}}",
                        json::escape(name),
                        h.count(),
                        h.sum(),
                        h.min(),
                        h.max(),
                        h.mean(),
                        buckets.join(", ")
                    );
                }
            }
        }
        out.push('}');
        out
    }

    /// Reconstructs a registry from its serialized JSON object: bare
    /// numbers become counters, histogram-shaped objects become
    /// histograms (see [`Histogram::from_value`]). The reconstruction
    /// is exact, so re-serializing yields the original bytes — the
    /// property sweep checkpoints rely on. Returns
    /// `None` if the value is not such an object.
    pub fn from_value(v: &json::Value) -> Option<Registry> {
        let json::Value::Obj(map) = v else {
            return None;
        };
        let mut reg = Registry::new();
        // BTreeMap iterates in ascending key order, matching the
        // registry's own name-sorted invariant.
        for (name, val) in map {
            match val {
                json::Value::Num(_) => reg.counter(name, val.as_u64()?),
                json::Value::Obj(_) => reg.histogram(name, &Histogram::from_value(val)?),
                _ => return None,
            }
        }
        Some(reg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_sorted_and_folded() {
        let mut r = Registry::new();
        r.counter("b.second", 2);
        r.counter("a.first", 1);
        r.counter("b.second", 3);
        let names: Vec<_> = r.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names, vec!["a.first", "b.second"]);
        assert_eq!(r.counter_value("b.second"), Some(5));
        assert_eq!(r.counter_value("missing"), None);
    }

    #[test]
    fn histograms_merge_on_reregister() {
        let mut r = Registry::new();
        let mut h = Histogram::new();
        h.record(4);
        r.histogram("h", &h);
        r.histogram("h", &h);
        assert_eq!(r.histogram_value("h").unwrap().count(), 2);
    }

    #[test]
    fn json_is_deterministic_and_parses() {
        let mut r = Registry::new();
        let mut h = Histogram::new();
        h.record(3);
        h.record(300);
        r.histogram("core.run_length", &h);
        r.counter("mem.l1d.misses", 17);
        let j = r.to_json_line();
        assert_eq!(j, r.clone().to_json_line());
        let v = json::parse(&j).expect("registry json parses");
        assert_eq!(v.get("mem.l1d.misses").and_then(|m| m.as_u64()), Some(17));
        let hist = v.get("core.run_length").expect("histogram present");
        assert_eq!(hist.get("count").and_then(|c| c.as_u64()), Some(2));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn type_mismatch_panics() {
        let mut r = Registry::new();
        r.counter("x", 1);
        r.histogram("x", &Histogram::new());
    }

    #[test]
    fn json_round_trip_is_exact() {
        let mut r = Registry::new();
        let mut h = Histogram::new();
        for v in [0, 1, 3, 900, 7_000_000] {
            h.record(v);
        }
        r.histogram("core.run_length", &h);
        r.histogram("mp.empty", &Histogram::new());
        r.counter("mem.l1d.misses", 17);
        r.counter("big", 1 << 50);
        let doc = r.to_json_line();
        let v = json::parse(&doc).expect("registry json parses");
        let back = Registry::from_value(&v).expect("registry round-trips");
        assert_eq!(back, r);
        assert_eq!(back.to_json_line(), doc);
        assert!(!doc.contains('\n'));
    }

    #[test]
    fn from_value_rejects_non_registry_shapes() {
        for doc in ["[1]", "3", "{\"x\": \"str\"}", "{\"h\": {\"count\": 1}}"] {
            let v = json::parse(doc).unwrap();
            assert!(Registry::from_value(&v).is_none(), "{doc} should not parse as a registry");
        }
    }
}
