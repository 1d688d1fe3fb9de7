//! Chrome trace-event JSON export.
//!
//! Builds documents in the [Trace Event Format] consumed by Perfetto
//! and `chrome://tracing`: a `traceEvents` array of complete-span
//! (`"ph": "X"`) events plus metadata (`"ph": "M"`) events naming each
//! process and thread. The simulator maps one *track* (pid/tid pair)
//! to each hardware context, so a trace opens as a per-context
//! timeline of issue/stall/squash spans. Timestamps are in the
//! format's microsecond unit; the simulator writes one microsecond per
//! cycle.
//!
//! [`validate`] is the inverse: it structurally checks a document
//! (every event has `ph`, `ts`, `pid`, `tid`) and returns per-span-name
//! duration totals, which is what lets tests reconcile a trace against
//! the simulator's own cycle `Breakdown`.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::{self, Value};

/// One trace event (span or metadata).
#[derive(Debug, Clone, PartialEq, Eq)]
enum Event {
    /// A complete span (`"ph": "X"`).
    Span {
        /// Track process id.
        pid: u64,
        /// Track thread id.
        tid: u64,
        /// Start timestamp (µs; the simulator uses 1 µs = 1 cycle).
        ts: u64,
        /// Duration (µs).
        dur: u64,
        /// Span name (rendered on the slice).
        name: String,
        /// Category (used by trace-viewer filtering).
        cat: String,
    },
    /// A `process_name` / `thread_name` metadata record (`"ph": "M"`).
    Meta {
        /// Which metadata key (`process_name` or `thread_name`).
        key: &'static str,
        /// Track process id.
        pid: u64,
        /// Track thread id.
        tid: u64,
        /// Human-readable label.
        label: String,
    },
}

/// Builder for a Chrome trace-event document.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChromeTrace {
    events: Vec<Event>,
}

impl ChromeTrace {
    /// An empty trace.
    pub fn new() -> Self {
        ChromeTrace::default()
    }

    /// Name a process track.
    pub fn process_name(&mut self, pid: u64, name: &str) {
        self.events.push(Event::Meta { key: "process_name", pid, tid: 0, label: name.into() });
    }

    /// Name a thread track within a process.
    pub fn thread_name(&mut self, pid: u64, tid: u64, name: &str) {
        self.events.push(Event::Meta { key: "thread_name", pid, tid, label: name.into() });
    }

    /// Add a complete span of `dur` µs starting at `ts` µs.
    pub fn span(&mut self, pid: u64, tid: u64, ts: u64, dur: u64, name: &str, cat: &str) {
        self.events.push(Event::Span { pid, tid, ts, dur, name: name.into(), cat: cat.into() });
    }

    /// Number of events recorded (spans + metadata).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Serialize the trace as a Chrome trace-event JSON document.
    ///
    /// Output is fully determined by the recorded events (no
    /// timestamps or environment leak in), one event per line.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"traceEvents\": [\n");
        for (i, ev) in self.events.iter().enumerate() {
            let comma = if i + 1 == self.events.len() { "" } else { "," };
            match ev {
                Event::Meta { key, pid, tid, label } => {
                    let _ = writeln!(
                        out,
                        "    {{\"name\": \"{key}\", \"ph\": \"M\", \"ts\": 0, \"pid\": {pid}, \
                         \"tid\": {tid}, \"args\": {{\"name\": {}}}}}{comma}",
                        json::escape(label)
                    );
                }
                Event::Span { pid, tid, ts, dur, name, cat } => {
                    let _ = writeln!(
                        out,
                        "    {{\"name\": {}, \"cat\": {}, \"ph\": \"X\", \"ts\": {ts}, \
                         \"dur\": {dur}, \"pid\": {pid}, \"tid\": {tid}}}{comma}",
                        json::escape(name),
                        json::escape(cat)
                    );
                }
            }
        }
        out.push_str("  ],\n  \"displayTimeUnit\": \"ms\"\n}\n");
        out
    }
}

/// Structural summary returned by [`validate`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSummary {
    /// Total events in the document (spans + metadata).
    pub events: usize,
    /// Number of `"ph": "X"` span events.
    pub spans: usize,
    /// Summed `dur` per span name (µs == cycles for simulator traces).
    pub dur_by_name: BTreeMap<String, u64>,
    /// Number of span events per `(pid, tid)` track.
    pub spans_by_track: BTreeMap<(u64, u64), usize>,
}

/// Structurally validate a Chrome trace-event JSON document.
///
/// Checks that the document is valid JSON with a non-empty
/// `traceEvents` array and that *every* event carries `ph` (a
/// single-character string), an integral `ts`, and integral
/// `pid`/`tid`; span (`X`) events must also carry `name` and an
/// integral `dur`. Spans on each `(pid, tid)` track must additionally
/// obey stack discipline: any two spans are either disjoint or one is
/// fully contained in the other (partial overlap would render as a
/// corrupt timeline). The simulator's per-context tracks satisfy this
/// by construction. Returns per-name duration totals so callers can
/// reconcile span time against independent cycle accounting.
pub fn validate(doc: &str) -> Result<TraceSummary, String> {
    let root = json::parse(doc)?;
    let events =
        root.get("traceEvents").and_then(Value::as_arr).ok_or("missing \"traceEvents\" array")?;
    if events.is_empty() {
        return Err("empty \"traceEvents\" array".into());
    }
    // Spans grouped per (pid, tid) track as (ts, dur, name), for the
    // stack-discipline check below.
    type TrackSpans = BTreeMap<(u64, u64), Vec<(u64, u64, String)>>;
    let mut summary = TraceSummary { events: events.len(), ..TraceSummary::default() };
    let mut by_track: TrackSpans = BTreeMap::new();
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i}: missing \"ph\""))?;
        if ph.chars().count() != 1 {
            return Err(format!("event {i}: \"ph\" must be one character, got {ph:?}"));
        }
        ev.get("ts")
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("event {i}: missing integral \"ts\""))?;
        let pid = ev
            .get("pid")
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("event {i}: missing integral \"pid\""))?;
        let tid = ev
            .get("tid")
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("event {i}: missing integral \"tid\""))?;
        if ph == "X" {
            let name = ev
                .get("name")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("event {i}: span missing \"name\""))?;
            let dur = ev
                .get("dur")
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("event {i}: span missing integral \"dur\""))?;
            summary.spans += 1;
            *summary.dur_by_name.entry(name.to_string()).or_insert(0) += dur;
            *summary.spans_by_track.entry((pid, tid)).or_insert(0) += 1;
            let ts = ev.get("ts").and_then(Value::as_u64).unwrap_or(0);
            by_track.entry((pid, tid)).or_default().push((ts, dur, name.to_string()));
        }
    }
    for ((pid, tid), mut spans) in by_track {
        // Sorting by (ts, -dur) puts an enclosing span before its
        // children regardless of document order; a stack of open end
        // times then detects any partial overlap.
        spans.sort_unstable_by_key(|&(ts, dur, _)| (ts, std::cmp::Reverse(dur)));
        let mut open: Vec<u64> = Vec::new();
        for (ts, dur, name) in spans {
            while open.last().is_some_and(|&end| ts >= end) {
                open.pop();
            }
            if let Some(&end) = open.last() {
                if ts + dur > end {
                    return Err(format!(
                        "track ({pid}, {tid}): span {name:?} [{ts}, {end_new}) partially \
                         overlaps an enclosing span ending at {end}",
                        end_new = ts + dur
                    ));
                }
            }
            open.push(ts + dur);
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ChromeTrace {
        let mut t = ChromeTrace::new();
        t.process_name(0, "interleave-sim");
        t.thread_name(0, 1, "ctx0");
        t.span(0, 1, 0, 3, "busy", "busy");
        t.span(0, 1, 3, 2, "data mem", "stall");
        t.span(0, 1, 5, 1, "busy", "busy");
        t
    }

    #[test]
    fn round_trips_through_validator() {
        let json = sample().to_json();
        let summary = validate(&json).expect("valid trace");
        assert_eq!(summary.events, 5);
        assert_eq!(summary.spans, 3);
        assert_eq!(summary.dur_by_name.get("busy"), Some(&4));
        assert_eq!(summary.dur_by_name.get("data mem"), Some(&2));
        assert_eq!(summary.spans_by_track.get(&(0, 1)), Some(&3));
    }

    #[test]
    fn json_is_deterministic() {
        assert_eq!(sample().to_json(), sample().to_json());
    }

    #[test]
    fn validator_rejects_missing_fields() {
        assert!(validate("{}").is_err());
        assert!(validate(r#"{"traceEvents": []}"#).is_err());
        // Span with no ts.
        let bad = r#"{"traceEvents": [{"name": "x", "ph": "X", "dur": 1, "pid": 0, "tid": 0}]}"#;
        let err = validate(bad).unwrap_err();
        assert!(err.contains("ts"), "unexpected error: {err}");
        // Metadata event with no pid.
        let bad = r#"{"traceEvents": [{"name": "thread_name", "ph": "M", "ts": 0, "tid": 0}]}"#;
        assert!(validate(bad).unwrap_err().contains("pid"));
        // Not JSON at all.
        assert!(validate("traceEvents").is_err());
    }

    #[test]
    fn validator_accepts_nested_and_rejects_partial_overlap() {
        // Proper nesting (out of document order) is fine.
        let mut nested = ChromeTrace::new();
        nested.span(0, 1, 2, 3, "inner", "host");
        nested.span(0, 1, 0, 10, "outer", "host");
        nested.span(0, 1, 10, 4, "sibling", "host");
        validate(&nested.to_json()).expect("nested spans validate");

        // Same intervals on different tracks never interact.
        let mut tracks = ChromeTrace::new();
        tracks.span(0, 1, 0, 10, "a", "host");
        tracks.span(0, 2, 5, 10, "b", "host");
        validate(&tracks.to_json()).expect("overlap across tracks is fine");

        // Partial overlap on one track is structural corruption.
        let mut bad = ChromeTrace::new();
        bad.span(0, 1, 0, 10, "outer", "host");
        bad.span(0, 1, 5, 10, "straddler", "host");
        let err = validate(&bad.to_json()).unwrap_err();
        assert!(err.contains("straddler"), "unexpected error: {err}");
        assert!(err.contains("partially overlaps"), "unexpected error: {err}");
    }
}
