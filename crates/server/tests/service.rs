//! End-to-end service tests over real sockets: wire-protocol
//! round-trip vs an in-process `Runner` (IEEE-754-exact), cache
//! dedupe/discrimination at the job level, admission control, the
//! events stream, and malformed and hostile request handling.

use std::sync::Arc;
use std::time::Duration;

use interleave_bench::{artifact_spec, ResultCache, Runner, Scale};
use interleave_obs::json::{self, Value};
use interleave_server::{client, Server, ServerConfig};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ilv_serve_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(cache_dir: Option<std::path::PathBuf>, workers: usize) -> ServerConfig {
    ServerConfig { addr: "127.0.0.1:0".into(), queue_depth: 8, workers, cache_dir }
}

/// Boots a server on an ephemeral port; returns its authority and the
/// run-thread handle (joined by [`stop`]).
fn start(config: ServerConfig) -> (String, std::thread::JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(config).expect("bind ephemeral port");
    let addr = server.local_addr().to_string();
    (addr, std::thread::spawn(move || server.run()))
}

fn stop(addr: &str, handle: std::thread::JoinHandle<std::io::Result<()>>) {
    client::post(addr, "/shutdown", "").expect("shutdown accepted");
    handle.join().expect("server thread").expect("clean exit");
}

fn submit(addr: &str, body: &str) -> Value {
    let resp = client::post(addr, "/jobs", body).expect("submit");
    assert_eq!(resp.status, 202, "{}", resp.body);
    json::parse(&resp.body).expect("status document parses")
}

fn wait_done(addr: &str, id: u64) -> Value {
    for _ in 0..1200 {
        let resp = client::get(addr, &format!("/jobs/{id}")).expect("poll");
        assert_eq!(resp.status, 200, "{}", resp.body);
        let doc = json::parse(&resp.body).expect("status parses");
        match doc.get("state").and_then(Value::as_str) {
            Some("done") => return doc,
            Some("failed") => panic!("job {id} failed: {}", resp.body),
            _ => std::thread::sleep(Duration::from_millis(25)),
        }
    }
    panic!("job {id} did not finish");
}

fn field_u64(doc: &Value, key: &str) -> u64 {
    doc.get(key).and_then(Value::as_u64).unwrap_or_else(|| panic!("missing {key}"))
}

/// Drops the volatile BENCH header lines (`unix_timestamp`, `jobs`,
/// `wall_ms`, `sim_cycles_per_sec`) exactly like
/// `scripts/determinism_gate.sh` before byte comparison.
fn strip_volatile(doc: &str) -> String {
    // Inline per-cell occurrences (`"wall_ms": 12, `) are substituted
    // out; whole-line header keys are dropped.
    fn strip_inline(line: &str, key: &str) -> String {
        let needle = format!("\"{key}\": ");
        let mut out = line.to_string();
        while let Some(start) = out.find(&needle) {
            let tail = &out[start + needle.len()..];
            let Some(comma) = tail.find(", ") else { break };
            out.replace_range(start..start + needle.len() + comma + 2, "");
        }
        out
    }
    doc.lines()
        .filter(|line| {
            !["\"unix_timestamp\":", "\"jobs\":", "\"wall_ms\":", "\"sim_cycles_per_sec\":"]
                .iter()
                .any(|key| line.trim_start().starts_with(key))
        })
        .map(|line| strip_inline(&strip_inline(line, "wall_ms"), "sim_cycles_per_sec"))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn wire_round_trip_matches_in_process_runner_and_dedupes() {
    let cache_dir = temp_dir("wire");
    let (addr, handle) = start(config(Some(cache_dir.clone()), 1));

    let first = submit(&addr, "{\"artifact\": \"smoke\", \"seed\": 42}");
    let id = field_u64(&first, "id");
    let done = wait_done(&addr, id);
    assert_eq!(field_u64(&done, "cached_cells"), 0, "fresh run computes every cell");
    let bench = client::get(&addr, &format!("/jobs/{id}/bench")).unwrap();
    let metrics = client::get(&addr, &format!("/jobs/{id}/metrics")).unwrap();
    assert_eq!((bench.status, metrics.status), (200, 200));

    // The served artifacts equal what an in-process Runner produces for
    // the identically resolved spec: METRICS byte-for-byte, BENCH with
    // the volatile header keys stripped.
    let spec = artifact_spec("smoke", Scale::Ci).unwrap().seeds([42]);
    let local = Runner::serial().run(&spec);
    assert_eq!(metrics.body, local.metrics_json(), "METRICS must be byte-identical");
    assert_eq!(strip_volatile(&bench.body), strip_volatile(&local.to_json()));

    // IEEE-754-exact: every served cell restores from the cache equal
    // (by exact PartialEq, f64s included) to the in-process result.
    let served_cache = ResultCache::new(&cache_dir);
    for (cell, result) in &local.cells {
        let served = served_cache.load(&spec, cell).expect("cell was cached");
        assert_eq!(&served, result, "served cell must round-trip bit-for-bit");
    }

    // Resubmitting the same spec hits the cache for every cell and
    // serves byte-identical artifacts.
    let second = submit(&addr, "{\"artifact\": \"smoke\", \"seed\": 42}");
    let second_id = field_u64(&second, "id");
    let second_done = wait_done(&addr, second_id);
    assert_eq!(
        field_u64(&second_done, "cached_cells"),
        field_u64(&second_done, "cells"),
        "every cell of the resubmit is served from the cache"
    );
    let bench2 = client::get(&addr, &format!("/jobs/{second_id}/bench")).unwrap();
    let metrics2 = client::get(&addr, &format!("/jobs/{second_id}/metrics")).unwrap();
    assert_eq!(metrics2.body, metrics.body, "cached METRICS must be byte-identical");
    assert_eq!(strip_volatile(&bench2.body), strip_volatile(&bench.body));

    // /stats sees the dedupe.
    let stats = client::get(&addr, "/stats").unwrap();
    let doc = json::parse(&stats.body).unwrap();
    assert_eq!(field_u64(&doc, "jobs_done"), 2);
    assert!(field_u64(&doc, "cache_hits") >= field_u64(&second_done, "cells"));
    assert!(doc.get("cache_hit_rate").and_then(Value::as_f64).unwrap() > 0.0);
    assert_eq!(doc.get("schema").and_then(Value::as_str), Some("interleave-stats-v2"));
    assert!(doc.get("served_metrics").is_none(), "/stats carries counters only");

    stop(&addr, handle);
    let _ = std::fs::remove_dir_all(&cache_dir);
}

#[test]
fn cache_keys_discriminate_result_affecting_knobs() {
    let cache_dir = temp_dir("keys");
    let (addr, handle) = start(config(Some(cache_dir.clone()), 1));

    let seed_1 = field_u64(&submit(&addr, "{\"artifact\": \"smoke\", \"seed\": 1}"), "id");
    wait_done(&addr, seed_1);
    // A result-affecting knob (the seed) must not collide: nothing is
    // served from the seed-1 entries.
    let seed_2 = field_u64(&submit(&addr, "{\"artifact\": \"smoke\", \"seed\": 2}"), "id");
    let done = wait_done(&addr, seed_2);
    assert_eq!(field_u64(&done, "cached_cells"), 0, "a new seed must not hit the cache");
    // Bit-invisible host knobs must share entries: same seed, different
    // worker counts, full cache hit.
    let retuned =
        submit(&addr, "{\"artifact\": \"smoke\", \"seed\": 1, \"jobs\": 2, \"mp_jobs\": 4}");
    let retuned_id = field_u64(&retuned, "id");
    let done = wait_done(&addr, retuned_id);
    assert_eq!(
        field_u64(&done, "cached_cells"),
        field_u64(&done, "cells"),
        "bit-invisible host knobs must share cache entries"
    );

    stop(&addr, handle);
    let _ = std::fs::remove_dir_all(&cache_dir);
}

#[test]
fn malformed_requests_get_400_and_server_stays_up() {
    let (addr, handle) = start(config(None, 1));

    // Bad JSON: 400 with a parse-position (byte offset) message.
    let resp = client::post(&addr, "/jobs", "{ not json").unwrap();
    assert_eq!(resp.status, 400, "{}", resp.body);
    assert!(resp.body.contains("byte"), "expected a parse position, got {}", resp.body);

    // Valid JSON, invalid spec: 400 naming the problem.
    for (body, needle) in [
        ("{\"artifact\": \"table99\"}", "unknown artifact"),
        ("{\"artifact\": \"smoke\", \"scale\": \"huge\"}", "scale"),
        ("{\"seed\": 4}", "artifact"),
        // 2^53 + 1 would parse as 2^53: a different seed and cache key.
        ("{\"artifact\": \"smoke\", \"seed\": 9007199254740993}", "`seed`"),
        ("[]", "object"),
    ] {
        let resp = client::post(&addr, "/jobs", body).unwrap();
        assert_eq!(resp.status, 400, "{body} -> {}", resp.body);
        assert!(resp.body.contains(needle), "{body} -> {}", resp.body);
    }

    // Unknown routes / ids / methods.
    assert_eq!(client::get(&addr, "/nope").unwrap().status, 404);
    assert_eq!(client::get(&addr, "/jobs/999").unwrap().status, 404);
    assert_eq!(client::get(&addr, "/jobs/zap").unwrap().status, 404);
    assert_eq!(client::post(&addr, "/jobs/1", "").unwrap().status, 405);
    // Artifacts of an unfinished job: 409, not a hang.
    let id = field_u64(&submit(&addr, "{\"artifact\": \"smoke\"}"), "id");
    let resp = client::get(&addr, &format!("/jobs/{id}/nope")).unwrap();
    assert_eq!(resp.status, 404);

    // After all of that abuse the server still serves.
    let health = client::get(&addr, "/healthz").unwrap();
    assert_eq!(health.status, 200);
    assert!(health.body.contains("\"ok\": true"), "{}", health.body);

    stop(&addr, handle);
}

#[test]
fn hostile_nesting_gets_400_and_server_keeps_serving() {
    let (addr, handle) = start(config(None, 1));
    // 100 KB of `[`: far below the body cap, but without the parser's
    // nesting cap it overflows the connection thread's stack and aborts
    // the whole daemon.
    let resp = client::post(&addr, "/jobs", &"[".repeat(100_000)).unwrap();
    assert_eq!(resp.status, 400, "{}", resp.body);
    assert!(resp.body.contains("nesting"), "{}", resp.body);

    assert_eq!(client::get(&addr, "/healthz").unwrap().status, 200);
    let id = field_u64(&submit(&addr, "{\"artifact\": \"smoke\"}"), "id");
    wait_done(&addr, id);
    stop(&addr, handle);
}

#[test]
fn only_one_grid_artifacts_are_served() {
    // workers = 0: an accepted job queues and never runs.
    let (addr, handle) = start(config(None, 0));
    for artifact in ["table4", "ablation_btb"] {
        let body = format!("{{\"artifact\": \"{artifact}\"}}");
        let resp = client::post(&addr, "/jobs", &body).unwrap();
        assert_eq!(resp.status, 400, "{body} -> {}", resp.body);
        assert!(resp.body.contains(&format!("artifact `{artifact}`")), "{}", resp.body);
    }
    let accepted = submit(&addr, "{\"artifact\": \"ablation_contexts\"}");
    assert_eq!(field_u64(&accepted, "cells"), 6);
    stop(&addr, handle);
}

#[test]
fn admission_control_answers_429_with_retry_after() {
    // workers = 0: jobs queue but never drain, so the bound is exact
    // and deterministic.
    let (addr, handle) = start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        queue_depth: 2,
        workers: 0,
        cache_dir: None,
    });

    submit(&addr, "{\"artifact\": \"smoke\", \"seed\": 1}");
    submit(&addr, "{\"artifact\": \"smoke\", \"seed\": 2}");
    let resp = client::post(&addr, "/jobs", "{\"artifact\": \"smoke\", \"seed\": 3}").unwrap();
    assert_eq!(resp.status, 429, "{}", resp.body);
    assert_eq!(resp.header("retry-after"), Some("1"), "429 must carry Retry-After");
    assert!(resp.body.contains("queue full"), "{}", resp.body);
    // Queued (never-run) jobs still report status.
    let status = client::get(&addr, "/jobs/1").unwrap();
    assert!(status.body.contains("\"state\": \"queued\""), "{}", status.body);
    let stats = client::get(&addr, "/stats").unwrap();
    assert_eq!(field_u64(&json::parse(&stats.body).unwrap(), "queued"), 2);

    stop(&addr, handle);
}

#[test]
fn events_stream_delivers_status_snapshots() {
    let (addr, handle) = start(config(None, 1));
    let id = field_u64(&submit(&addr, "{\"artifact\": \"smoke\", \"seed\": 9}"), "id");

    let mut frames = Vec::new();
    client::stream_lines(&addr, &format!("/jobs/{id}/events"), |line| {
        frames.push(line.to_string());
        true
    })
    .expect("stream to completion");
    assert!(!frames.is_empty(), "at least one snapshot streams");
    for frame in &frames {
        let doc = json::parse(frame).expect("each frame is one complete JSON document");
        let Value::Obj(fields) = &doc else { panic!("frame is not an object: {frame}") };
        assert_eq!(
            fields.keys().map(String::as_str).collect::<Vec<_>>(),
            [
                "artifact",
                "cells_per_sec",
                "done",
                "eta_secs",
                "finished",
                "schema",
                "sim_cycles",
                "sim_cycles_per_sec",
                "total"
            ],
            "{frame}"
        );
        assert_eq!(
            doc.get("schema").and_then(Value::as_str),
            Some("interleave-status-v2"),
            "{frame}"
        );
        assert!(doc.get("done").and_then(Value::as_u64).is_some(), "{frame}");
    }
    let last = json::parse(frames.last().unwrap()).unwrap();
    assert_eq!(last.get("finished").and_then(Value::as_bool), Some(true));
    let status = json::parse(&client::get(&addr, &format!("/jobs/{id}")).unwrap().body).unwrap();
    assert_eq!(
        last.get("sim_cycles").and_then(Value::as_u64),
        Some(field_u64(&status, "sim_cycles"))
    );

    // Streaming an unknown job is a 404, not a hang.
    let err = client::stream_lines(&addr, "/jobs/999/events", |_| true).unwrap_err();
    assert!(err.to_string().contains("404"), "{err}");

    stop(&addr, handle);
}

#[test]
fn artifacts_are_ready_once_the_events_stream_closes() {
    let (addr, handle) = start(config(None, 1));
    for seed in 20..24 {
        let body = format!("{{\"artifact\": \"smoke\", \"seed\": {seed}}}");
        let id = field_u64(&submit(&addr, &body), "id");
        client::stream_lines(&addr, &format!("/jobs/{id}/events"), |_| true)
            .expect("stream to completion");
        // No retry: the stream ends only after the artifacts are stored.
        let metrics = client::get(&addr, &format!("/jobs/{id}/metrics")).unwrap();
        assert_eq!(metrics.status, 200, "seed {seed}: {}", metrics.body);
    }
    stop(&addr, handle);
}

/// A cache directory that cannot be created (its parent is a regular
/// file) does not fail the job: every cell is computed, served
/// uncached, and counted as a miss.
#[test]
fn unwritable_cache_dir_still_completes_jobs_uncached() {
    let dir = temp_dir("unwritable");
    std::fs::create_dir_all(&dir).unwrap();
    let blocker = dir.join("not_a_dir");
    std::fs::write(&blocker, "a regular file").unwrap();
    let (addr, handle) = start(config(Some(blocker.join("cache")), 1));

    let mut cells = 0;
    let mut bodies = Vec::new();
    for _ in 0..2 {
        let id = field_u64(&submit(&addr, "{\"artifact\": \"smoke\", \"seed\": 3}"), "id");
        let done = wait_done(&addr, id);
        assert_eq!(field_u64(&done, "cached_cells"), 0, "nothing can be cached");
        cells = field_u64(&done, "cells");
        let metrics = client::get(&addr, &format!("/jobs/{id}/metrics")).unwrap();
        assert_eq!(metrics.status, 200, "{}", metrics.body);
        bodies.push(metrics.body);
    }
    assert_eq!(bodies[0], bodies[1], "uncached reruns serve identical METRICS");
    let stats = json::parse(&client::get(&addr, "/stats").unwrap().body).unwrap();
    assert_eq!(field_u64(&stats, "cache_hits"), 0);
    assert_eq!(field_u64(&stats, "cache_misses"), 2 * cells);

    stop(&addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn served_job_equals_offline_sweep_through_shared_cache() {
    // The serve path and the offline sweep path share one cache
    // directory: a sweep primed offline is served entirely from cache,
    // proving the two paths resolve identical keys (spec × seed ×
    // version) — the byte-identity argument the shell smoke enforces
    // end to end.
    let cache_dir = temp_dir("shared");
    let spec = artifact_spec("smoke", Scale::Ci).unwrap().seeds([7]);
    let offline = Runner::serial().result_cache(Arc::new(ResultCache::new(&cache_dir))).run(&spec);
    assert_eq!(offline.resumed, 0);

    let (addr, handle) = start(config(Some(cache_dir.clone()), 1));
    let id = field_u64(&submit(&addr, "{\"artifact\": \"smoke\", \"seed\": 7}"), "id");
    let done = wait_done(&addr, id);
    assert_eq!(
        field_u64(&done, "cached_cells"),
        field_u64(&done, "cells"),
        "the offline sweep primed every cell the server needs"
    );
    let metrics = client::get(&addr, &format!("/jobs/{id}/metrics")).unwrap();
    assert_eq!(metrics.body, offline.metrics_json(), "served METRICS == offline METRICS");

    stop(&addr, handle);
    let _ = std::fs::remove_dir_all(&cache_dir);
}
