//! End to end: a `--quick` run (one round of every workload on reduced
//! grids) finishes quickly, passes the golden and invariant checks, and
//! keeps a stray program variable out of its rounds.

use std::process::Command;
use std::time::{Duration, Instant};

use interleave_obs::json::{self, Value};

#[test]
fn quick_run_is_fast_correct_and_hygienic() {
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("quick");
    let _ = std::fs::remove_dir_all(&out);
    let started = Instant::now();
    let status = Command::new(env!("CARGO_BIN_EXE_interleave-benchmark"))
        .args(["run", "--quick", "--seed", "1", "--out"])
        .arg(&out)
        .env("INTERLEAVE_PROFILE", "1")
        .status()
        .expect("benchmark binary runs");
    let elapsed = started.elapsed();
    assert!(status.success(), "quick run failed: {status}");
    assert!(elapsed < Duration::from_secs(15), "quick run took {elapsed:?}");

    let text = std::fs::read_to_string(out.join("results.json")).expect("results.json written");
    let doc = json::parse(&text).expect("results.json parses");
    for name in ["uni-mixes", "uni-memstall", "mp-splash", "serve-mix"] {
        let w = doc.get("workloads").and_then(|ws| ws.get(name)).expect("workload reported");
        assert_eq!(w.get("error_rate").and_then(Value::as_f64), Some(0.0), "{name}");
        let setting = |k: &str| w.get("settings").and_then(|s| s.get(k)).and_then(Value::as_str);
        assert_eq!(setting("program_env"), Some("none"), "{name} saw a program variable");
        assert_eq!(setting("profiler"), Some("false"), "{name} ran profiled");
        let rate =
            w.get("metrics").and_then(|m| m.get("sim_cycles_per_sec")).and_then(|m| m.get("value"));
        assert!(rate.and_then(Value::as_f64).is_some_and(|r| r > 0.0), "{name}");
    }
    std::fs::remove_dir_all(&out).expect("clean up");
}
