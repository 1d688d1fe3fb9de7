//! `sweep --progress` end to end: the heartbeat goes to stderr, ends with
//! the sweep's final line, and leaves stdout as it is without the switch.

use std::process::Command;

/// Runs `sweep` over the smoke grid and returns its stdout, with the
/// summary line's host wall-clock figure cut out, and its stderr.
fn smoke_sweep(extra: &[&str]) -> (Vec<String>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_interleave-sim"))
        .args(["sweep", "--artifact", "smoke", "--jobs", "1"])
        .args(extra)
        .output()
        .expect("run interleave-sim");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    let lines = stdout.lines().map(|l| match (l.find(" jobs, "), l.find(" wall, ")) {
        (Some(a), Some(b)) => format!("{}<wall>{}", &l[..a + " jobs, ".len()], &l[b..]),
        _ => l.to_string(),
    });
    (lines.collect(), String::from_utf8(out.stderr).unwrap())
}

#[test]
fn progress_prints_the_final_heartbeat_and_leaves_stdout_unchanged() {
    let (plain_out, plain_err) = smoke_sweep(&[]);
    let (out, err) = smoke_sweep(&["--progress"]);
    assert_eq!(plain_err, "", "no heartbeat without --progress");
    assert!(
        plain_out.contains(&"smoke: 3 cells, 1 jobs, <wall> wall, ci scale".to_string()),
        "{plain_out:?}"
    );
    assert_eq!(out, plain_out);
    // `sweep smoke: 3/3 cells, {:.2} cells/s, {:.2e} sim cycles/s, ETA {:.0}s`
    let last = err.lines().last().expect("a heartbeat line on stderr");
    let fields: Vec<&str> = last.split(", ").collect();
    assert_eq!((fields[0], fields[3]), ("sweep smoke: 3/3 cells", "ETA 0s"), "{last}");
    let rate = fields[1].strip_suffix(" cells/s").expect("cells/s");
    assert!(rate.split_once('.').is_some_and(|(_, frac)| frac.len() == 2), "{last}");
    let cycles = fields[2].strip_suffix(" sim cycles/s").expect("sim cycles/s");
    assert!(cycles.split_once('e').is_some_and(|(m, _)| m.len() == 4), "{last}");
    assert!(err.lines().all(|l| l.starts_with("sweep smoke: ")), "{err}");
}
