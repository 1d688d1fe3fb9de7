//! The repository's benchmark: end-to-end host rates of the simulator and
//! its service on four workloads, a traced per-layer budget, and a
//! correctness oracle. See `README.md` for the metrics and workloads.
//!
//! ```text
//! interleave-benchmark --workload W --seed N --seconds S --trace 0|1
//! interleave-benchmark run [--seed N] [--quick] [--trace] [--out DIR]
//! interleave-benchmark bless
//! interleave-benchmark compare A B
//! ```
//!
//! Every round runs in a child process (`round`); serve-mix rounds start
//! the daemon as a grandchild (`serve-daemon`). Both are re-executions of
//! this binary.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

mod compare;
mod golden;
mod layers;
mod report;
mod round;
mod serve;
mod stats;

/// Distinct round seeds per base seed: round `r` simulates seed index
/// `r % ROUNDS`, and `run` runs this many rounds of every workload.
pub const ROUNDS: usize = 8;

/// Host threads of the benchmark's own cell pool (the reference host
/// has two cores).
pub const POOL_THREADS: usize = 2;

/// The four benchmark workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    /// The Table 7 grid of multiprogrammed mixes.
    UniMixes,
    /// The same grid with a 128-cycle memory reply.
    UniMemstall,
    /// The Table 10 grid of SPLASH applications on 8 nodes.
    MpSplash,
    /// The serve daemon under the soak pattern of `scripts/serve_soak.sh`.
    ServeMix,
}

impl Workload {
    /// Every workload, in schedule order.
    pub const ALL: [Workload; 4] =
        [Workload::UniMixes, Workload::UniMemstall, Workload::MpSplash, Workload::ServeMix];

    /// Command-line and report name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::UniMixes => "uni-mixes",
            Workload::UniMemstall => "uni-memstall",
            Workload::MpSplash => "mp-splash",
            Workload::ServeMix => "serve-mix",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Settings shared by every round of one benchmark invocation.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Base seed; round `r` derives its inputs from it.
    pub seed: u64,
    /// Reduced grids and job counts (tests).
    pub quick: bool,
    /// Directory for results, traces and temporary files.
    pub out: PathBuf,
}

fn default_out() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Parses `--name value` pairs (names in `values`) and bare `--flag`s
/// (names in `flags`).
fn parse_args(
    args: &[String],
    values: &[&str],
    flags: &[&str],
) -> Result<BTreeMap<String, String>, String> {
    let mut out = BTreeMap::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let name = arg.strip_prefix("--").ok_or_else(|| format!("unexpected argument `{arg}`"))?;
        if values.contains(&name) {
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            out.insert(name.to_string(), value.clone());
        } else if flags.contains(&name) {
            out.insert(name.to_string(), String::new());
        } else {
            return Err(format!("unknown flag `{arg}`"));
        }
    }
    Ok(out)
}

fn num<T: std::str::FromStr>(
    args: &BTreeMap<String, String>,
    name: &str,
) -> Result<Option<T>, String> {
    args.get(name)
        .map(|v| v.parse::<T>().map_err(|_| format!("--{name}: cannot parse `{v}`")))
        .transpose()
}

fn opts(args: &BTreeMap<String, String>) -> Result<Opts, String> {
    Ok(Opts {
        seed: num(args, "seed")?.unwrap_or(golden::GOLDEN_SEED),
        quick: args.contains_key("quick"),
        out: args.get("out").map_or_else(default_out, PathBuf::from),
    })
}

fn workload(args: &BTreeMap<String, String>) -> Result<Workload, String> {
    let name = args.get("workload").ok_or("--workload is required")?;
    Workload::parse(name).ok_or_else(|| {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload `{name}` (expected one of {})", names.join(", "))
    })
}

fn dispatch(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("run") => {
            let a = parse_args(&args[1..], &["seed", "out"], &["quick", "trace"])?;
            let rounds = if a.contains_key("quick") { 1 } else { ROUNDS };
            report::run_all(&opts(&a)?, rounds, a.contains_key("trace"))
        }
        Some("round") => {
            let a =
                parse_args(&args[1..], &["workload", "seed", "round", "out"], &["quick", "trace"])?;
            round::child(
                workload(&a)?,
                &opts(&a)?,
                num(&a, "round")?.unwrap_or(0),
                a.contains_key("trace"),
            )
        }
        Some("serve-daemon") => {
            let a = parse_args(&args[1..], &["cache"], &[])?;
            serve::daemon(a.get("cache").ok_or("--cache is required")?)
        }
        Some("bless") => report::bless(&opts(&parse_args(&args[1..], &["out"], &[])?)?),
        Some("compare") => compare::main(&args[1..]),
        Some(flag) if flag.starts_with("--") => {
            let a = parse_args(args, &["workload", "seed", "seconds", "trace", "out"], &[])?;
            let seconds: f64 = num(&a, "seconds")?.ok_or("--seconds is required")?;
            let trace = match a.get("trace").map(String::as_str) {
                None | Some("0") => false,
                Some("1") => true,
                Some(other) => return Err(format!("--trace takes 0 or 1, not `{other}`")),
            };
            report::single(workload(&a)?, &opts(&a)?, seconds, trace)
        }
        _ => Err(
            "usage: interleave-benchmark --workload W --seed N --seconds S --trace 0|1\n       \
             interleave-benchmark run [--seed N] [--quick] [--trace] [--out DIR]\n       \
             interleave-benchmark bless | compare A B"
                .into(),
        ),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("interleave-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
