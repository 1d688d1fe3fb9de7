//! Argument parsing and report rendering for the `interleave-sim` binary.
//!
//! Hand-rolled (no external dependencies) and table-driven: `SUBCOMMANDS`
//! gives every subcommand's usage line — its `--flag VALUE` options, bare
//! switches and positional arguments. [`parse`] rejects any flag the line
//! does not list, a repeated flag, and a value flag with no value, and
//! [`usage`] prints the same lines. The flag table is the binary's only
//! configuration surface: no environment variable changes what a command
//! computes.

use crate::bench::artifacts::one_grid_names;
use crate::bench::{resolve_specs, Runner, Scale, Shard, SweepResult, ARTIFACTS};
use crate::core::{Scheme, MAX_CONTEXTS};
use crate::mp::{splash_suite, MpSim, SplashProfile, MAX_NODES};
use crate::obs::{Metric, Registry};
use crate::server::job::JobRequest;
use crate::server::ServerConfig;
use crate::stats::{Category, Table};
use crate::workloads::mixes::{self, Workload};
use crate::workloads::{MultiprogramSim, SyntheticApp};

/// A parsed command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run a workstation multiprogramming simulation and print its
    /// breakdown and metric registry.
    Uni {
        /// Table 5 workload.
        workload: String,
        /// Scheduling scheme.
        scheme: Scheme,
        /// Hardware contexts.
        contexts: usize,
        /// Instructions per application.
        quota: u64,
        /// Stream seed.
        seed: u64,
        /// Where to write the registry JSON (`None` = tables only).
        json: Option<String>,
    },
    /// Run a multiprocessor simulation.
    Mp {
        /// SPLASH application name.
        app: String,
        /// Scheduling scheme.
        scheme: Scheme,
        /// Nodes in the machine.
        nodes: usize,
        /// Contexts per node.
        contexts: usize,
        /// Total instructions of work.
        work: u64,
        /// Stream seed.
        seed: u64,
    },
    /// Run a whole experiment grid on the parallel sweep runner.
    Sweep {
        /// Registered artifact (see `list`): its grids run on the sweep
        /// runner and its paper tables render from the results.
        artifact: String,
        /// Worker threads (`None` = the machine's parallelism).
        jobs: Option<usize>,
        /// Problem scale.
        scale: Scale,
        /// Directory for each grid's `BENCH_<spec>.json` and
        /// `METRICS_<spec>.json` artifacts (plus `PROFILE_*` when the
        /// profiler ran).
        json: Option<String>,
        /// Explicit stream seed (`None` = the sims' defaults).
        seed: Option<u64>,
        /// Host threads per multiprocessor cell (`None` = serial).
        /// Purely a host-side knob: results are bit-identical at every
        /// value.
        mp_jobs: Option<usize>,
        /// Run only one disjoint slice of the grid (`--shard K/N`) into
        /// the checkpoint directory; requires `checkpoint_dir` and
        /// rejects `json`.
        shard: Option<Shard>,
        /// Per-cell checkpoint directory. An interrupted sweep rerun
        /// with the same directory resumes its completed cells, and a
        /// whole-grid sweep over the shards' combined directory
        /// assembles their slices.
        checkpoint_dir: Option<String>,
        /// Run under the host-phase profiler: print the phase table and,
        /// with `json`, write `PROFILE_<grid>.json`.
        profile: bool,
        /// Print a per-second completion heartbeat to stderr.
        progress: bool,
    },
    /// Run the simulation service daemon (`interleave-sim serve`) with
    /// the flags applied over [`ServerConfig::default`]. Port 0 binds an
    /// ephemeral port; the bound address is printed for scripts to
    /// capture.
    Serve(ServerConfig),
    /// Submit a job to a running daemon and optionally wait for it.
    Submit {
        /// Daemon address (`None` = `127.0.0.1:4994`); `http://host:port`
        /// prefixes are accepted.
        addr: Option<String>,
        /// The job: the same artifact and knobs the daemon's `POST /jobs`
        /// wire body carries.
        request: JobRequest,
        /// Poll the job to completion before exiting.
        wait: bool,
        /// Fetch the finished `BENCH_*`/`METRICS_*` artifacts into this
        /// directory (implies `wait`) along with a `SERVE_*` round-trip
        /// timing document.
        json: Option<String>,
        /// Give up waiting after this many seconds.
        timeout_secs: u64,
    },
    /// Query a running daemon: job status, `--stats`, or (with no id)
    /// `/healthz`.
    Poll {
        /// Daemon address (`None` = `127.0.0.1:4994`).
        addr: Option<String>,
        /// Job id to query (positional; `None` = server health).
        id: Option<u64>,
        /// Query `/stats` instead of a job.
        stats: bool,
    },
    /// Run with per-cycle tracing and export a Chrome trace-event JSON.
    Trace {
        /// Trace file to replay on context 0 (`None` = drive the
        /// synthetic `workload` on every context).
        file: Option<String>,
        /// Table 5 workload used when no file is given.
        workload: String,
        /// Scheduling scheme.
        scheme: Scheme,
        /// Hardware contexts.
        contexts: usize,
        /// Cycle budget for the traced run.
        max_cycles: u64,
        /// Stream seed for the synthetic workload.
        seed: u64,
        /// Where to write the Chrome trace JSON (`None` = report only).
        out: Option<String>,
    },
    /// List available workloads and applications.
    List,
    /// Show usage.
    Help,
}

/// Error produced for invalid command lines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

/// Every subcommand and its usage line: the one table `parse` checks a
/// command line against and `usage` prints. A usage line lists the
/// arguments as the help shows them: `--flag HINT` is a required value
/// flag, `[--flag HINT]` an optional one and `[--flag]` a switch; `ARG`
/// is one positional and `[ARG]` an optional one.
const SUBCOMMANDS: &[(&str, &str)] = &[
    ("uni", "[--workload W] [--scheme S] [--contexts N] [--quota N] [--seed N] [--json PATH]"),
    ("mp", "[--app NAME] [--scheme S] [--nodes N] [--contexts N] [--work N] [--seed N]"),
    (
        "sweep",
        "--artifact ARTIFACT [--jobs N] [--mp-jobs N] [--scale ci|full] [--json DIR] \
         [--seed N] [--shard K/N] [--checkpoint-dir DIR] [--profile] [--progress]",
    ),
    ("serve", "[--addr HOST:PORT] [--queue-depth N] [--workers N] [--cache-dir DIR]"),
    (
        "submit",
        "--artifact GRID [--addr HOST:PORT] [--scale ci|full] [--seed N] [--jobs N] \
         [--mp-jobs N] [--wait] [--json DIR] [--timeout-secs N]",
    ),
    ("poll", "[JOB_ID] [--addr HOST:PORT] [--stats]"),
    (
        "trace",
        "[--file PATH] [--workload W] [--scheme S] [--contexts N] [--max-cycles N] \
         [--seed N] [--out PATH]",
    ),
    ("list", ""),
    ("help", ""),
];

/// One argument of a usage line.
struct UsageArg {
    /// The argument as the usage line writes it.
    text: &'static str,
    /// `--flag`, or a positional's placeholder.
    name: &'static str,
    /// A value flag's value placeholder (`None` for switches and
    /// positionals).
    hint: Option<&'static str>,
    /// Written in brackets.
    optional: bool,
}

/// Splits a usage line into its arguments.
fn usage_args(line: &'static str) -> Vec<UsageArg> {
    let mut args = Vec::new();
    let mut rest = line.trim_start();
    while !rest.is_empty() {
        let optional = rest.starts_with('[');
        // A bracketed argument ends at `]`; a required flag spans its hint.
        let end = if optional {
            rest.find(']').map_or(rest.len(), |i| i + 1)
        } else {
            let words = if rest.starts_with("--") { 2 } else { 1 };
            rest.match_indices(' ').nth(words - 1).map_or(rest.len(), |(i, _)| i)
        };
        let text = &rest[..end];
        let body = text.trim_start_matches('[').trim_end_matches(']');
        let (name, hint) = match body.split_once(' ') {
            Some((name, hint)) => (name, Some(hint)),
            None => (body, None),
        };
        args.push(UsageArg { text, name, hint, optional });
        rest = rest[end..].trim_start();
    }
    args
}

/// Usage text, generated from the subcommand table; the workload and
/// artifact names come from their registries.
pub fn usage() -> String {
    let mut out = String::from(
        "interleave-sim — cycle-level multiple-context processor simulator\n\nUSAGE:\n",
    );
    for &(name, line) in SUBCOMMANDS {
        let mut row = format!("  interleave-sim {name:<5}");
        let indent = row.len();
        for arg in usage_args(line) {
            if row.len() + 1 + arg.text.len() > 80 && row.len() > indent {
                out.push_str(&row);
                out.push('\n');
                row = " ".repeat(indent);
            }
            row.push(' ');
            row.push_str(arg.text);
        }
        out.push_str(row.trim_end());
        out.push('\n');
    }
    out.push_str(&format!(
        "\nSCHEMES: single, blocked, interleaved, fine-grained\nWORKLOADS: {}\n\
         ARTIFACTS: {}\nGRIDS (the one-grid artifacts): {}\n",
        mixes::all().iter().map(|w| w.name).collect::<Vec<_>>().join(", "),
        ARTIFACTS.iter().map(|a| a.name).collect::<Vec<_>>().join(", "),
        one_grid_names().join(", ")
    ));
    out
}

/// A command line checked against its subcommand's usage line.
struct Args {
    sub: &'static str,
    /// `(flag without --, value)` in command-line order; switches carry
    /// `""`.
    values: Vec<(&'static str, String)>,
    positionals: Vec<String>,
}

impl Args {
    fn parse(sub: &'static str, line: &'static str, raw: &[String]) -> Result<Args, CliError> {
        let fail = |msg: String| CliError(format!("{sub}: {msg}"));
        let (flags, positional): (Vec<_>, Vec<_>) =
            usage_args(line).into_iter().partition(|a| a.name.starts_with("--"));
        let mut args = Args { sub, values: Vec::new(), positionals: Vec::new() };
        let mut it = raw.iter();
        while let Some(word) = it.next() {
            if !word.starts_with("--") {
                args.positionals.push(word.clone());
                continue;
            }
            let flag = flags
                .iter()
                .find(|f| f.name == word)
                .ok_or_else(|| fail(format!("unknown flag {word}")))?;
            if args.get(&flag.name[2..]).is_some() {
                return Err(fail(format!("{word} given more than once")));
            }
            let value = match flag.hint {
                None => String::new(),
                Some(hint) => match it.next() {
                    Some(value) if !value.starts_with("--") => value.clone(),
                    _ => return Err(fail(format!("{word} needs a value ({hint})"))),
                },
            };
            args.values.push((&flag.name[2..], value));
        }
        if let Some(flag) = flags.iter().find(|f| !f.optional && args.get(&f.name[2..]).is_none()) {
            return Err(fail(format!("{} is required", flag.text)));
        }
        let n = args.positionals.len();
        let fits = match positional.first() {
            None => n == 0,
            Some(p) => n == 1 || (n == 0 && p.optional),
        };
        if !fits {
            let wanted = positional.first().map_or("no positional argument", |p| p.text);
            return Err(fail(format!("takes {wanted}, got `{}`", args.positionals.join(" "))));
        }
        Ok(args)
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.values.iter().find(|(n, _)| *n == name).map(|(_, v)| v.as_str())
    }

    fn string(&self, name: &str) -> Option<String> {
        self.get(name).map(str::to_string)
    }

    fn switch(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// The flag's value converted by `convert`; an unconvertible value is
    /// an error naming the flag and what it expects.
    fn typed<T>(
        &self,
        name: &str,
        expects: &str,
        convert: impl Fn(&str) -> Option<T>,
    ) -> Result<Option<T>, CliError> {
        self.get(name)
            .map(|v| {
                convert(v).ok_or_else(|| {
                    CliError(format!("{}: --{name} expects {expects}, got `{v}`", self.sub))
                })
            })
            .transpose()
    }

    fn opt_num<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, CliError> {
        self.typed(name, "a number", |v| v.parse().ok())
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, CliError> {
        Ok(self.opt_num(name)?.unwrap_or(default))
    }

    /// A count flag that must lie in `1..=most`.
    fn count(&self, name: &str, default: usize, most: usize) -> Result<usize, CliError> {
        let n = self.num(name, default)?;
        if !(1..=most).contains(&n) {
            return Err(CliError(format!("{}: --{name} expects 1 to {most}, got {n}", self.sub)));
        }
        Ok(n)
    }

    /// `--contexts` for `scheme`: at most [`MAX_CONTEXTS`], and exactly
    /// one (the default) for the single-context scheme.
    fn contexts(&self, scheme: Scheme, default: usize) -> Result<usize, CliError> {
        match scheme {
            Scheme::Single => self.count("contexts", 1, 1),
            _ => self.count("contexts", default, MAX_CONTEXTS),
        }
    }

    fn scheme(&self) -> Result<Scheme, CliError> {
        let parsed = self.typed("scheme", "single, blocked, interleaved or fine-grained", |v| {
            match v.to_ascii_lowercase().as_str() {
                "single" => Some(Scheme::Single),
                "blocked" => Some(Scheme::Blocked),
                "interleaved" => Some(Scheme::Interleaved),
                "fine-grained" | "finegrained" | "hep" => Some(Scheme::FineGrained),
                _ => None,
            }
        })?;
        Ok(parsed.unwrap_or(Scheme::Interleaved))
    }

    fn scale(&self) -> Result<Option<Scale>, CliError> {
        self.typed("scale", "`ci` or `full`", Scale::parse)
    }
}

/// Parses a command line (without the program name).
///
/// # Errors
///
/// Returns [`CliError`] on an unknown subcommand; an unknown, repeated
/// or value-less flag; a missing required flag; the wrong positional
/// arguments; or a malformed value.
pub fn parse(args: &[String]) -> Result<Command, CliError> {
    let Some(name) = args.first() else {
        return Ok(Command::Help);
    };
    if name == "--help" || name == "-h" {
        return Ok(Command::Help);
    }
    let &(sub, line) = SUBCOMMANDS
        .iter()
        .find(|(sub, _)| sub == name)
        .ok_or_else(|| CliError(format!("unknown subcommand `{name}` (try `help`)")))?;
    let a = Args::parse(sub, line, &args[1..])?;
    let workload = || a.get("workload").unwrap_or("FP").to_string();
    Ok(match sub {
        "uni" => Command::Uni {
            workload: workload(),
            scheme: a.scheme()?,
            contexts: a.contexts(a.scheme()?, 4)?,
            quota: a.num("quota", 40_000)?,
            seed: a.num("seed", 0x19940501)?,
            json: a.string("json"),
        },
        "mp" => Command::Mp {
            app: a.get("app").unwrap_or("Water").to_string(),
            scheme: a.scheme()?,
            nodes: a.count("nodes", 8, MAX_NODES)?,
            contexts: a.contexts(a.scheme()?, 4)?,
            work: a.num("work", 400_000)?,
            seed: a.num("seed", 0x19941004)?,
        },
        "sweep" => Command::Sweep {
            artifact: a.string("artifact").unwrap_or_default(),
            jobs: a.opt_num("jobs")?,
            scale: a.scale()?.unwrap_or(Scale::Ci),
            json: a.string("json"),
            seed: a.opt_num("seed")?,
            mp_jobs: a.opt_num("mp-jobs")?,
            shard: a.typed("shard", "K/N with 1 <= K <= N", Shard::parse)?,
            checkpoint_dir: a.string("checkpoint-dir"),
            profile: a.switch("profile"),
            progress: a.switch("progress"),
        },
        "serve" => {
            let default = ServerConfig::default();
            Command::Serve(ServerConfig {
                addr: a.string("addr").unwrap_or(default.addr),
                queue_depth: a.num("queue-depth", default.queue_depth)?.max(1),
                workers: a.num("workers", default.workers)?,
                cache_dir: a.get("cache-dir").map(Into::into),
            })
        }
        "submit" => Command::Submit {
            addr: a.string("addr"),
            request: JobRequest {
                artifact: a.string("artifact").unwrap_or_default(),
                scale: a.scale()?,
                seed: a.opt_num("seed")?,
                jobs: a.opt_num("jobs")?,
                mp_jobs: a.opt_num("mp-jobs")?,
            },
            wait: a.switch("wait"),
            json: a.string("json"),
            timeout_secs: a.num("timeout-secs", 600)?,
        },
        "poll" => Command::Poll {
            addr: a.string("addr"),
            id: a
                .positionals
                .first()
                .map(|raw| {
                    raw.parse::<u64>().map_err(|_| {
                        CliError(format!("poll: JOB_ID must be a number, got `{raw}`"))
                    })
                })
                .transpose()?,
            stats: a.switch("stats"),
        },
        "trace" => Command::Trace {
            file: a.string("file"),
            workload: workload(),
            scheme: a.scheme()?,
            contexts: a.contexts(a.scheme()?, 2)?,
            max_cycles: a.num("max-cycles", 20_000)?,
            seed: a.num("seed", 0x19940501)?,
            out: a.string("out"),
        },
        "list" => Command::List,
        "help" => Command::Help,
        other => unreachable!("subcommand `{other}` is in the table but has no command"),
    })
}

fn find_workload(name: &str) -> Result<Workload, CliError> {
    mixes::all()
        .into_iter()
        .find(|w| w.name.eq_ignore_ascii_case(name))
        .ok_or_else(|| CliError(format!("unknown workload `{name}` (try `list`)")))
}

fn find_app(name: &str) -> Result<SplashProfile, CliError> {
    splash_suite()
        .into_iter()
        .find(|a| a.name.eq_ignore_ascii_case(name))
        .ok_or_else(|| CliError(format!("unknown application `{name}` (try `list`)")))
}

/// Writes a sweep's `BENCH_*` and `METRICS_*` documents into `dir`, plus
/// `PROFILE_*` when the sweep ran under the host profiler, printing each
/// path.
fn write_artifacts(sweep: &SweepResult, dir: &str) -> Result<(), CliError> {
    let dir = std::path::Path::new(dir);
    let err =
        |e: std::io::Error| CliError(format!("cannot write JSON into `{}`: {e}", dir.display()));
    let written =
        [sweep.write_json(dir).map_err(err)?, sweep.write_metrics_json(dir).map_err(err)?];
    for path in written.into_iter().chain(sweep.write_profile_json(dir).map_err(err)?) {
        println!("wrote {}", path.display());
    }
    Ok(())
}

/// Resolves a daemon address: flag value, else the default port.
/// Tolerates a pasted `http://` prefix.
fn service_addr(addr: Option<String>) -> String {
    let addr = addr.unwrap_or_else(|| ServerConfig::default().addr);
    addr.strip_prefix("http://").unwrap_or(&addr).trim_end_matches('/').to_string()
}

/// Renders a host-phase profile as a table sorted by self time, with
/// each phase's share of the sweep's wall clock.
fn phase_table(
    artifact: &str,
    profile: &crate::obs::profile::PhaseProfile,
    wall: std::time::Duration,
) -> Table {
    let wall_ns = (wall.as_nanos().max(1)) as f64;
    let mut phases: Vec<_> = profile.iter().collect();
    phases.sort_by(|a, b| b.1.self_ns.cmp(&a.1.self_ns).then_with(|| a.0.cmp(b.0)));
    let mut t = Table::new(format!("host phases — {artifact}"));
    t.headers(["phase", "calls", "total ms", "self ms", "% of wall"]);
    for (name, s) in phases {
        t.row([
            name.to_string(),
            s.calls.to_string(),
            format!("{:.2}", s.total_ns as f64 / 1e6),
            format!("{:.2}", s.self_ns as f64 / 1e6),
            format!("{:.1}%", s.self_ns as f64 / wall_ns * 100.0),
        ]);
    }
    t
}

fn breakdown_report(title: &str, b: &crate::stats::Breakdown) -> Table {
    let mut t = Table::new(title.to_string());
    t.headers(["category", "cycles", "fraction"]);
    for c in Category::ALL {
        t.row([
            c.label().to_string(),
            b.get(c).to_string(),
            format!("{:.1}%", b.fraction(c) * 100.0),
        ]);
    }
    t
}

fn registry_table(metrics: &Registry) -> Table {
    let mut t = Table::new("metric registry");
    t.headers(["name", "value", "count", "mean", "min..max"]);
    for (name, metric) in metrics.iter() {
        t.row(match metric {
            Metric::Counter(v) => {
                [name.to_string(), v.to_string(), "-".into(), "-".into(), "-".into()]
            }
            Metric::Histogram(h) => [
                name.to_string(),
                "-".into(),
                h.count().to_string(),
                format!("{:.1}", h.mean()),
                format!("{}..{}", h.min(), h.max()),
            ],
        });
    }
    t
}

/// Executes a parsed command, printing reports to stdout.
///
/// # Errors
///
/// Returns [`CliError`] for unknown names or unreadable trace files.
pub fn run(command: Command) -> Result<(), CliError> {
    match command {
        Command::Help => print!("{}", usage()),
        Command::List => {
            let mut t = Table::new("Table 5: uniprocessor workloads (four applications each)");
            t.headers(["Workload", "App 1", "App 2", "App 3", "App 4"]);
            for w in mixes::all() {
                t.row(std::iter::once(w.name).chain(w.apps.iter().map(|a| a.name)));
            }
            println!("{t}");
            let mut t = Table::new("Table 9: SPLASH application models");
            t.headers([
                "App",
                "sharing",
                "shared KB",
                "locks",
                "cs len",
                "barrier period",
                "fp-div frac",
            ]);
            for app in splash_suite() {
                t.row([
                    app.name.to_string(),
                    format!("{:?}", app.pattern),
                    (app.shared_bytes / 1024).to_string(),
                    app.lock_period.map(|p| format!("every {p}")).unwrap_or_else(|| "-".into()),
                    if app.lock_period.is_some() { app.cs_len.to_string() } else { "-".into() },
                    app.barrier_period.map(|p| p.to_string()).unwrap_or_else(|| "-".into()),
                    format!("{:.2}", app.compute.fp_div_frac),
                ]);
            }
            println!("{t}");
            println!("Artifacts (`sweep --artifact NAME`) and the experiment grids each runs");
            for a in ARTIFACTS {
                println!("  {:<22}{:>2}  {}", a.name, (a.specs)(Scale::Ci).len(), a.about);
            }
        }
        Command::Uni { workload, scheme, contexts, quota, seed, json } => {
            let workload = find_workload(&workload)?;
            let result = MultiprogramSim::builder(workload.clone())
                .scheme(scheme)
                .contexts(contexts)
                .quota(quota)
                .seed(seed)
                .build()
                .run();
            println!(
                "{} | {scheme:?} x{contexts} | {} cycles | IPC {:.3}\n",
                workload.name,
                result.cycles,
                result.throughput()
            );
            println!("{}", breakdown_report("execution-time breakdown", &result.breakdown));
            let count = |name: &str| result.metrics.counter_value(name).unwrap_or(0);
            // `part` as a percentage of `part + rest` (0 when both are 0).
            let pct = |part: &str, rest: &str| {
                let (p, r) = (count(part), count(rest));
                p as f64 * 100.0 / (p + r).max(1) as f64
            };
            println!(
                "memory: {:.1}% L1D miss, {:.2}% L1I miss, {} DTLB misses, {:.0}% of misses hit L2",
                pct("mem.l1d.misses", "mem.l1d.hits"),
                pct("mem.l1i.misses", "mem.l1i.hits"),
                count("mem.dtlb.misses"),
                pct("mem.l2.hits", "mem.l2.misses"),
            );
            println!("\n{}", registry_table(&result.metrics));
            if let Some(path) = json {
                std::fs::write(&path, format!("{}\n", result.metrics.to_json_line()))
                    .map_err(|e| CliError(format!("cannot write `{path}`: {e}")))?;
                println!("wrote {path}");
            }
        }
        Command::Mp { app, scheme, nodes, contexts, work, seed } => {
            let app = find_app(&app)?;
            let result = MpSim::builder(app.clone())
                .scheme(scheme)
                .nodes(nodes)
                .contexts(contexts)
                .work(work)
                .seed(seed)
                .build()
                .run();
            println!(
                "{} | {scheme:?} | {nodes} nodes x {contexts} contexts = {} threads | {} cycles\n",
                app.name, result.threads, result.cycles
            );
            println!("{}", breakdown_report("all-processor breakdown", &result.breakdown));
            let d = result.directory;
            println!(
                "protocol: {} local, {} remote, {} remote-cache, {} upgrades, {} invalidations",
                d.local, d.remote, d.remote_cache, d.upgrades, d.invalidations
            );
        }
        Command::Sweep {
            artifact,
            jobs,
            scale,
            json,
            seed,
            mp_jobs,
            shard,
            checkpoint_dir,
            profile,
            progress,
        } => {
            let artifact = crate::bench::artifacts::find(&artifact).map_err(CliError)?;
            let specs = resolve_specs(artifact.name, scale, seed, mp_jobs).map_err(CliError)?;
            if specs.is_empty() {
                let grid_flags = [
                    ("--json", json.is_some()),
                    ("--shard", shard.is_some()),
                    ("--checkpoint-dir", checkpoint_dir.is_some()),
                    ("--profile", profile),
                ];
                if let Some((flag, _)) = grid_flags.iter().find(|(_, set)| *set) {
                    return Err(CliError(format!(
                        "artifact `{}` runs no grid, so {flag} has nothing to act on",
                        artifact.name
                    )));
                }
            }
            // A slice is not an artifact: a shard fills the checkpoint
            // store, and a whole-grid sweep over the shards' combined
            // checkpoints writes the artifacts.
            if shard.is_some() && checkpoint_dir.is_none() {
                return Err(CliError(
                    "--shard requires --checkpoint-dir: a shard's cells are kept only as \
                     checkpoints"
                        .into(),
                ));
            }
            if shard.is_some() && json.is_some() {
                return Err(CliError(
                    "--shard rejects --json: a slice is not an artifact; run `sweep` without \
                     --shard over the shards' combined --checkpoint-dir to write it"
                        .into(),
                ));
            }
            if profile {
                crate::obs::profile::set_enabled(true);
            }
            let jobs = jobs.unwrap_or_else(|| {
                std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
            });
            let mut runner = Runner::new(jobs).progress(progress);
            if let Some(shard) = shard {
                runner = runner.shard(shard);
            }
            if let Some(dir) = checkpoint_dir {
                runner = runner.checkpoint_dir(dir);
            }
            let sweeps: Vec<SweepResult> = specs.iter().map(|spec| runner.run(spec)).collect();
            // A shard holds only a slice of each grid, which the paper
            // layouts cannot render; show the generic per-cell table.
            if shard.is_some() {
                sweeps.iter().for_each(|s| println!("{}", s.to_table()));
            } else {
                print!("{}", (artifact.render)(&sweeps));
            }
            let shard_note =
                shard.map(|s| format!(" [shard {}/{}]", s.index(), s.count())).unwrap_or_default();
            for sweep in &sweeps {
                let resume_note = if sweep.resumed > 0 {
                    format!(" ({} resumed from checkpoints)", sweep.resumed)
                } else {
                    String::new()
                };
                println!(
                    "{}: {} cells{shard_note}{resume_note}, {} jobs, {:.2?} wall, {} scale",
                    sweep.name,
                    sweep.cells.len(),
                    sweep.jobs,
                    sweep.wall,
                    sweep.scale.name()
                );
                // Present whenever the profiler ran (`--profile`).
                if let Some(profile) = sweep.profile.as_ref().filter(|p| !p.is_empty()) {
                    println!("{}", phase_table(&sweep.name, profile, sweep.wall));
                    println!(
                        "phase self-times cover {:.1}% of wall",
                        profile.total_self_ns() as f64 / sweep.wall.as_nanos().max(1) as f64
                            * 100.0
                    );
                }
                if let Some(dir) = &json {
                    write_artifacts(sweep, dir)?;
                }
            }
        }
        Command::Serve(config) => {
            let bind_addr = config.addr.clone();
            let cache_note = config
                .cache_dir
                .as_ref()
                .map(|d| format!(", cache {}", d.display()))
                .unwrap_or_default();
            let server = crate::server::Server::bind(config)
                .map_err(|e| CliError(format!("cannot bind `{bind_addr}`: {e}")))?;
            // Scripts grep this line to capture the resolved ephemeral
            // port, so flush it before blocking in the accept loop.
            println!("serve: listening on http://{}{cache_note}", server.local_addr());
            {
                use std::io::Write;
                std::io::stdout().flush().ok();
            }
            server.run().map_err(|e| CliError(format!("server error: {e}")))?;
            println!("serve: shut down cleanly");
        }
        Command::Submit { addr, request, wait, json, timeout_secs } => {
            let addr = service_addr(addr);
            let artifact = &request.artifact;
            let started = std::time::Instant::now();
            let response = crate::server::client::post(&addr, "/jobs", &request.to_json())
                .map_err(|e| CliError(format!("cannot reach daemon at `{addr}`: {e}")))?;
            if response.status != 202 {
                return Err(CliError(format!(
                    "submit rejected (HTTP {}): {}",
                    response.status,
                    response.body.trim_end()
                )));
            }
            let doc = crate::obs::json::parse(&response.body)
                .map_err(|e| CliError(format!("daemon sent invalid JSON: {e}")))?;
            let id = doc
                .get("id")
                .and_then(|v| v.as_u64())
                .ok_or_else(|| CliError("daemon response has no job id".into()))?;
            let cells = doc.get("cells").and_then(|v| v.as_u64()).unwrap_or(0);
            println!("job {id}: {artifact} ({cells} cells) queued on http://{addr}");
            if !wait && json.is_none() {
                println!("poll with `interleave-sim poll {id} --addr {addr}`");
                return Ok(());
            }
            let deadline = started + std::time::Duration::from_secs(timeout_secs);
            let status = loop {
                let response = crate::server::client::get(&addr, &format!("/jobs/{id}"))
                    .map_err(|e| CliError(format!("cannot poll job {id}: {e}")))?;
                let doc = crate::obs::json::parse(&response.body)
                    .map_err(|e| CliError(format!("daemon sent invalid JSON: {e}")))?;
                match doc.get("state").and_then(|v| v.as_str()) {
                    Some("done") => break doc,
                    Some("failed") => {
                        let why = doc
                            .get("error")
                            .and_then(|v| v.as_str())
                            .unwrap_or("unknown error")
                            .to_string();
                        return Err(CliError(format!("job {id} failed: {why}")));
                    }
                    _ => {}
                }
                if std::time::Instant::now() >= deadline {
                    return Err(CliError(format!(
                        "timed out after {timeout_secs}s waiting on job {id}"
                    )));
                }
                std::thread::sleep(std::time::Duration::from_millis(100));
            };
            let roundtrip_ms = u64::try_from(started.elapsed().as_millis()).unwrap_or(u64::MAX);
            let cached = status.get("cached_cells").and_then(|v| v.as_u64()).unwrap_or(0);
            let total = status.get("cells").and_then(|v| v.as_u64()).unwrap_or(cells);
            println!("job {id} done in {roundtrip_ms} ms: {total} cells, {cached} from cache");
            if let Some(dir) = json {
                let dir = std::path::Path::new(&dir);
                std::fs::create_dir_all(dir)
                    .map_err(|e| CliError(format!("cannot create `{}`: {e}", dir.display())))?;
                for (route, prefix) in [("bench", "BENCH"), ("metrics", "METRICS")] {
                    let response =
                        crate::server::client::get(&addr, &format!("/jobs/{id}/{route}"))
                            .map_err(|e| CliError(format!("cannot fetch job {id} {route}: {e}")))?;
                    if response.status != 200 {
                        return Err(CliError(format!(
                            "fetching job {id} {route} failed (HTTP {}): {}",
                            response.status,
                            response.body.trim_end()
                        )));
                    }
                    let path = dir.join(format!("{prefix}_{artifact}.json"));
                    std::fs::write(&path, &response.body)
                        .map_err(|e| CliError(format!("cannot write `{}`: {e}", path.display())))?;
                    println!("wrote {}", path.display());
                }
                let mut fields = vec![
                    "\"schema\": \"interleave-serve-v1\"".to_string(),
                    format!("\"artifact\": {}", crate::obs::json::escape(artifact)),
                    format!("\"job\": {id}"),
                    format!("\"cells\": {total}"),
                    format!("\"cached_cells\": {cached}"),
                    format!("\"serve_roundtrip_ms\": {roundtrip_ms}"),
                ];
                // Present only when every cell came out of the result
                // cache, so a gate keyed on it fails loudly (missing
                // key) if the cache missed.
                if total > 0 && cached == total {
                    fields.push(format!("\"serve_cached_roundtrip_ms\": {roundtrip_ms}"));
                }
                let path = dir.join(format!("SERVE_{artifact}.json"));
                std::fs::write(&path, format!("{{{}}}\n", fields.join(", ")))
                    .map_err(|e| CliError(format!("cannot write `{}`: {e}", path.display())))?;
                println!("wrote {}", path.display());
            }
        }
        Command::Poll { addr, id, stats } => {
            let addr = service_addr(addr);
            let path = if stats {
                "/stats".to_string()
            } else {
                match id {
                    Some(id) => format!("/jobs/{id}"),
                    None => "/healthz".to_string(),
                }
            };
            let response = crate::server::client::get(&addr, &path)
                .map_err(|e| CliError(format!("cannot reach daemon at `{addr}`: {e}")))?;
            if response.status != 200 {
                return Err(CliError(format!(
                    "poll {path} failed (HTTP {}): {}",
                    response.status,
                    response.body.trim_end()
                )));
            }
            print!("{}", response.body);
        }
        Command::Trace { file, workload, scheme, contexts, max_cycles, seed, out } => {
            let mut cpu = crate::core::Processor::new(
                crate::core::ProcConfig::new(scheme, contexts),
                crate::mem::UniMemSystem::new(crate::mem::MemConfig::workstation()),
            );
            let label = match &file {
                Some(path) => {
                    let text = std::fs::read_to_string(path)
                        .map_err(|e| CliError(format!("cannot read `{path}`: {e}")))?;
                    let source = crate::workloads::trace::TraceSource::from_text(&text, 0x1000)
                        .map_err(|e| CliError(e.to_string()))?;
                    cpu.attach(0, Box::new(source));
                    path.clone()
                }
                None => {
                    let workload = find_workload(&workload)?;
                    for ctx in 0..contexts {
                        let profile = workload.apps[ctx % workload.apps.len()];
                        cpu.attach(ctx, Box::new(SyntheticApp::new(profile, ctx, seed)));
                    }
                    format!("{} (synthetic)", workload.name)
                }
            };
            cpu.set_trace(true);
            let cycles = cpu.run_until_done(max_cycles);
            let retired: u64 = (0..contexts).map(|c| cpu.retired(c)).sum();
            println!(
                "{label} | {scheme:?} x{contexts} | {retired} instructions in {cycles} cycles \
                 (IPC {:.3})\n",
                retired as f64 / cycles.max(1) as f64
            );
            println!("{}", breakdown_report("execution-time breakdown", cpu.breakdown()));
            let doc = cpu.chrome_trace().to_json();
            let summary = crate::obs::chrome::validate(&doc)
                .map_err(|e| CliError(format!("generated trace failed validation: {e}")))?;
            println!(
                "trace: {} events, {} spans on {} tracks",
                summary.events,
                summary.spans,
                summary.spans_by_track.len()
            );
            if let Some(out) = out {
                std::fs::write(&out, &doc)
                    .map_err(|e| CliError(format!("cannot write `{out}`: {e}")))?;
                println!("wrote {out}");
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_uni_defaults() {
        let cmd = parse(&argv("uni")).unwrap();
        assert_eq!(
            cmd,
            Command::Uni {
                workload: "FP".into(),
                scheme: Scheme::Interleaved,
                contexts: 4,
                quota: 40_000,
                seed: 0x19940501,
                json: None,
            }
        );
    }

    #[test]
    fn parses_uni_flags() {
        let cmd = parse(&argv(
            "uni --workload DC --scheme blocked --contexts 2 --quota 999 --json m.json",
        ))
        .unwrap();
        match cmd {
            Command::Uni { workload, scheme, contexts, quota, json, .. } => {
                assert_eq!(workload, "DC");
                assert_eq!(scheme, Scheme::Blocked);
                assert_eq!(contexts, 2);
                assert_eq!(quota, 999);
                assert_eq!(json.as_deref(), Some("m.json"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_metrics() {
        // The registry dump that `metrics` produced is now `uni --json`.
        match parse(&argv("uni --workload DC --quota 500 --json m.json")).unwrap() {
            Command::Uni { workload, quota, json, .. } => {
                assert_eq!(workload, "DC");
                assert_eq!(quota, 500);
                assert_eq!(json.as_deref(), Some("m.json"));
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&argv("metrics --workload DC --quota 500 --json m.json")).is_err());
    }

    #[test]
    fn parses_mp_and_trace() {
        assert!(matches!(parse(&argv("mp --app MP3D --nodes 4")).unwrap(), Command::Mp { .. }));
        match parse(&argv("trace --file t.txt --scheme hep")).unwrap() {
            Command::Trace { file, scheme, .. } => {
                assert_eq!(file.as_deref(), Some("t.txt"));
                assert_eq!(scheme, Scheme::FineGrained);
            }
            other => panic!("{other:?}"),
        }
        // No --file: synthetic-workload mode with defaults.
        match parse(&argv("trace --max-cycles 5000 --out t.json")).unwrap() {
            Command::Trace { file, workload, max_cycles, out, .. } => {
                assert_eq!(file, None);
                assert_eq!(workload, "FP");
                assert_eq!(max_cycles, 5000);
                assert_eq!(out.as_deref(), Some("t.json"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&argv("frobnicate")).is_err());
        assert!(parse(&argv("uni --scheme warp")).is_err());
        assert!(parse(&argv("uni --contexts")).is_err());
        assert!(parse(&argv("uni contexts 4")).is_err());
        assert!(parse(&argv("trace --file")).is_err());
        assert!(parse(&argv("uni --quota abc")).is_err());
        assert!(parse(&argv("sweep")).is_err());
        assert!(parse(&argv("sweep --artifact table7 --scale huge")).is_err());
        assert!(parse(&argv("sweep --artifact table7 --jobs x")).is_err());
        assert!(parse(&argv("sweep --artifact table10 --mp-jobs x")).is_err());
        // Retired: the fixed barrier schedule is a test-oracle switch now.
        assert!(parse(&argv("sweep --artifact table10 --adaptive off")).is_err());
    }

    /// Every subcommand in the table rejects an unknown flag, a repeated
    /// flag and a value flag with no value, naming the flag each time.
    #[test]
    fn parser_rejects_unknown_repeated_and_valueless_flags() {
        let expect_err = |line: Vec<String>, flag: &str| {
            let err = parse(&line).expect_err(&format!("{line:?} should be rejected"));
            assert!(err.0.contains(flag) && err.0.contains(&line[0]), "{line:?} -> {err}");
        };
        for &(sub, line) in SUBCOMMANDS {
            let spec = usage_args(line);
            // The smallest accepted command line: one of each required
            // positional, every required flag.
            let mut base = vec![sub.to_string()];
            for arg in spec.iter().filter(|a| !a.optional) {
                match arg.hint {
                    Some(_) => base.extend([arg.name.to_string(), "1".into()]),
                    None => base.push("x".into()),
                }
            }
            let with = |extra: &[&str]| {
                base.iter().cloned().chain(extra.iter().map(|s| s.to_string())).collect::<Vec<_>>()
            };
            if sub != "help" {
                assert!(parse(&base).is_ok(), "{base:?} should parse");
            }
            expect_err(with(&["--nope", "x"]), "--nope");
            let Some(flag) = spec.iter().find(|a| a.hint.is_some()) else { continue };
            let name = flag.name;
            if flag.optional {
                expect_err(with(&[name, "1", name, "1"]), name);
                expect_err(with(&[name]), name);
            } else {
                expect_err(with(&[name, "1"]), name);
            }
        }
        for (line, flag) in [
            ("uni --sede 7", "--sede"),
            ("sweep --artifact smoke --jbos 1", "--jbos"),
            ("uni --quota 1 --quota 2", "--quota"),
            ("poll --frob x 1", "--frob"),
            ("uni --contexts --quota 3", "--contexts"),
            // No status directory: sweeps report through `--progress`,
            // daemon jobs through `/jobs/<id>/events`.
            ("sweep --artifact smoke --status-dir d", "--status-dir"),
            ("serve --status-dir d", "--status-dir"),
            // The profiler is a switch with one output, not a trace path.
            ("sweep --artifact smoke --trace-out h.json", "--trace-out"),
        ] {
            expect_err(argv(line), flag);
        }
        let err = parse(&argv("watch x")).unwrap_err();
        assert!(err.0.contains("unknown subcommand `watch`"), "{}", err.0);
    }

    /// Context and node counts outside what the hardware model supports
    /// are parse errors (exit 2), not panics inside the simulator.
    #[test]
    fn parser_rejects_unsupported_context_and_node_counts() {
        for (line, needle) in [
            ("uni --contexts 0", "--contexts expects 1 to 64, got 0"),
            ("uni --contexts 65", "--contexts expects 1 to 64, got 65"),
            ("uni --scheme single --contexts 4", "--contexts expects 1 to 1, got 4"),
            ("trace --contexts 100000", "--contexts expects 1 to 64"),
            ("mp --contexts 65", "--contexts expects 1 to 64"),
            ("mp --nodes 0", "--nodes expects 1 to 64, got 0"),
            ("mp --nodes 65", "--nodes expects 1 to 64, got 65"),
        ] {
            let err = parse(&argv(line)).expect_err(line);
            assert!(err.0.contains(needle), "{line} -> {err}");
        }
        match parse(&argv("uni --contexts 64")).unwrap() {
            Command::Uni { contexts, .. } => assert_eq!(contexts, 64),
            other => panic!("{other:?}"),
        }
        match parse(&argv("uni --scheme single")).unwrap() {
            Command::Uni { contexts, .. } => assert_eq!(contexts, 1, "single defaults to one"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn usage_is_generated_from_the_table() {
        let text = usage();
        for &(sub, line) in SUBCOMMANDS {
            assert!(text.contains(&format!("interleave-sim {sub}")), "{sub}");
            for arg in usage_args(line) {
                assert!(text.contains(arg.text), "{sub} {}", arg.text);
            }
        }
        assert_eq!(SUBCOMMANDS.len(), 9);
        let commands = text.split("SCHEMES:").next().unwrap();
        assert!(commands.lines().all(|l| l.len() <= 80 && l == l.trim_end()), "{text}");
    }

    #[test]
    fn parses_sweep() {
        let cmd = parse(&argv(
            "sweep --artifact table7 --jobs 4 --scale full --json out --seed 9 --mp-jobs 2 \
             --profile --progress",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Sweep {
                artifact: "table7".into(),
                jobs: Some(4),
                scale: Scale::Full,
                json: Some("out".into()),
                seed: Some(9),
                mp_jobs: Some(2),
                shard: None,
                checkpoint_dir: None,
                profile: true,
                progress: true,
            }
        );
        // Defaults: machine jobs, ci scale, serial MP cells.
        assert_eq!(
            parse(&argv("sweep --artifact table10")).unwrap(),
            Command::Sweep {
                artifact: "table10".into(),
                jobs: None,
                scale: Scale::Ci,
                json: None,
                seed: None,
                mp_jobs: None,
                shard: None,
                checkpoint_dir: None,
                profile: false,
                progress: false,
            }
        );
    }

    #[test]
    fn parses_profile() {
        // The phase profile that `profile` produced is now `sweep --profile`.
        let cmd = parse(&argv(
            "sweep --artifact smoke --jobs 2 --scale ci --json out --seed 7 --profile",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Sweep {
                artifact: "smoke".into(),
                jobs: Some(2),
                scale: Scale::Ci,
                json: Some("out".into()),
                seed: Some(7),
                mp_jobs: None,
                shard: None,
                checkpoint_dir: None,
                profile: true,
                progress: false,
            }
        );
        assert!(parse(&argv("profile --artifact smoke")).is_err());
        assert!(parse(&argv("sweep --artifact smoke --scale huge --profile")).is_err());
        // A switch takes no value.
        assert!(parse(&argv("sweep --artifact smoke --profile h.json")).is_err());
    }

    #[test]
    fn parses_sweep_shard_and_checkpoint() {
        match parse(&argv("sweep --artifact table7 --shard 2/4 --checkpoint-dir ckpt")).unwrap() {
            Command::Sweep { shard, checkpoint_dir, .. } => {
                assert_eq!(shard, Some(Shard::new(2, 4)));
                assert_eq!(checkpoint_dir.as_deref(), Some("ckpt"));
            }
            other => panic!("{other:?}"),
        }
        for bad in ["0/4", "5/4", "2-4", "x/y", "4"] {
            assert!(
                parse(&argv(&format!("sweep --artifact table7 --shard {bad}"))).is_err(),
                "--shard {bad} should be rejected"
            );
        }
    }

    /// A shard only fills the checkpoint store: it needs a checkpoint
    /// directory and refuses to write a slice as an artifact. Grids are
    /// assembled by a whole-grid sweep over the checkpoints, not by a
    /// subcommand.
    #[test]
    fn sweep_shard_writes_only_checkpoints() {
        for (line, flags) in [
            ("sweep --artifact smoke --shard 1/2", ["--shard", "--checkpoint-dir"]),
            (
                "sweep --artifact smoke --shard 1/2 --checkpoint-dir c --json o",
                ["--shard", "--json"],
            ),
        ] {
            let err = run(parse(&argv(line)).unwrap()).unwrap_err();
            assert!(flags.iter().all(|f| err.0.contains(f)), "{line} -> {}", err.0);
        }
        let err = parse(&argv("merge --out o d")).unwrap_err();
        assert!(err.0.contains("unknown subcommand `merge`"), "{}", err.0);
    }

    #[test]
    fn parses_serve_submit_and_poll() {
        assert_eq!(
            parse(&argv("serve --addr 127.0.0.1:0 --queue-depth 8 --workers 2 --cache-dir c"))
                .unwrap(),
            Command::Serve(ServerConfig {
                addr: "127.0.0.1:0".into(),
                queue_depth: 8,
                workers: 2,
                cache_dir: Some("c".into()),
            })
        );
        assert_eq!(parse(&argv("serve")).unwrap(), Command::Serve(ServerConfig::default()));
        assert_eq!(
            parse(&argv(
                "submit --artifact smoke --addr 127.0.0.1:4994 --seed 7 --wait --json out \
                 --timeout-secs 30"
            ))
            .unwrap(),
            Command::Submit {
                addr: Some("127.0.0.1:4994".into()),
                request: JobRequest {
                    artifact: "smoke".into(),
                    scale: None,
                    seed: Some(7),
                    jobs: None,
                    mp_jobs: None,
                },
                wait: true,
                json: Some("out".into()),
                timeout_secs: 30,
            }
        );
        assert!(parse(&argv("submit")).is_err(), "submit needs --artifact");
        assert!(parse(&argv("submit --artifact smoke --adaptive off")).is_err());
        assert_eq!(
            parse(&argv("poll 3 --addr a:1")).unwrap(),
            Command::Poll { addr: Some("a:1".into()), id: Some(3), stats: false }
        );
        assert_eq!(
            parse(&argv("poll --stats")).unwrap(),
            Command::Poll { addr: None, id: None, stats: true }
        );
        assert!(parse(&argv("poll nope")).is_err(), "job ids are numeric");
    }

    #[test]
    fn service_addr_strips_http_prefix() {
        assert_eq!(service_addr(Some("http://127.0.0.1:9/".into())), "127.0.0.1:9");
        assert_eq!(service_addr(Some("host:1".into())), "host:1");
    }

    #[test]
    fn submit_wait_fetches_artifacts_and_watch_streams() {
        let dir = std::env::temp_dir().join(format!("ilv_cli_serve_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let server = crate::server::Server::bind(ServerConfig {
            addr: "127.0.0.1:0".into(),
            queue_depth: 4,
            workers: 1,
            cache_dir: Some(dir.join("cache")),
        })
        .unwrap();
        let addr = server.local_addr().to_string();
        let handle = std::thread::spawn(move || server.run());
        let submit = |addr: String, out: &std::path::Path| {
            run(Command::Submit {
                addr: Some(addr),
                request: JobRequest {
                    artifact: "smoke".into(),
                    scale: Some(Scale::Ci),
                    seed: Some(11),
                    jobs: Some(1),
                    mp_jobs: None,
                },
                wait: true,
                json: Some(out.to_string_lossy().into_owned()),
                timeout_secs: 120,
            })
        };
        let out = dir.join("out");
        // `http://` prefixes are tolerated on --addr.
        submit(format!("http://{addr}"), &out).unwrap();
        for name in ["BENCH_smoke.json", "METRICS_smoke.json", "SERVE_smoke.json"] {
            assert!(out.join(name).is_file(), "{name} missing");
        }
        let serve_doc = std::fs::read_to_string(out.join("SERVE_smoke.json")).unwrap();
        assert!(serve_doc.contains("\"serve_roundtrip_ms\""), "{serve_doc}");
        // Nothing was cached on the first submit, so the cached-path
        // key must be absent.
        assert!(!serve_doc.contains("serve_cached_roundtrip_ms"), "{serve_doc}");
        // A resubmit of the same spec is served fully from the cache.
        let out2 = dir.join("out2");
        submit(addr.clone(), &out2).unwrap();
        let serve_doc = std::fs::read_to_string(out2.join("SERVE_smoke.json")).unwrap();
        assert!(serve_doc.contains("\"serve_cached_roundtrip_ms\""), "{serve_doc}");
        // The deterministic METRICS document is byte-identical across
        // the fresh and the cached round-trip.
        assert_eq!(
            std::fs::read(out.join("METRICS_smoke.json")).unwrap(),
            std::fs::read(out2.join("METRICS_smoke.json")).unwrap()
        );
        // A finished job's events stream replays its final snapshot.
        let mut last = String::new();
        crate::server::client::stream_lines(&addr, "/jobs/2/events", |frame| {
            last = frame.to_string();
            true
        })
        .unwrap();
        let last = crate::obs::json::parse(&last).unwrap();
        assert_eq!(last.get("finished").and_then(|v| v.as_bool()), Some(true));
        // `poll` answers for a job, the stats page, and health.
        run(Command::Poll { addr: Some(addr.clone()), id: Some(1), stats: false }).unwrap();
        run(Command::Poll { addr: Some(addr.clone()), id: None, stats: true }).unwrap();
        run(Command::Poll { addr: Some(addr.clone()), id: None, stats: false }).unwrap();
        assert!(
            run(Command::Poll { addr: Some(addr.clone()), id: Some(99), stats: false }).is_err()
        );
        let _ = crate::server::client::post(&addr, "/shutdown", "");
        handle.join().unwrap().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sweep_profile_emits_phase_artifacts() {
        let dir = std::env::temp_dir().join(format!("ilv_profile_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let line = format!("sweep --artifact smoke --jobs 1 --json {} --profile", dir.display());
        run(parse(&argv(&line)).unwrap()).unwrap();
        // One profiler output: the directory holds the grid's BENCH and
        // METRICS pair plus its PROFILE, and nothing else.
        let mut files: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        files.sort();
        assert_eq!(files, ["BENCH_smoke.json", "METRICS_smoke.json", "PROFILE_smoke.json"]);
        // The acceptance bar: the phase self-times in the emitted
        // PROFILE document cover at least 90% of the measured wall.
        let doc = std::fs::read_to_string(dir.join("PROFILE_smoke.json")).unwrap();
        let doc = crate::obs::json::parse(&doc).unwrap();
        let wall_ns = doc.get("wall_ns").unwrap().as_u64().unwrap();
        let phases =
            crate::obs::profile::PhaseProfile::from_value(doc.get("phases").unwrap()).unwrap();
        assert!(phases.get("runner.cell").is_some());
        assert!(
            phases.total_self_ns() as f64 >= wall_ns as f64 * 0.9,
            "self {} vs wall {wall_ns}",
            phases.total_self_ns()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sweep_rejects_unknown_artifact() {
        let err = run(parse(&argv("sweep --artifact table99 --jobs 1")).unwrap()).unwrap_err();
        assert!(err.0.contains("unknown artifact"));
    }

    #[test]
    fn sweep_rejects_grid_flags_for_artifacts_without_a_grid() {
        for flag in ["--json out", "--shard 1/2", "--checkpoint-dir c", "--profile"] {
            let cmd = parse(&argv(&format!("sweep --artifact table4 {flag}"))).unwrap();
            let err = run(cmd).unwrap_err();
            let flag = flag.split(' ').next().unwrap();
            assert!(err.0.contains("artifact `table4`") && err.0.contains(flag), "{}", err.0);
        }
    }

    #[test]
    fn empty_is_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&argv("help")).unwrap(), Command::Help);
    }

    #[test]
    fn list_runs() {
        run(Command::List).unwrap();
    }

    #[test]
    fn unknown_names_error() {
        let err = run(Command::Uni {
            workload: "nope".into(),
            scheme: Scheme::Single,
            contexts: 1,
            quota: 10,
            seed: 1,
            json: None,
        })
        .unwrap_err();
        assert!(err.0.contains("unknown workload"));
    }

    /// `uni --json` writes exactly the registry JSON of the same run.
    #[test]
    fn uni_json_writes_the_registry_of_the_same_run() {
        let path = std::env::temp_dir().join(format!("ilv_uni_{}.json", std::process::id()));
        run(Command::Uni {
            workload: "DC".into(),
            scheme: Scheme::Blocked,
            contexts: 2,
            quota: 2_000,
            seed: 7,
            json: Some(path.to_string_lossy().into_owned()),
        })
        .unwrap();
        let result = MultiprogramSim::builder(mixes::dc())
            .scheme(Scheme::Blocked)
            .contexts(2)
            .quota(2_000)
            .seed(7)
            .build()
            .run();
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            format!("{}\n", result.metrics.to_json_line())
        );
        std::fs::remove_file(&path).ok();
    }
}
