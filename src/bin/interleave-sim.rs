//! Command-line driver for the interleave simulator.
//!
//! ```console
//! $ interleave-sim uni --workload DC --scheme interleaved --contexts 4
//! $ interleave-sim mp --app Water --nodes 8 --contexts 8
//! $ interleave-sim sweep --artifact table7 --jobs 4 --json out/
//! $ interleave-sim trace --file my.trace
//! $ interleave-sim list
//! ```
//!
//! `interleave-sim help` lists every subcommand and flag. Flags are the
//! only configuration surface: an unknown, repeated or value-less flag
//! exits 2 with an error naming it.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match interleave::cli::parse(&args).and_then(interleave::cli::run) {
        Ok(()) => {}
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{}", interleave::cli::usage());
            std::process::exit(2);
        }
    }
}
