//! Command-line driver for the interleave simulator.
//!
//! ```console
//! $ interleave-sim uni --workload DC --scheme interleaved --contexts 4
//! $ interleave-sim mp --app Water --nodes 8 --contexts 8
//! $ interleave-sim trace --file my.trace
//! $ interleave-sim list
//! ```

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
