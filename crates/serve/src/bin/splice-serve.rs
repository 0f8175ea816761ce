//! The standalone daemon binary.
//!
//! ```text
//! splice-serve --socket PATH [tuning flags]   # run the daemon
//! splice-serve --worker                       # internal: worker mode
//! ```
//!
//! The `splice` CLI's `serve` subcommand drives the same library; this
//! binary exists so the integration tests have a self-contained
//! executable (`CARGO_BIN_EXE_splice-serve`) whose re-exec'd workers are
//! itself.

use splice_serve::{parse_args, run_worker, serve, USAGE};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--worker") {
        return ExitCode::from(run_worker() as u8);
    }
    // The default worker command is this executable with `--worker`.
    let (socket, config) = match parse_args(&args) {
        Ok(Some(parsed)) => parsed,
        Ok(None) => {
            println!("usage: splice-serve {USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("splice-serve: {e}\nusage: splice-serve {USAGE}");
            return ExitCode::from(2);
        }
    };
    match serve(&socket, config) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("splice-serve: {e}");
            ExitCode::from(3)
        }
    }
}
