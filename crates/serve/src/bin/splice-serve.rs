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

use splice_serve::supervisor::ServeConfig;
use splice_serve::{apply_config_flag, default_socket_path, run_worker, serve};
use std::process::ExitCode;

const USAGE: &str = "usage: splice-serve --socket PATH \
[--workers N] [--queue-cap N] [--per-client N] [--deadline-ms N] \
[--max-attempts N] [--breaker-threshold N] [--breaker-cooldown-ms N] \
[--backoff-base-ms N] [--backoff-cap-ms N] [--cache-cap N] [--seed N]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--worker") {
        return ExitCode::from(run_worker() as u8);
    }

    let mut config = ServeConfig::default();
    let mut socket: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        let flag = &args[i];
        match flag.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            "--socket" => {
                let Some(value) = args.get(i + 1) else {
                    eprintln!("splice-serve: --socket needs a path\n{USAGE}");
                    return ExitCode::from(2);
                };
                socket = Some(value.clone());
                i += 2;
            }
            _ => {
                let Some(value) = args.get(i + 1) else {
                    eprintln!("splice-serve: unknown or incomplete flag `{flag}`\n{USAGE}");
                    return ExitCode::from(2);
                };
                match apply_config_flag(&mut config, flag, value) {
                    Ok(true) => i += 2,
                    Ok(false) => {
                        eprintln!("splice-serve: unknown flag `{flag}`\n{USAGE}");
                        return ExitCode::from(2);
                    }
                    Err(e) => {
                        eprintln!("splice-serve: {e}\n{USAGE}");
                        return ExitCode::from(2);
                    }
                }
            }
        }
    }

    // Fault plans reach the daemon via env (the harness sets SPLICE_FAULT
    // on the daemon; the supervisor forwards it to workers explicitly).
    match splice_serve::fault::FaultPlan::from_env() {
        Ok(Some(_)) => config.fault = std::env::var("SPLICE_FAULT").ok(),
        Ok(None) => {}
        Err(e) => {
            eprintln!("splice-serve: bad SPLICE_FAULT: {e}");
            return ExitCode::from(2);
        }
    }

    let socket = socket.unwrap_or_else(default_socket_path);
    match serve(&socket, config) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("splice-serve: {e}");
            ExitCode::from(3)
        }
    }
}
