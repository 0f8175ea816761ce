//! The Unix-socket front end of the daemon.
//!
//! [`serve`] binds the socket, starts the [`Supervisor`], and accepts
//! connections until asked to stop — by SIGTERM/SIGINT (via
//! `splice_obs::interrupt`) or by a client `shutdown` request. Each
//! connection gets a reader thread; responses are written directly to the
//! socket under a per-connection mutex *from the thread that concluded
//! the job*, so by the time the supervisor's drain join returns, every
//! response byte for every admitted job has reached the kernel — the
//! graceful-drain guarantee the shutdown test pins.
//!
//! Protocol garbage (bad magic, oversized frames, invalid JSON) is
//! answered with a `protocol_error` response and a closed connection;
//! the daemon itself never dies on client input.

use crate::fault::FaultPlan;
use crate::protocol::{read_frame, write_frame, FrameError, Request, Response};
use crate::supervisor::{JobOutcome, ServeConfig, Supervisor};
use splice_obs::interrupt;
use std::io;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Run the daemon on `socket_path` until a shutdown signal or request.
/// Returns once the pool has fully drained.
pub fn serve(socket_path: &str, config: ServeConfig) -> io::Result<()> {
    let path = Path::new(socket_path);
    if path.exists() {
        // A live daemon answers a connect; a stale socket file refuses.
        match UnixStream::connect(path) {
            Ok(_) => {
                return Err(io::Error::new(
                    io::ErrorKind::AddrInUse,
                    format!("a daemon is already listening on {socket_path}"),
                ));
            }
            Err(_) => std::fs::remove_file(path)?,
        }
    }
    let listener = UnixListener::bind(path)?;
    listener.set_nonblocking(true)?;
    interrupt::install_sigint();
    interrupt::install_sigterm();

    let workers = config.workers;
    let supervisor = Arc::new(Supervisor::start(config));
    let shutdown = Arc::new(AtomicBool::new(false));
    let client_seq = AtomicU64::new(1);

    println!("splice-serve: listening on {socket_path} ({workers} workers)");

    loop {
        if shutdown.load(Ordering::Relaxed) || interrupt::stop_requested() {
            break;
        }
        match listener.accept() {
            Ok((stream, _addr)) => {
                let client = client_seq.fetch_add(1, Ordering::Relaxed);
                let sup = Arc::clone(&supervisor);
                let shut = Arc::clone(&shutdown);
                std::thread::Builder::new()
                    .name(format!("serve-conn-{client}"))
                    .spawn(move || handle_connection(stream, client, &sup, &shut))
                    .expect("spawn connection thread");
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => {
                // Listener broke; drain and report.
                supervisor.drain();
                let _ = std::fs::remove_file(path);
                return Err(e);
            }
        }
    }

    // Graceful drain: no new admissions, queued + running jobs complete,
    // workers get EOF and exit, managers join.
    println!("splice-serve: draining");
    supervisor.drain();
    supervisor.join();
    let _ = std::fs::remove_file(path);
    println!("splice-serve: drained, exiting");
    Ok(())
}

/// Serve one client connection until EOF, protocol error, or fatal IO.
fn handle_connection(
    stream: UnixStream,
    client: u64,
    supervisor: &Arc<Supervisor>,
    shutdown: &Arc<AtomicBool>,
) {
    let writer = match stream.try_clone() {
        Ok(w) => Arc::new(Mutex::new(w)),
        Err(_) => return,
    };
    let mut reader = stream;
    loop {
        let payload = match read_frame(&mut reader) {
            Ok(Some(p)) => p,
            Ok(None) => return, // clean disconnect
            Err(FrameError::Io(_)) | Err(FrameError::Truncated) => return,
            Err(e) => {
                // Garbage on the wire: answer, then hang up. The daemon
                // survives; only this connection pays.
                send_response(&writer, &Response::ProtocolError { message: e.to_string() });
                let _ = reader.shutdown(std::net::Shutdown::Both);
                return;
            }
        };
        let request = match Request::parse(&payload) {
            Ok(r) => r,
            Err(e) => {
                send_response(&writer, &Response::ProtocolError { message: e.to_string() });
                let _ = reader.shutdown(std::net::Shutdown::Both);
                return;
            }
        };
        match request {
            Request::Generate { id, spec, options } => {
                let w = Arc::clone(&writer);
                supervisor.submit(client, spec, options, move |outcome| {
                    send_response(&w, &outcome_response(id, outcome));
                });
            }
            Request::Status { id } => {
                let body = supervisor.status_json();
                send_response(&writer, &Response::Status { id, body });
            }
            Request::Health { id } => {
                send_response(
                    &writer,
                    &Response::Health {
                        id,
                        workers_alive: supervisor.workers_alive(),
                        draining: supervisor.is_draining(),
                    },
                );
            }
            Request::Shutdown { id } => {
                supervisor.drain();
                shutdown.store(true, Ordering::Relaxed);
                send_response(&writer, &Response::ShutdownAck { id });
            }
        }
    }
}

/// Map a supervisor outcome onto the wire response for request `id`.
fn outcome_response(id: u64, outcome: JobOutcome) -> Response {
    match outcome {
        JobOutcome::Verdict { verdict, cached, attempts, elapsed_ms } => {
            Response::Result { id, cached, attempts, elapsed_ms, verdict }
        }
        JobOutcome::Failed { kind, message, attempts } => {
            Response::JobError { id, kind, message, attempts }
        }
        JobOutcome::Shed { reason, queue_depth } => {
            Response::Overloaded { id, reason, queue_depth }
        }
    }
}

/// Serialize and write one response; errors are swallowed (the client may
/// have hung up — their loss, the job accounting already happened).
fn send_response(writer: &Arc<Mutex<UnixStream>>, response: &Response) {
    let frame = response.render();
    let mut guard = writer.lock().expect("connection writer");
    let _ = write_frame(&mut *guard, &frame);
}

/// The daemon's flags, as both `splice serve` and `splice-serve` take
/// them (the program name is the caller's to prepend).
pub const USAGE: &str = "--socket PATH [--workers N] [--queue-cap N] [--per-client N] \
[--deadline-ms N] [--max-attempts N] [--breaker-threshold N] [--breaker-cooldown-ms N] \
[--backoff-base-ms N] [--backoff-cap-ms N] [--cache-cap N] [--seed N]";

/// Parse a daemon command line (program name excluded) into the socket
/// path and the pool configuration. Every flag takes one value; a
/// `SPLICE_FAULT` plan in the environment is validated and handed to the
/// workers. Returns `Ok(None)` when help was asked for, and an error
/// naming the bad flag or value otherwise.
pub fn parse_args(args: &[String]) -> Result<Option<(String, ServeConfig)>, String> {
    let mut config = ServeConfig::default();
    let mut socket = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "-h" || flag == "--help" {
            return Ok(None);
        }
        let value = it.next().ok_or_else(|| format!("flag `{flag}` needs a value"))?;
        if flag == "--socket" {
            socket = Some(value.clone());
        } else if !apply_config_flag(&mut config, flag, value)? {
            return Err(format!("unknown flag `{flag}`"));
        }
    }
    // The supervisor forwards the plan to workers explicitly; they never
    // inherit it from the daemon's environment.
    if FaultPlan::from_env().map_err(|e| format!("bad SPLICE_FAULT: {e}"))?.is_some() {
        config.fault = std::env::var("SPLICE_FAULT").ok();
    }
    Ok(Some((socket.unwrap_or_else(default_socket_path), config)))
}

/// Default socket path: honor `SPLICE_SERVE_SOCKET`, else a per-uid name
/// under the system temp directory.
fn default_socket_path() -> String {
    if let Ok(p) = std::env::var("SPLICE_SERVE_SOCKET") {
        if !p.trim().is_empty() {
            return p;
        }
    }
    std::env::temp_dir().join("splice-serve.sock").to_string_lossy().into_owned()
}

/// Apply one tuning flag to `config`: `Ok(false)` when `flag` is not a
/// tuning flag, an error naming the flag when its value does not parse.
fn apply_config_flag(config: &mut ServeConfig, flag: &str, value: &str) -> Result<bool, String> {
    let parse_u64 =
        |v: &str| v.parse::<u64>().map_err(|e| format!("invalid value `{v}` for {flag}: {e}"));
    let parse_usize =
        |v: &str| v.parse::<usize>().map_err(|e| format!("invalid value `{v}` for {flag}: {e}"));
    match flag {
        "--workers" => config.workers = parse_usize(value)?.clamp(1, 64),
        "--queue-cap" => config.queue_cap = parse_usize(value)?,
        "--per-client" => config.per_client = parse_usize(value)?.max(1),
        "--deadline-ms" => config.deadline = Duration::from_millis(parse_u64(value)?.max(1)),
        "--max-attempts" => config.max_attempts = parse_u64(value)?.clamp(1, 16) as u32,
        "--breaker-threshold" => {
            config.breaker_threshold = parse_u64(value)?.clamp(1, 1000) as u32;
        }
        "--breaker-cooldown-ms" => {
            config.breaker_cooldown = Duration::from_millis(parse_u64(value)?);
        }
        "--backoff-base-ms" => config.backoff_base_ms = parse_u64(value)?.max(1),
        "--backoff-cap-ms" => config.backoff_cap_ms = parse_u64(value)?.max(1),
        "--cache-cap" => config.cache_cap = parse_usize(value)?,
        "--seed" => config.seed = parse_u64(value)?,
        _ => return Ok(false),
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_flags_apply_and_reject() {
        let mut c = ServeConfig::default();
        assert_eq!(apply_config_flag(&mut c, "--workers", "2"), Ok(true));
        assert_eq!(c.workers, 2);
        assert_eq!(apply_config_flag(&mut c, "--deadline-ms", "250"), Ok(true));
        assert_eq!(c.deadline, Duration::from_millis(250));
        assert_eq!(apply_config_flag(&mut c, "--not-a-flag", "1"), Ok(false));
        assert!(apply_config_flag(&mut c, "--workers", "many").is_err());
    }

    #[test]
    fn default_socket_path_is_nonempty() {
        assert!(!default_socket_path().is_empty());
    }
}
