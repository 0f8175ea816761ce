//! # splice-serve — generation as a supervised service
//!
//! A single `splice` invocation is a batch tool: it parses one spec,
//! generates, and exits. This crate turns the same pipeline into a
//! long-running daemon with the robustness machinery a shared service
//! needs, built entirely on `std` (processes, threads, Unix sockets — no
//! async runtime, no external crates):
//!
//! * [`protocol`] — one length-framed JSON codec (`SPLC` magic + LE
//!   length) for both hops: client ↔ daemon and supervisor ↔ worker;
//! * [`worker`] — the worker process loop: jobs in on stdin, verdicts
//!   out on stdout, crashes left uncaught *on purpose* (isolation is the
//!   supervisor's job, not the worker's);
//! * [`supervisor`] — the pool: per-job deadlines with kill-and-reap,
//!   restart backoff with jitter, per-spec circuit breakers, bounded
//!   queueing with explicit load-shedding, retry budgets, and a
//!   content-addressed result cache;
//! * [`server`] — the Unix-socket accept loop and graceful drain on
//!   SIGTERM;
//! * [`client`] — a small synchronous client for the CLI, the bench
//!   harness, and the tests;
//! * [`fault`] — the `SPLICE_FAULT` injection plan workers honor, so the
//!   integration suite drills recovery against real process failures;
//! * [`backoff`], [`breaker`], [`cache`], [`hash`] — the isolated policy
//!   pieces, each unit-tested without time or processes.
//!
//! Wire format, supervision state machine, and tuning knobs are
//! documented in `docs/serve.md`.

pub mod backoff;
pub mod breaker;
pub mod cache;
pub mod client;
pub mod fault;
pub mod hash;
pub mod protocol;
mod rng;
pub mod server;
pub mod supervisor;
pub mod worker;

pub use client::Client;
pub use protocol::{JobOptions, JobVerdict, Request, Response};
pub use server::{apply_config_flag, default_socket_path, serve};
pub use supervisor::{JobOutcome, ServeConfig, Supervisor};
pub use worker::run_worker;
