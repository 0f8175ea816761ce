//! # splice-obs — the observability substrate
//!
//! Everything in the workspace that *measures* itself goes through this
//! crate:
//!
//! * [`trace`] — hierarchical span tracing: nested spans carrying
//!   wall-clock durations, simulated-cycle windows, and key/value
//!   attributes; thread-local, zero-overhead while disabled. The
//!   generation pipeline (parse → elaborate → hdlgen → lint → check →
//!   drivergen), the model checker's exploration, and the benchmark
//!   harness all report through it.
//! * [`chrome`] — export of span trees and simulation-kernel component
//!   lanes as Chrome trace-event JSON, loadable in Perfetto or
//!   `chrome://tracing`.
//! * [`interrupt`] — SIGINT/SIGTERM flags polled at phase boundaries so
//!   long-running subcommands (`check` BFS, `profile`, `serve`) flush
//!   partial reports or drain gracefully instead of dying mid-write.
//! * [`json`] — the one shared hand-rolled JSON writer *and* reader
//!   (escape/quote helpers, a comma-tracking [`json::JsonWriter`], and a
//!   [`json::JsonValue`] parser), replacing the per-crate copies that
//!   metrics snapshots, lint reports, and bench bins used to carry.
//! * [`metrics`] — the one metrics registry: named counters, gauges and
//!   log2 histograms plus a cycle-stamped event log. Every simulation
//!   carries one, and the generator CLI and the serve supervisor record
//!   into it too.
//!
//! The per-component simulation profiler lives in `splice-sim` (it needs
//! kernel internals) and renders through this crate's Chrome writer; see
//! `docs/observability.md` for the end-to-end tour.

pub mod chrome;
pub mod interrupt;
pub mod json;
pub mod metrics;
pub mod trace;

pub use chrome::ChromeTrace;
pub use json::{JsonValue, JsonWriter};
pub use trace::{AttrValue, SpanGuard, SpanRecord, TraceData};
