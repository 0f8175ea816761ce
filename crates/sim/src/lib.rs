//! # splice-sim — cycle-accurate synchronous simulation kernel
//!
//! Every protocol in the Splice thesis (SIS, PLB, OPB, FCB, APB) is a
//! registered, single-clock handshake: components sample their inputs on the
//! rising clock edge and present new outputs after it. This kernel models
//! exactly that with **double-buffered signals**:
//!
//! * during a tick, every component reads the *current* (pre-edge) value of
//!   any signal and schedules *next* values for the signals it drives;
//! * after all components have ticked, the written signals commit — one
//!   bus-clock cycle has elapsed.
//!
//! Because reads always see pre-edge values, component evaluation order can
//! never change simulation results (this is checked by a property test), and
//! the kernel is deterministic by construction.
//!
//! The scheduler is **event-driven**: components declare a
//! [`Sensitivity`] set and sleep through cycles on which none of their
//! watched signals changed (timed behaviour uses
//! [`TickCtx::wake_after`]). Results are cycle-exact under every
//! [`Backend`] — see `docs/performance.md` for the scheduling model.
//!
//! Multi-driver errors — two components scheduling the same signal in one
//! cycle — are detected at runtime and reported with both signal and cycle.
//!
//! The kernel also provides [`trace::Trace`] capture for selected signals
//! (used to regenerate the thesis's timing diagrams) and a VCD writer for
//! offline waveform inspection.

//! A `splice_obs::metrics::MetricsRegistry` rides along with every
//! simulation: counters, gauges, latency histograms, and a cycle-stamped
//! event log that components reach through [`TickCtx`] (near-zero cost
//! while disabled; see `docs/observability.md`). Components credit
//! occupancy counters from interval timestamps, so the numbers are exact
//! under every backend and enabling them never changes which ticks run.
//! For scheduler-level questions —
//! which components are awake, why, and what each tick costs — enable the
//! per-component [`profile::SimProfile`] profiler
//! ([`Simulator::enable_profiler`]); every `run*` call also returns cheap
//! always-on [`kernel::RunStats`].

pub mod component;
pub mod kernel;
pub mod profile;
pub mod signal;
pub mod trace;
pub mod vcd;

pub use component::{Component, Sensitivity, TickCtx};
pub use kernel::{Backend, RunStats, SimError, Simulator, SimulatorBuilder};
pub use profile::{ComponentProfile, SimProfile, WakeCause};
pub use signal::{SignalDecl, SignalId, Word};
pub use trace::Trace;
