//! The component trait and per-tick context.

use crate::signal::{mask, SignalId, Word};
use splice_obs::metrics::{Event, MetricsRegistry};

/// When the scheduler re-evaluates a component.
///
/// Declared once, at [`crate::SimulatorBuilder::build`] time, via
/// [`Component::sensitivity`]. A component with `Signals` sensitivity is
/// ticked only on cycles where one of its watched signals changed on the
/// previous clock edge, where it asked to be woken via
/// [`TickCtx::wake_after`], or at cycle 0 (every component sees reset).
///
/// **Contract for `Signals` components:** the watch list must include every
/// signal whose change can require action, *including signals the component
/// itself drives* — a one-cycle strobe raised at cycle `c` must be lowered
/// at `c + 1`, and it is the strobe's own edge that wakes the component for
/// the cleanup tick. Components with purely time-based behaviour (countdown
/// states) must call [`TickCtx::wake_after`] before going back to sleep.
/// When unsure, `Always` is always correct (it is the default and exactly
/// reproduces the eager kernel's behaviour for that component).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Sensitivity {
    /// Tick every cycle (the eager default; always correct).
    Always,
    /// Tick only when one of these signals changed on the previous edge
    /// (or after an explicit [`TickCtx::wake_after`] request).
    Signals(Vec<SignalId>),
}

/// Per-tick view of the signal store handed to each component.
///
/// Reads return the value the signal held *before* this clock edge; writes
/// schedule the value it will hold *after* it. A component may write each of
/// its output signals at most once per tick (double writes by different
/// components are a wiring error and abort the simulation).
pub struct TickCtx<'a> {
    pub(crate) cur: &'a [Word],
    pub(crate) next: &'a mut [Word],
    pub(crate) widths: &'a [u32],
    pub(crate) written_by: &'a mut [u32],
    /// Epoch stamp per signal: `write_epoch[i] == epoch` means signal `i`
    /// was already written this cycle (by `written_by[i]`).
    pub(crate) write_epoch: &'a mut [u32],
    pub(crate) epoch: u32,
    /// Dense list of signals written this cycle (each index exactly once).
    pub(crate) written: &'a mut Vec<u32>,
    pub(crate) component: u32,
    pub(crate) cycle: u64,
    pub(crate) conflict: &'a mut Option<(SignalId, u32, u32)>,
    pub(crate) metrics: &'a mut MetricsRegistry,
    /// This component's earliest pending timed wake (absolute cycle).
    pub(crate) wake: &'a mut u64,
    /// Why the pending wake (if any) was scheduled; one of the
    /// [`WakeCause`](crate::profile::WakeCause) discriminants. Overwritten
    /// whenever something lowers `wake`, consumed by the profiler when the
    /// wake fires.
    pub(crate) wake_cause: &'a mut u8,
}

impl<'a> TickCtx<'a> {
    /// Pre-edge value of `sig`.
    #[inline]
    pub fn get(&self, sig: SignalId) -> Word {
        self.cur[sig.index()]
    }

    /// Pre-edge value of `sig` interpreted as a boolean (non-zero = high).
    #[inline]
    pub fn get_bool(&self, sig: SignalId) -> bool {
        self.cur[sig.index()] != 0
    }

    /// Schedule `val` onto `sig` for after this edge. Values are masked to
    /// the signal's declared width.
    #[inline]
    pub fn set(&mut self, sig: SignalId, val: Word) {
        let i = sig.index();
        if self.write_epoch[i] == self.epoch {
            // Already written this cycle: same component may overwrite
            // (last write wins); a different component is a conflict.
            let prev = self.written_by[i];
            if prev != self.component && self.conflict.is_none() {
                *self.conflict = Some((sig, prev, self.component));
            }
        } else {
            self.write_epoch[i] = self.epoch;
            self.written.push(i as u32);
        }
        self.written_by[i] = self.component;
        self.next[i] = val & mask(self.widths[i]);
    }

    /// Schedule a boolean level.
    #[inline]
    pub fn set_bool(&mut self, sig: SignalId, val: bool) {
        self.set(sig, val as Word);
    }

    /// The number of completed clock cycles before this tick (i.e. the
    /// current cycle index, starting at 0).
    #[inline]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Ask the scheduler to tick this component again in `n` cycles (`n` is
    /// clamped to at least 1), even if none of its watched signals change in
    /// between. Countdown states call this instead of relying on per-cycle
    /// ticks; multiple calls keep the earliest requested cycle. No-op for
    /// [`Sensitivity::Always`] components (they tick every cycle anyway).
    #[inline]
    pub fn wake_after(&mut self, n: u64) {
        let target = self.cycle + n.max(1);
        if target < *self.wake {
            *self.wake = target;
            *self.wake_cause = crate::profile::WakeCause::Timer as u8;
        }
    }

    // --- observability -------------------------------------------------
    //
    // All recording is a no-op while the simulation's metrics registry is
    // disabled; instrumented components should guard any *expensive*
    // argument construction (string formatting) behind
    // [`metrics_enabled`](Self::metrics_enabled). Metrics never change the
    // schedule, so a component that sleeps through cycles must credit a
    // multi-cycle count (wait states, busy time) once, from the interval's
    // start and end cycles, rather than `+1` per tick.

    /// Whether the metrics registry is recording.
    #[inline]
    pub fn metrics_enabled(&self) -> bool {
        self.metrics.is_enabled()
    }

    /// Add `delta` to a named counter.
    #[inline]
    pub fn metric_add(&mut self, name: &str, delta: u64) {
        self.metrics.counter_add(name, delta);
    }

    /// Record a sample into a named latency/size histogram.
    #[inline]
    pub fn metric_observe(&mut self, name: &str, value: u64) {
        self.metrics.observe(name, value);
    }

    /// Append a cycle-stamped protocol milestone to the event log.
    #[inline]
    pub fn protocol_event(&mut self, source: &str, kind: &str, detail: impl Into<String>) {
        if !self.metrics.is_enabled() {
            return;
        }
        self.metrics.record_event(Event::ProtocolEvent {
            cycle: self.cycle,
            source: source.to_owned(),
            kind: kind.to_owned(),
            detail: detail.into(),
        });
    }

    /// Append a cycle-stamped protocol violation to the event log.
    #[inline]
    pub fn violation_event(&mut self, source: &str, axiom: &str, detail: impl Into<String>) {
        if !self.metrics.is_enabled() {
            return;
        }
        self.metrics.record_event(Event::Violation {
            cycle: self.cycle,
            source: source.to_owned(),
            axiom: axiom.to_owned(),
            detail: detail.into(),
        });
    }
}

/// A clocked hardware component.
///
/// `tick` is called once per clock edge on which the component is
/// *runnable* (see [`Sensitivity`]); the default `Always` sensitivity makes
/// that every edge. Implementations must read inputs through
/// [`TickCtx::get`] and drive outputs through [`TickCtx::set`]; internal
/// state lives in `self`.
pub trait Component {
    /// Advance one clock edge.
    fn tick(&mut self, ctx: &mut TickCtx<'_>);

    /// Which cycles this component must be evaluated on. Consulted once at
    /// build time. Defaults to [`Sensitivity::Always`].
    fn sensitivity(&self) -> Sensitivity {
        Sensitivity::Always
    }

    /// Human-readable instance name for diagnostics.
    fn name(&self) -> &str {
        "component"
    }

    /// Downcast support so harnesses can inspect component state after (or
    /// between) simulation runs.
    fn as_any(&self) -> &dyn std::any::Any;

    /// Mutable downcast support.
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;
}
