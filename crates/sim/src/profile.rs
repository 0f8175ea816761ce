//! Per-component kernel profiler.
//!
//! Where the metrics registry (`splice_obs::metrics`) counts
//! *protocol-level* observations that components record about themselves,
//! the profiler measures the **kernel from the outside**: for every component, how many cycles it was awake
//! vs asleep, *why* each tick happened (a watched signal edged, a
//! [`wake_after`](crate::TickCtx::wake_after) timer fired, eager/`Always`
//! scheduling, or an external [`wake_component`]
//! call), how many signal writes it issued, and how much wall time its
//! `tick` consumed. The kernel also records per-step commit-list sizes and
//! idle fast-path hits.
//!
//! Profiling is opt-in ([`Simulator::enable_profiler`]); when off, the
//! kernel's only cost is one `Option` test per step. Profiling does not
//! change the backend: it times each tick under whichever backend was set
//! (`Compiled` included) and observes the scheduler doing
//! whatever it would have done anyway, which is exactly what makes the
//! awake/asleep attribution meaningful.
//!
//! Awake stretches are kept as `[start, end)` cycle intervals (capped, see
//! [`MAX_INTERVALS_PER_COMPONENT`]) so each component can be drawn as a
//! lane on the sim-cycle axis of a Chrome trace — see
//! [`SimProfile::add_chrome_lanes`].
//!
//! [`wake_component`]: crate::Simulator::wake_component
//! [`Simulator::enable_profiler`]: crate::Simulator::enable_profiler

use splice_obs::chrome::ChromeTrace;
use splice_obs::metrics::Histogram;
use splice_obs::trace::AttrValue;
use std::fmt::Write as _;

/// Cap on recorded awake intervals per component; further awake stretches
/// are still *counted* (ticks, causes, wall time) but not drawn as lanes.
pub const MAX_INTERVALS_PER_COMPONENT: usize = 10_000;

/// Why a component's `tick` ran on a given cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum WakeCause {
    /// External wake: [`crate::Simulator::wake_component`] /
    /// `component_mut`, or the unconditional cycle-0 reset tick.
    External = 0,
    /// A watched signal changed on the previous edge.
    Signal = 1,
    /// The component's own [`crate::TickCtx::wake_after`] timer came due.
    Timer = 2,
    /// Eager scheduling: `Sensitivity::Always` or [`Backend::Eager`].
    ///
    /// [`Backend::Eager`]: crate::Backend::Eager
    Eager = 3,
}

/// Profiling totals for one component.
#[derive(Debug, Clone)]
pub struct ComponentProfile {
    /// Component instance name.
    pub name: String,
    /// Number of `tick` invocations while profiling.
    pub ticks: u64,
    /// Total wall time spent inside `tick`, ns.
    pub wall_ns: u64,
    /// Distinct signals newly written per tick, summed over all ticks.
    pub writes: u64,
    /// Ticks caused by a watched-signal edge.
    pub wake_signal: u64,
    /// Ticks caused by a `wake_after` timer.
    pub wake_timer: u64,
    /// Ticks under eager/`Always` scheduling.
    pub wake_eager: u64,
    /// Ticks caused externally (harness pokes, the cycle-0 reset tick).
    pub wake_external: u64,
    /// Awake stretches as `[start, end)` cycle intervals.
    pub intervals: Vec<(u64, u64)>,
    /// Awake stretches dropped once `intervals` hit the cap.
    pub intervals_dropped: u64,
    /// Currently-open awake stretch, promoted into `intervals` when a
    /// cycle passes without a tick (or at [`SimProfile::finish`]).
    open: Option<(u64, u64)>,
}

impl ComponentProfile {
    fn new(name: String) -> Self {
        ComponentProfile {
            name,
            ticks: 0,
            wall_ns: 0,
            writes: 0,
            wake_signal: 0,
            wake_timer: 0,
            wake_eager: 0,
            wake_external: 0,
            intervals: Vec::new(),
            intervals_dropped: 0,
            open: None,
        }
    }

    fn record_tick(&mut self, cycle: u64, cause: WakeCause) {
        self.ticks += 1;
        match cause {
            WakeCause::Signal => self.wake_signal += 1,
            WakeCause::Timer => self.wake_timer += 1,
            WakeCause::Eager => self.wake_eager += 1,
            WakeCause::External => self.wake_external += 1,
        }
        match &mut self.open {
            Some((_, end)) if *end == cycle => *end = cycle + 1,
            Some(run) => {
                let closed = *run;
                *run = (cycle, cycle + 1);
                self.push_interval(closed);
            }
            None => self.open = Some((cycle, cycle + 1)),
        }
    }

    fn push_interval(&mut self, iv: (u64, u64)) {
        if self.intervals.len() < MAX_INTERVALS_PER_COMPONENT {
            self.intervals.push(iv);
        } else {
            self.intervals_dropped += 1;
        }
    }

    fn close_open(&mut self) {
        if let Some(run) = self.open.take() {
            self.push_interval(run);
        }
    }
}

/// A completed (or in-progress) kernel profile.
#[derive(Debug, Clone)]
pub struct SimProfile {
    /// One row per component, in registration order.
    pub components: Vec<ComponentProfile>,
    /// Clock edges stepped while profiling.
    pub steps: u64,
    /// Steps that took the idle fast path (no component ticked at all).
    pub idle_cycles: u64,
    /// Distribution of per-step commit-list sizes (signals written).
    pub commit_sizes: Histogram,
    /// Cycle at which profiling was enabled.
    pub start_cycle: u64,
}

impl SimProfile {
    pub(crate) fn new(names: Vec<String>, start_cycle: u64) -> Self {
        SimProfile {
            components: names.into_iter().map(ComponentProfile::new).collect(),
            steps: 0,
            idle_cycles: 0,
            commit_sizes: Histogram::default(),
            start_cycle,
        }
    }

    pub(crate) fn on_idle_step(&mut self) {
        self.steps += 1;
        self.idle_cycles += 1;
    }

    pub(crate) fn on_step(&mut self, commit_size: u64) {
        self.steps += 1;
        self.commit_sizes.observe(commit_size);
    }

    pub(crate) fn on_tick(&mut self, comp: usize, cycle: u64, cause: WakeCause) {
        self.components[comp].record_tick(cycle, cause);
    }

    pub(crate) fn add_tick_cost(&mut self, comp: usize, wall_ns: u64, writes: u64) {
        let c = &mut self.components[comp];
        c.wall_ns += wall_ns;
        c.writes += writes;
    }

    /// Close any open awake stretches (called when the profile is taken).
    pub(crate) fn finish(&mut self) {
        for c in &mut self.components {
            c.close_open();
        }
    }

    /// Cycles each component spent asleep = profiled steps − its ticks.
    pub fn asleep_cycles(&self, comp: usize) -> u64 {
        self.steps.saturating_sub(self.components[comp].ticks)
    }

    /// Render the per-component attribution table.
    ///
    /// ```text
    /// component            ticks  asleep  awake%   writes  sig  timer  eager  ext      wall
    /// plb.adapter            312     368   45.9%      500  290     10      0   12    1.2ms
    /// ```
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "kernel profile: {} steps ({} idle fast-path), commit sizes {}",
            self.steps,
            self.idle_cycles,
            self.commit_sizes.summary()
        );
        let name_w =
            self.components.iter().map(|c| c.name.len()).max().unwrap_or(9).max("component".len());
        let _ = writeln!(
            out,
            "{:<name_w$}  {:>8} {:>8} {:>7} {:>8} {:>6} {:>6} {:>8} {:>5} {:>10}",
            "component",
            "ticks",
            "asleep",
            "awake%",
            "writes",
            "sig",
            "timer",
            "eager",
            "ext",
            "wall"
        );
        for (i, c) in self.components.iter().enumerate() {
            let awake_pct =
                if self.steps == 0 { 0.0 } else { 100.0 * c.ticks as f64 / self.steps as f64 };
            let _ = writeln!(
                out,
                "{:<name_w$}  {:>8} {:>8} {:>6.1}% {:>8} {:>6} {:>6} {:>8} {:>5} {:>10}",
                c.name,
                c.ticks,
                self.asleep_cycles(i),
                awake_pct,
                c.writes,
                c.wake_signal,
                c.wake_timer,
                c.wake_eager,
                c.wake_external,
                splice_obs::trace::fmt_ns(c.wall_ns),
            );
        }
        out
    }

    /// Append one Chrome-trace lane per component under process `pid`.
    ///
    /// Lanes live on the **sim-cycle axis** (1 cycle = 1 µs): each awake
    /// stretch becomes an `"X"` event, so Perfetto shows exactly when each
    /// component ran. Wall-clock numbers are deliberately left out of the
    /// events (they are not cycle-aligned); totals are carried as `args`
    /// on a whole-run summary event per lane.
    pub fn add_chrome_lanes(&self, t: &mut ChromeTrace, pid: u32) {
        t.process_name(pid, "splice-sim kernel (cycle axis)");
        let end_cycle = self.start_cycle + self.steps;
        for (i, c) in self.components.iter().enumerate() {
            let tid = i as u32 + 1;
            t.thread_name(pid, tid, &c.name);
            let args: Vec<(String, AttrValue)> = vec![
                ("ticks".into(), AttrValue::Int(c.ticks)),
                ("asleep".into(), AttrValue::Int(self.asleep_cycles(i))),
                ("writes".into(), AttrValue::Int(c.writes)),
                ("wake_signal".into(), AttrValue::Int(c.wake_signal)),
                ("wake_timer".into(), AttrValue::Int(c.wake_timer)),
                ("wake_eager".into(), AttrValue::Int(c.wake_eager)),
                ("wake_external".into(), AttrValue::Int(c.wake_external)),
                ("intervals_dropped".into(), AttrValue::Int(c.intervals_dropped)),
            ];
            t.complete(
                pid,
                tid,
                &format!("{} (summary)", c.name),
                self.start_cycle as f64,
                (end_cycle - self.start_cycle) as f64,
                &args,
            );
            for &(a, b) in &c.intervals {
                t.complete(pid, tid, "awake", a as f64, (b - a) as f64, &[]);
            }
        }
    }
}
