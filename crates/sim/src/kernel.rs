//! The simulator: signal store, event-driven component scheduling, cycle
//! stepping.
//!
//! The kernel is *event-driven but cycle-exact*: a component with a
//! declared [`Sensitivity`] set sleeps through cycles on which none of its
//! watched signals changed and no timed wake is due, and the whole `step`
//! collapses to a cycle-counter increment when every component is asleep.
//! Because reads always see pre-edge values, skipping a component whose
//! inputs did not change (and which requested no wake) cannot alter any
//! signal — results are identical to ticking everything every cycle, which
//! [`Backend::Eager`] still does. The backend that is set is the backend
//! that runs: neither the metrics registry nor the profiler changes it.

use crate::component::{Component, Sensitivity, TickCtx};
use crate::profile::{SimProfile, WakeCause};
use crate::signal::{SignalDecl, SignalId, Word};
use crate::trace::Trace;
use splice_obs::metrics::{Event, MetricsRegistry};
use std::collections::HashMap;
use std::fmt;
use std::time::Instant;

/// Summary of one `run*` call (all counts are deltas for that call, not
/// lifetime totals).
///
/// Returned by [`Simulator::run`] and friends so harnesses and benchmarks
/// can report scheduler efficiency without enabling the profiler: the
/// underlying counters are always on and cost two integer adds per step.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Clock edges stepped.
    pub cycles: u64,
    /// Component `tick` invocations across those edges.
    pub ticks: u64,
    /// Edges that took the idle fast path (every component asleep).
    pub idle_cycles: u64,
}

impl RunStats {
    /// `ticks / cycles` — mean number of components evaluated per edge.
    pub fn ticks_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.ticks as f64 / self.cycles as f64
        }
    }
}

/// Execution backend: how the kernel schedules component ticks.
///
/// Scheduling and simulation results are identical across all three
/// backends (pinned by `tests/determinism.rs`); they differ only in cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Backend {
    /// Tick every component every cycle (the pre-event-driven kernel,
    /// kept for comparison benchmarks).
    Eager,
    /// Sensitivity-gated event-driven scheduling (the default).
    #[default]
    Gated,
    /// Schedules exactly like [`Backend::Gated`]. No component hosts
    /// generated HDL, so there is no design to run two-state; the variant
    /// stays because the benchmark's per-backend mix names it.
    Compiled,
}

/// Errors raised while building or running a simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// Two signals declared with the same name.
    DuplicateSignal(String),
    /// Two components drove one signal in the same cycle.
    MultipleDrivers { signal: String, first: String, second: String, cycle: u64 },
    /// `run_until` hit its cycle budget without the predicate firing.
    Timeout { after: u64, what: String },
    /// Signal name lookup failed.
    NoSuchSignal(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::DuplicateSignal(n) => write!(f, "signal `{n}` declared twice"),
            SimError::MultipleDrivers { signal, first, second, cycle } => write!(
                f,
                "signal `{signal}` driven by both `{first}` and `{second}` in cycle {cycle}"
            ),
            SimError::Timeout { after, what } => {
                write!(f, "simulation timed out after {after} cycles waiting for {what}")
            }
            SimError::NoSuchSignal(n) => write!(f, "no signal named `{n}`"),
        }
    }
}

impl std::error::Error for SimError {}

/// Builder for a [`Simulator`]: declare signals, then add components.
#[derive(Default)]
pub struct SimulatorBuilder {
    decls: Vec<SignalDecl>,
    by_name: HashMap<String, SignalId>,
    components: Vec<Box<dyn Component>>,
}

impl SimulatorBuilder {
    /// Start an empty simulation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declare a signal; returns its handle.
    ///
    /// # Panics
    /// Panics on duplicate names — signal wiring is a construction-time
    /// decision and a duplicate is always a harness bug.
    pub fn signal(&mut self, decl: SignalDecl) -> SignalId {
        assert!(!self.by_name.contains_key(&decl.name), "signal `{}` declared twice", decl.name);
        let id = SignalId(self.decls.len() as u32);
        self.by_name.insert(decl.name.clone(), id);
        self.decls.push(decl);
        id
    }

    /// Convenience: declare `name` with `width` bits and reset value 0.
    pub fn sig(&mut self, name: impl Into<String>, width: u32) -> SignalId {
        self.signal(SignalDecl::new(name, width))
    }

    /// Add a component; returns its index for later downcasting.
    pub fn component(&mut self, c: Box<dyn Component>) -> usize {
        self.components.push(c);
        self.components.len() - 1
    }

    /// Finish building: resolve every component's [`Sensitivity`] into
    /// per-signal watcher lists.
    pub fn build(self) -> Simulator {
        let n = self.decls.len();
        let nc = self.components.len();
        let cur: Vec<Word> = self.decls.iter().map(|d| d.reset & d.mask()).collect();
        let mut watchers: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut sens_always = vec![false; nc];
        let mut num_always = 0usize;
        for (i, c) in self.components.iter().enumerate() {
            match c.sensitivity() {
                Sensitivity::Always => {
                    sens_always[i] = true;
                    num_always += 1;
                }
                Sensitivity::Signals(sigs) => {
                    for s in sigs {
                        watchers[s.index()].push(i as u32);
                    }
                }
            }
        }
        for w in &mut watchers {
            w.sort_unstable();
            w.dedup();
        }
        Simulator {
            next: cur.clone(),
            cur,
            widths: self.decls.iter().map(|d| d.width).collect(),
            decls: self.decls,
            by_name: self.by_name,
            components: self.components,
            written_by: vec![u32::MAX; n],
            write_epoch: vec![0; n],
            epoch: 0,
            written: Vec::with_capacity(n),
            watchers,
            sens_always,
            num_always,
            // Every component ticks at cycle 0 (it must observe reset).
            wake_at: vec![0; nc],
            wake_cause: vec![WakeCause::External as u8; nc],
            min_wake: 0,
            backend: Backend::Gated,
            cycle: 0,
            total_ticks: 0,
            idle_fast_hits: 0,
            traces: Vec::new(),
            metrics: MetricsRegistry::from_env(),
            profiler: None,
        }
    }
}

/// A running simulation.
pub struct Simulator {
    decls: Vec<SignalDecl>,
    by_name: HashMap<String, SignalId>,
    widths: Vec<u32>,
    cur: Vec<Word>,
    next: Vec<Word>,
    components: Vec<Box<dyn Component>>,
    written_by: Vec<u32>,
    /// Per-signal epoch stamp: entries matching `epoch` were written this
    /// cycle. Replaces refilling `written_by` with `u32::MAX` every cycle.
    write_epoch: Vec<u32>,
    epoch: u32,
    /// Scratch: signals written during the current tick, each exactly once.
    written: Vec<u32>,
    /// Per-signal list of gated components to wake when it changes.
    watchers: Vec<Vec<u32>>,
    /// Per-component: declared `Sensitivity::Always`.
    sens_always: Vec<bool>,
    num_always: usize,
    /// Per-component earliest cycle it must next tick (`u64::MAX` = asleep).
    wake_at: Vec<u64>,
    /// Per-component [`WakeCause`] discriminant for the pending wake;
    /// overwritten by whichever site last lowered `wake_at`.
    wake_cause: Vec<u8>,
    /// Minimum over `wake_at` — gate for the idle fast path.
    min_wake: u64,
    /// Selected execution backend (see [`Backend`]); `Eager` ticks every
    /// component every cycle.
    backend: Backend,
    cycle: u64,
    /// Lifetime `tick` invocations (always on; feeds [`RunStats`]).
    total_ticks: u64,
    /// Lifetime idle fast-path steps (always on; feeds [`RunStats`]).
    idle_fast_hits: u64,
    traces: Vec<Trace>,
    metrics: MetricsRegistry,
    /// Per-component profiler, boxed to keep the disabled case one word.
    profiler: Option<Box<SimProfile>>,
}

impl Simulator {
    /// Look up a signal by name.
    pub fn signal_id(&self, name: &str) -> Result<SignalId, SimError> {
        self.by_name.get(name).copied().ok_or_else(|| SimError::NoSuchSignal(name.into()))
    }

    /// Current (post-most-recent-edge) value of a signal.
    pub fn value(&self, sig: SignalId) -> Word {
        self.cur[sig.index()]
    }

    /// Current value by name.
    pub fn value_of(&self, name: &str) -> Result<Word, SimError> {
        Ok(self.value(self.signal_id(name)?))
    }

    /// Number of completed clock cycles.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Select the execution [`Backend`]; `Compiled` schedules like `Gated`.
    pub fn set_backend(&mut self, backend: Backend) {
        self.backend = backend;
    }

    /// The selected execution backend.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// Force a gated component to tick on the next step, as if one of its
    /// watched signals had changed. Called automatically by
    /// [`component_mut`](Self::component_mut), since any external mutation
    /// (an op reload between driver calls, say) can change component state
    /// without a signal edge.
    pub fn wake_component(&mut self, idx: usize) {
        if self.wake_at[idx] > self.cycle {
            self.wake_at[idx] = self.cycle;
            self.wake_cause[idx] = WakeCause::External as u8;
        }
        if self.min_wake > self.cycle {
            self.min_wake = self.cycle;
        }
    }

    /// Start per-component profiling from the current cycle (see
    /// [`SimProfile`]). The profiler observes the selected backend as-is.
    /// Enabling again discards any profile collected so far.
    pub fn enable_profiler(&mut self) {
        let names = self.components.iter().map(|c| c.name().to_owned()).collect();
        self.profiler = Some(Box::new(SimProfile::new(names, self.cycle)));
    }

    /// Whether [`enable_profiler`](Self::enable_profiler) is in effect.
    pub fn profiler_enabled(&self) -> bool {
        self.profiler.is_some()
    }

    /// Stop profiling and return the collected profile (None if profiling
    /// was never enabled).
    pub fn take_profile(&mut self) -> Option<SimProfile> {
        self.profiler.take().map(|mut p| {
            p.finish();
            *p
        })
    }

    /// Attach a trace capturing the named signals each cycle.
    pub fn attach_trace(&mut self, signals: &[SignalId]) -> usize {
        let named: Vec<(String, u32, SignalId)> = signals
            .iter()
            .map(|&s| (self.decls[s.index()].name.clone(), self.widths[s.index()], s))
            .collect();
        self.traces.push(Trace::new(named));
        self.traces.len() - 1
    }

    /// Access a previously attached trace.
    pub fn trace(&self, idx: usize) -> &Trace {
        &self.traces[idx]
    }

    /// Downcast a component to its concrete type.
    pub fn component<T: 'static>(&self, idx: usize) -> Option<&T> {
        self.components[idx].as_any().downcast_ref::<T>()
    }

    /// Mutable downcast. Also wakes the component (see
    /// [`wake_component`](Self::wake_component)).
    pub fn component_mut<T: 'static>(&mut self, idx: usize) -> Option<&mut T> {
        self.wake_component(idx);
        self.components[idx].as_any_mut().downcast_mut::<T>()
    }

    /// The observability registry (counters, histograms, event log).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Mutable registry access — use to enable/reset collection:
    /// `sim.metrics_mut().enable()`.
    pub fn metrics_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.metrics
    }

    /// Advance one clock edge.
    pub fn step(&mut self) -> Result<(), SimError> {
        // Capture pre-step values into traces (so cycle 0 shows reset state).
        for t in &mut self.traces {
            t.sample(self.cycle, &self.cur);
        }

        let eager = self.backend == Backend::Eager;
        // Idle fast path: every component is asleep and none is due — no
        // tick can write anything, so the cycle is a counter increment.
        if !eager && self.num_always == 0 && self.min_wake > self.cycle {
            self.cycle += 1;
            self.idle_fast_hits += 1;
            if let Some(p) = &mut self.profiler {
                p.on_idle_step();
            }
            return Ok(());
        }

        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Epoch counter wrapped (once per 2^32 cycles): clear the
            // stamps so stale entries can't alias the new epoch.
            self.write_epoch.fill(0);
            self.epoch = 1;
        }
        self.written.clear();

        let mut conflict: Option<(SignalId, u32, u32)> = None;
        let cycle = self.cycle;
        let mut ticked = 0u64;
        {
            let Simulator {
                components,
                cur,
                next,
                widths,
                written_by,
                write_epoch,
                written,
                sens_always,
                wake_at,
                wake_cause,
                metrics,
                epoch,
                profiler,
                ..
            } = self;
            for (i, comp) in components.iter_mut().enumerate() {
                if !(eager || sens_always[i] || wake_at[i] <= cycle) {
                    continue;
                }
                // Attribute the tick: a due wake carries the cause recorded
                // by whichever site scheduled it; otherwise the component
                // ran only because of eager/`Always` scheduling.
                let cause = if wake_at[i] <= cycle {
                    wake_at[i] = u64::MAX; // consume the wake
                    match wake_cause[i] {
                        c if c == WakeCause::Signal as u8 => WakeCause::Signal,
                        c if c == WakeCause::Timer as u8 => WakeCause::Timer,
                        _ => WakeCause::External,
                    }
                } else {
                    WakeCause::Eager
                };
                ticked += 1;
                let writes_before = written.len();
                let t0 = profiler.as_ref().map(|_| Instant::now());
                let mut ctx = TickCtx {
                    cur,
                    next,
                    widths,
                    written_by,
                    write_epoch,
                    epoch: *epoch,
                    written,
                    component: i as u32,
                    cycle,
                    conflict: &mut conflict,
                    metrics,
                    wake: &mut wake_at[i],
                    wake_cause: &mut wake_cause[i],
                };
                comp.tick(&mut ctx);
                if let Some(p) = profiler.as_deref_mut() {
                    p.on_tick(i, cycle, cause);
                    let wall_ns = t0.map(|t| t.elapsed().as_nanos() as u64).unwrap_or(0);
                    p.add_tick_cost(i, wall_ns, (written.len() - writes_before) as u64);
                }
            }
        }
        self.total_ticks += ticked;
        if self.metrics.trace_level() >= 2 {
            // Only written signals can have changed; emit edges in signal
            // order, exactly as the eager kernel's full diff did.
            let mut changed: Vec<u32> = self
                .written
                .iter()
                .copied()
                .filter(|&i| self.next[i as usize] != self.cur[i as usize])
                .collect();
            changed.sort_unstable();
            for i in changed {
                let i = i as usize;
                self.metrics.record_event(Event::SignalEdge {
                    cycle: self.cycle,
                    signal: self.decls[i].name.clone(),
                    from: self.cur[i],
                    to: self.next[i],
                });
            }
        }
        if let Some((sig, a, b)) = conflict {
            return Err(SimError::MultipleDrivers {
                signal: self.decls[sig.index()].name.clone(),
                first: self.components[a as usize].name().to_owned(),
                second: self.components[b as usize].name().to_owned(),
                cycle: self.cycle,
            });
        }
        // Commit: copy only written signals across the edge (unwritten ones
        // hold their value by construction — no full-vector copy), waking
        // the watchers of every signal that actually changed.
        let wake_cycle = cycle + 1;
        {
            let Simulator { cur, next, written, watchers, wake_at, wake_cause, .. } = self;
            for &i in written.iter() {
                let i = i as usize;
                if next[i] != cur[i] {
                    cur[i] = next[i];
                    for &w in &watchers[i] {
                        let w = w as usize;
                        if wake_at[w] > wake_cycle {
                            wake_at[w] = wake_cycle;
                            wake_cause[w] = WakeCause::Signal as u8;
                        }
                    }
                }
            }
        }
        if let Some(p) = &mut self.profiler {
            p.on_step(self.written.len() as u64);
        }
        self.min_wake = self.wake_at.iter().copied().min().unwrap_or(u64::MAX);
        self.cycle += 1;
        Ok(())
    }

    /// Snapshot of the always-on counters, for delta-based [`RunStats`].
    /// Harnesses that drive [`step`](Self::step) directly (rather than the
    /// `run*` family) can pair this with [`stats_since`](Self::stats_since)
    /// to report the same uniform stats.
    pub fn stats_mark(&self) -> RunStats {
        RunStats { cycles: self.cycle, ticks: self.total_ticks, idle_cycles: self.idle_fast_hits }
    }

    /// Counter deltas since a [`stats_mark`](Self::stats_mark) snapshot.
    pub fn stats_since(&self, mark: RunStats) -> RunStats {
        RunStats {
            cycles: self.cycle - mark.cycles,
            ticks: self.total_ticks - mark.ticks,
            idle_cycles: self.idle_fast_hits - mark.idle_cycles,
        }
    }

    /// Advance `n` clock edges.
    pub fn run(&mut self, n: u64) -> Result<RunStats, SimError> {
        let mark = self.stats_mark();
        for _ in 0..n {
            self.step()?;
        }
        Ok(self.stats_since(mark))
    }

    /// Step until `pred` returns true (checked after each edge), up to
    /// `max_cycles` edges. The returned [`RunStats::cycles`] is the number
    /// of edges stepped.
    pub fn run_until(
        &mut self,
        what: &str,
        max_cycles: u64,
        mut pred: impl FnMut(&Simulator) -> bool,
    ) -> Result<RunStats, SimError> {
        let mark = self.stats_mark();
        for _ in 1..=max_cycles {
            self.step()?;
            if pred(self) {
                return Ok(self.stats_since(mark));
            }
        }
        Err(SimError::Timeout { after: max_cycles, what: what.into() })
    }

    /// Step until `sig` reads non-zero, up to `max_cycles` edges. A
    /// fast-path form of [`run_until`](Self::run_until) for the common
    /// wait-for-strobe loop: no closure, no name lookup per cycle.
    pub fn run_until_high(
        &mut self,
        what: &str,
        sig: SignalId,
        max_cycles: u64,
    ) -> Result<RunStats, SimError> {
        let mark = self.stats_mark();
        let i = sig.index();
        for _ in 1..=max_cycles {
            self.step()?;
            if self.cur[i] != 0 {
                return Ok(self.stats_since(mark));
            }
        }
        Err(SimError::Timeout { after: max_cycles, what: what.into() })
    }

    /// Step until `sig` reads exactly `val`, up to `max_cycles` edges.
    pub fn run_until_eq(
        &mut self,
        what: &str,
        sig: SignalId,
        val: Word,
        max_cycles: u64,
    ) -> Result<RunStats, SimError> {
        let mark = self.stats_mark();
        let i = sig.index();
        for _ in 1..=max_cycles {
            self.step()?;
            if self.cur[i] == val {
                return Ok(self.stats_since(mark));
            }
        }
        Err(SimError::Timeout { after: max_cycles, what: what.into() })
    }

    /// All declared signals (id, decl) in declaration order.
    pub fn signals(&self) -> impl Iterator<Item = (SignalId, &SignalDecl)> {
        self.decls.iter().enumerate().map(|(i, d)| (SignalId(i as u32), d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A register that copies its input to its output each cycle.
    struct Reg {
        input: SignalId,
        output: SignalId,
    }

    impl Component for Reg {
        fn tick(&mut self, ctx: &mut TickCtx<'_>) {
            let v = ctx.get(self.input);
            ctx.set(self.output, v);
        }
        fn name(&self) -> &str {
            "reg"
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    /// A free-running counter.
    struct Counter {
        out: SignalId,
    }

    impl Component for Counter {
        fn tick(&mut self, ctx: &mut TickCtx<'_>) {
            let v = ctx.get(self.out);
            ctx.set(self.out, v + 1);
        }
        fn name(&self) -> &str {
            "counter"
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    #[test]
    fn counter_counts() {
        let mut b = SimulatorBuilder::new();
        let out = b.sig("count", 8);
        b.component(Box::new(Counter { out }));
        let mut sim = b.build();
        sim.run(5).unwrap();
        assert_eq!(sim.value(out), 5);
        assert_eq!(sim.cycle(), 5);
    }

    #[test]
    fn counter_wraps_at_width() {
        let mut b = SimulatorBuilder::new();
        let out = b.sig("count", 4);
        b.component(Box::new(Counter { out }));
        let mut sim = b.build();
        sim.run(20).unwrap();
        assert_eq!(sim.value(out), 4); // 20 mod 16
    }

    #[test]
    fn pipeline_delays_one_cycle_per_register() {
        // counter -> reg1 -> reg2: reg2 lags the counter by 2 cycles.
        let mut b = SimulatorBuilder::new();
        let c = b.sig("count", 16);
        let r1 = b.sig("r1", 16);
        let r2 = b.sig("r2", 16);
        b.component(Box::new(Counter { out: c }));
        b.component(Box::new(Reg { input: c, output: r1 }));
        b.component(Box::new(Reg { input: r1, output: r2 }));
        let mut sim = b.build();
        sim.run(10).unwrap();
        assert_eq!(sim.value(c), 10);
        assert_eq!(sim.value(r1), 9);
        assert_eq!(sim.value(r2), 8);
    }

    #[test]
    fn component_order_does_not_matter() {
        // Same circuit, reversed registration order — identical results.
        let build = |reversed: bool| {
            let mut b = SimulatorBuilder::new();
            let c = b.sig("count", 16);
            let r1 = b.sig("r1", 16);
            let counter: Box<dyn Component> = Box::new(Counter { out: c });
            let reg: Box<dyn Component> = Box::new(Reg { input: c, output: r1 });
            if reversed {
                b.component(reg);
                b.component(counter);
            } else {
                b.component(counter);
                b.component(reg);
            }
            let mut sim = b.build();
            sim.run(7).unwrap();
            (sim.value_of("count").unwrap(), sim.value_of("r1").unwrap())
        };
        assert_eq!(build(false), build(true));
    }

    #[test]
    fn multiple_drivers_detected() {
        let mut b = SimulatorBuilder::new();
        let s = b.sig("shared", 8);
        b.component(Box::new(Counter { out: s }));
        b.component(Box::new(Counter { out: s }));
        let mut sim = b.build();
        let err = sim.step().unwrap_err();
        assert!(matches!(err, SimError::MultipleDrivers { cycle: 0, .. }));
    }

    #[test]
    fn same_component_may_rewrite_its_own_signal() {
        struct TwoWrites {
            out: SignalId,
        }
        impl Component for TwoWrites {
            fn tick(&mut self, ctx: &mut TickCtx<'_>) {
                ctx.set(self.out, 1);
                ctx.set(self.out, 2);
            }
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
                self
            }
        }
        let mut b = SimulatorBuilder::new();
        let s = b.sig("s", 8);
        b.component(Box::new(TwoWrites { out: s }));
        let mut sim = b.build();
        sim.step().unwrap();
        assert_eq!(sim.value(s), 2);
    }

    #[test]
    fn undriven_signals_hold_value() {
        let mut b = SimulatorBuilder::new();
        let s = b.signal(SignalDecl::with_reset("hold", 8, 0xAB));
        let mut sim = b.build();
        sim.run(3).unwrap();
        assert_eq!(sim.value(s), 0xAB);
    }

    #[test]
    fn run_until_reports_cycles_and_timeouts() {
        let mut b = SimulatorBuilder::new();
        let c = b.sig("count", 16);
        b.component(Box::new(Counter { out: c }));
        let mut sim = b.build();
        let n = sim.run_until("count==4", 100, |s| s.value(c) == 4).unwrap();
        assert_eq!(n.cycles, 4);
        let err = sim.run_until("count==3", 10, |s| s.value(c) == 3).unwrap_err();
        assert!(matches!(err, SimError::Timeout { after: 10, .. }));
    }

    #[test]
    fn run_until_eq_and_high_match_run_until() {
        let mut b = SimulatorBuilder::new();
        let c = b.sig("count", 16);
        b.component(Box::new(Counter { out: c }));
        let mut sim = b.build();
        assert_eq!(sim.run_until_high("count!=0", c, 100).unwrap().cycles, 1);
        assert_eq!(sim.run_until_eq("count==4", c, 4, 100).unwrap().cycles, 3);
        let err = sim.run_until_eq("count==2", c, 2, 10).unwrap_err();
        assert!(matches!(err, SimError::Timeout { after: 10, .. }));
    }

    #[test]
    fn signal_lookup_by_name() {
        let mut b = SimulatorBuilder::new();
        let s = b.sig("abc", 8);
        let sim = b.build();
        assert_eq!(sim.signal_id("abc").unwrap(), s);
        assert!(matches!(sim.signal_id("zzz"), Err(SimError::NoSuchSignal(_))));
    }

    #[test]
    #[should_panic(expected = "declared twice")]
    fn duplicate_signal_panics() {
        let mut b = SimulatorBuilder::new();
        b.sig("x", 1);
        b.sig("x", 1);
    }

    #[test]
    fn component_downcast() {
        let mut b = SimulatorBuilder::new();
        let c = b.sig("count", 16);
        let idx = b.component(Box::new(Counter { out: c }));
        let sim = b.build();
        assert!(sim.component::<Counter>(idx).is_some());
        assert!(sim.component::<Reg>(idx).is_none());
    }

    #[test]
    fn traces_sample_pre_edge_values() {
        let mut b = SimulatorBuilder::new();
        let c = b.sig("count", 16);
        b.component(Box::new(Counter { out: c }));
        let mut sim = b.build();
        let t = sim.attach_trace(&[c]);
        sim.run(3).unwrap();
        let trace = sim.trace(t);
        assert_eq!(trace.values("count").unwrap(), &[0, 1, 2]);
    }

    // --- event-driven scheduler ---------------------------------------

    /// A gated register: declares sensitivity on its input only.
    struct GatedReg {
        input: SignalId,
        output: SignalId,
        ticks: u64,
    }

    impl Component for GatedReg {
        fn tick(&mut self, ctx: &mut TickCtx<'_>) {
            self.ticks += 1;
            let v = ctx.get(self.input);
            ctx.set(self.output, v);
        }
        fn sensitivity(&self) -> Sensitivity {
            Sensitivity::Signals(vec![self.input])
        }
        fn name(&self) -> &str {
            "gated-reg"
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    /// Writes a one-shot pulse at a fixed cycle via `wake_after`.
    struct OneShot {
        out: SignalId,
        at: u64,
        fired_at: Option<u64>,
    }

    impl Component for OneShot {
        fn tick(&mut self, ctx: &mut TickCtx<'_>) {
            if ctx.cycle() == self.at {
                self.fired_at = Some(ctx.cycle());
                ctx.set(self.out, 1);
            } else if ctx.cycle() < self.at {
                ctx.wake_after(self.at - ctx.cycle());
            }
        }
        fn sensitivity(&self) -> Sensitivity {
            Sensitivity::Signals(vec![])
        }
        fn name(&self) -> &str {
            "one-shot"
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    #[test]
    fn gated_component_sleeps_while_inputs_quiet_and_wakes_on_the_edge() {
        let mut b = SimulatorBuilder::new();
        let pulse = b.sig("pulse", 1);
        let echo = b.sig("echo", 1);
        b.component(Box::new(OneShot { out: pulse, at: 10, fired_at: None }));
        let reg_idx = b.component(Box::new(GatedReg { input: pulse, output: echo, ticks: 0 }));
        let mut sim = b.build();
        sim.run(9).unwrap();
        // Quiet input: the gated reg ticked only at cycle 0.
        assert_eq!(sim.component::<GatedReg>(reg_idx).unwrap().ticks, 1);
        assert_eq!(sim.value(echo), 0);
        sim.run(3).unwrap();
        // pulse rises on edge 10 → the reg ticks at cycle 11 → echo rises
        // on edge 11, exactly one register delay after the input edge.
        assert_eq!(sim.component::<GatedReg>(reg_idx).unwrap().ticks, 2);
        assert_eq!(sim.value(echo), 1);
    }

    #[test]
    fn gated_timing_matches_eager_timing() {
        let run = |backend: Backend| {
            let mut b = SimulatorBuilder::new();
            let pulse = b.sig("pulse", 1);
            let echo = b.sig("echo", 1);
            b.component(Box::new(OneShot { out: pulse, at: 7, fired_at: None }));
            b.component(Box::new(GatedReg { input: pulse, output: echo, ticks: 0 }));
            let mut sim = b.build();
            sim.set_backend(backend);
            let t = sim.attach_trace(&[pulse, echo]);
            sim.run(12).unwrap();
            (sim.trace(t).values("pulse").unwrap(), sim.trace(t).values("echo").unwrap())
        };
        assert_eq!(run(Backend::Gated), run(Backend::Eager));
    }

    #[test]
    fn wake_after_fires_on_the_exact_requested_cycle() {
        let mut b = SimulatorBuilder::new();
        let out = b.sig("out", 1);
        let idx = b.component(Box::new(OneShot { out, at: 37, fired_at: None }));
        let mut sim = b.build();
        sim.run(40).unwrap();
        assert_eq!(sim.component::<OneShot>(idx).unwrap().fired_at, Some(37));
        // The pulse committed on edge 37.
        assert_eq!(sim.value(out), 1);
    }

    #[test]
    fn stale_epoch_writes_are_ignored() {
        // A component that writes only at cycle 0 leaves a stale value in
        // the scratch buffer; later cycles must not re-commit it.
        struct WriteOnce {
            out: SignalId,
        }
        impl Component for WriteOnce {
            fn tick(&mut self, ctx: &mut TickCtx<'_>) {
                if ctx.cycle() == 0 {
                    ctx.set(self.out, 7);
                }
            }
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
                self
            }
        }
        struct Clearer {
            out: SignalId,
        }
        impl Component for Clearer {
            fn tick(&mut self, ctx: &mut TickCtx<'_>) {
                if ctx.cycle() == 1 {
                    ctx.set(self.out, 1);
                }
            }
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
                self
            }
        }
        let mut b = SimulatorBuilder::new();
        let s = b.sig("s", 8);
        b.component(Box::new(WriteOnce { out: s }));
        b.component(Box::new(Clearer { out: s }));
        let mut sim = b.build();
        sim.step().unwrap(); // only WriteOnce writes → 7
        assert_eq!(sim.value(s), 7);
        sim.step().unwrap(); // only Clearer writes → 1; the stale 7 in the
        assert_eq!(sim.value(s), 1); // scratch buffer is not a conflict
        sim.step().unwrap(); // nobody writes → holds
        assert_eq!(sim.value(s), 1);
    }

    #[test]
    fn conflict_detected_on_a_later_cycle_between_gated_components() {
        // Two one-shots firing the same signal on the same later cycle:
        // conflict must be reported at exactly that cycle.
        let mut b = SimulatorBuilder::new();
        let s = b.sig("s", 1);
        b.component(Box::new(OneShot { out: s, at: 5, fired_at: None }));
        b.component(Box::new(OneShot { out: s, at: 5, fired_at: None }));
        let mut sim = b.build();
        sim.run(5).unwrap();
        let err = sim.step().unwrap_err();
        assert!(matches!(err, SimError::MultipleDrivers { cycle: 5, .. }), "{err:?}");
    }

    #[test]
    fn component_mut_wakes_a_sleeping_component() {
        let mut b = SimulatorBuilder::new();
        let pulse = b.sig("pulse", 1);
        let echo = b.sig("echo", 1);
        let idx = b.component(Box::new(GatedReg { input: pulse, output: echo, ticks: 0 }));
        let mut sim = b.build();
        sim.run(5).unwrap();
        assert_eq!(sim.component::<GatedReg>(idx).unwrap().ticks, 1);
        // External mutation wakes the component for the next step.
        sim.component_mut::<GatedReg>(idx).unwrap().ticks = 100;
        sim.step().unwrap();
        assert_eq!(sim.component::<GatedReg>(idx).unwrap().ticks, 101);
    }

    #[test]
    fn eager_mode_ticks_gated_components_every_cycle() {
        let mut b = SimulatorBuilder::new();
        let pulse = b.sig("pulse", 1);
        let echo = b.sig("echo", 1);
        let idx = b.component(Box::new(GatedReg { input: pulse, output: echo, ticks: 0 }));
        let mut sim = b.build();
        sim.set_backend(Backend::Eager);
        sim.run(10).unwrap();
        assert_eq!(sim.component::<GatedReg>(idx).unwrap().ticks, 10);
    }

    // --- RunStats and the per-component profiler ----------------------

    /// pulse-at-10 one-shot + gated echo reg: the standard two-component
    /// gated fixture used by the scheduler tests above.
    fn pulse_echo_sim() -> Simulator {
        let mut b = SimulatorBuilder::new();
        let pulse = b.sig("pulse", 1);
        let echo = b.sig("echo", 1);
        b.component(Box::new(OneShot { out: pulse, at: 10, fired_at: None }));
        b.component(Box::new(GatedReg { input: pulse, output: echo, ticks: 0 }));
        b.build()
    }

    #[test]
    fn run_stats_count_cycles_ticks_and_idle_fast_path() {
        let mut sim = pulse_echo_sim();
        // Cycle 0: both tick (reset). Cycles 1..=9: all asleep but the
        // one-shot's wake at 10 blocks the fast path only at cycle 10.
        let stats = sim.run(12).unwrap();
        assert_eq!(stats.cycles, 12);
        // Ticks: both at cycle 0, one-shot at 10, reg at 11 (pulse edge).
        assert_eq!(stats.ticks, 4);
        // Idle fast path: cycles 1..=9 and... cycle 11 wakes reg, cycle 10
        // wakes one-shot, so 12 − (3 active steps) = 9 idle.
        assert_eq!(stats.idle_cycles, 9);
        assert!((stats.ticks_per_cycle() - 4.0 / 12.0).abs() < 1e-12);

        // Deltas, not lifetime totals: a fully-idle follow-up run.
        let stats2 = sim.run(5).unwrap();
        assert_eq!(stats2, RunStats { cycles: 5, ticks: 0, idle_cycles: 5 });
    }

    #[test]
    fn run_until_returns_stats_for_the_waited_window() {
        let mut sim = pulse_echo_sim();
        let echo = sim.signal_id("echo").unwrap();
        let stats = sim.run_until_high("echo", echo, 100).unwrap();
        assert_eq!(stats.cycles, 12); // echo commits on edge 11
        assert_eq!(stats.ticks, 4);
    }

    #[test]
    fn profiler_attributes_wake_causes_and_intervals() {
        let mut sim = pulse_echo_sim();
        sim.enable_profiler();
        sim.run(12).unwrap();
        let p = sim.take_profile().unwrap();
        assert_eq!(p.steps, 12);
        assert_eq!(p.idle_cycles, 9);

        let shot = &p.components[0];
        assert_eq!(shot.name, "one-shot");
        assert_eq!(shot.ticks, 2);
        // Cycle 0 is the reset tick (External), cycle 10 its wake_after.
        assert_eq!(shot.wake_external, 1);
        assert_eq!(shot.wake_timer, 1);
        assert_eq!(shot.wake_signal, 0);
        assert_eq!(shot.intervals, vec![(0, 1), (10, 11)]);
        assert_eq!(shot.writes, 1); // wake request isn't a write; pulse is set at 10

        let reg = &p.components[1];
        assert_eq!(reg.ticks, 2);
        assert_eq!(reg.wake_external, 1); // reset tick
        assert_eq!(reg.wake_signal, 1); // pulse edge wakes it at 11
        assert_eq!(reg.intervals, vec![(0, 1), (11, 12)]);
        assert_eq!(p.asleep_cycles(1), 10);

        // Rendered table mentions both components and the idle count.
        let text = p.render_text();
        assert!(text.contains("one-shot") && text.contains("gated-reg"), "{text}");
        assert!(text.contains("9 idle fast-path"), "{text}");
    }

    #[test]
    fn profiler_marks_eager_ticks_and_always_components() {
        let mut b = SimulatorBuilder::new();
        let c = b.sig("count", 16);
        b.component(Box::new(Counter { out: c }));
        let mut sim = b.build();
        sim.enable_profiler();
        sim.run(5).unwrap();
        let p = sim.take_profile().unwrap();
        let counter = &p.components[0];
        assert_eq!(counter.ticks, 5);
        // Cycle 0 consumes the initial wake (External); the rest are pure
        // `Always` scheduling.
        assert_eq!(counter.wake_external, 1);
        assert_eq!(counter.wake_eager, 4);
        assert_eq!(counter.intervals, vec![(0, 5)]);
        assert_eq!(p.idle_cycles, 0);
    }

    #[test]
    fn backend_selection() {
        let mut sim = pulse_echo_sim();
        assert_eq!(sim.backend(), Backend::Gated);
        for backend in [Backend::Eager, Backend::Compiled, Backend::Gated] {
            sim.set_backend(backend);
            assert_eq!(sim.backend(), backend);
        }
    }

    #[test]
    fn profiler_and_metrics_keep_the_selected_backend() {
        for backend in [Backend::Eager, Backend::Gated, Backend::Compiled] {
            let run = |profile: bool, metrics: bool| {
                let mut sim = pulse_echo_sim();
                sim.set_backend(backend);
                if profile {
                    sim.enable_profiler();
                }
                if metrics {
                    sim.metrics_mut().enable();
                }
                let stats = sim.run(12).unwrap();
                assert_eq!(sim.backend(), backend);
                stats
            };
            let plain = run(false, false);
            for (profile, metrics) in [(true, false), (false, true), (true, true)] {
                assert_eq!(
                    run(profile, metrics),
                    plain,
                    "{backend:?}: profile={profile} metrics={metrics} moved a tick"
                );
            }
        }
    }

    #[test]
    fn profiler_take_is_one_shot() {
        let mut sim = pulse_echo_sim();
        sim.enable_profiler();
        assert!(sim.profiler_enabled());
        sim.run(3).unwrap();
        let p = sim.take_profile().unwrap();
        assert!(p.idle_cycles > 0, "gated scheduler stayed gated under profiling");
        assert!(sim.take_profile().is_none());
        assert!(!sim.profiler_enabled());
    }

    #[test]
    fn profile_chrome_lanes_use_the_cycle_axis() {
        let mut sim = pulse_echo_sim();
        sim.enable_profiler();
        sim.run(12).unwrap();
        let p = sim.take_profile().unwrap();
        let mut t = splice_obs::ChromeTrace::new();
        p.add_chrome_lanes(&mut t, 2);
        let v = splice_obs::JsonValue::parse(&t.to_json()).expect("valid chrome JSON");
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        // One process_name + per component: thread_name + summary + awake
        // intervals (2 each) = 1 + 2*(1+1+2).
        assert_eq!(events.len(), 9);
        let awake: Vec<(u64, u64, u64)> = events
            .iter()
            .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some("awake"))
            .map(|e| {
                (
                    e.get("tid").unwrap().as_u64().unwrap(),
                    e.get("ts").unwrap().as_u64().unwrap(),
                    e.get("dur").unwrap().as_u64().unwrap(),
                )
            })
            .collect();
        assert_eq!(awake, vec![(1, 0, 1), (1, 10, 1), (2, 0, 1), (2, 11, 1)]);
    }
}
