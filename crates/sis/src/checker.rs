//! SIS protocol conformance monitor.
//!
//! §4.2 fixes "a number of communication axioms ... that serve to dictate
//! how an SIS adapter should interact with code that is created via the
//! tool". This monitor watches a live SIS and records violations of the
//! checkable axioms:
//!
//! 1. **Write stability** — once DATA_IN_VALID rises, DATA_IN and FUNC_ID
//!    "must then remain static until the targeted hardware function raises
//!    its IO_DONE line" (§4.2.1).
//! 2. **IO_DONE one-shot** — IO_DONE is raised "for a single clock cycle"
//!    per transaction (pseudo-asynchronous mode).
//! 3. **DATA_OUT_VALID one-shot** — output data is "held static for a
//!    single clock cycle, at end of which they are lowered again".
//! 4. **Read data qualification** — DATA_OUT_VALID in pseudo-asynchronous
//!    mode must coincide with IO_DONE (they are raised together, §4.2.1).
//!
//! The monitor is a passive [`Component`]: it drives nothing, so it can be
//! dropped into any simulation without altering behaviour.

use crate::protocol::SisMode;
use crate::signals::SisBus;
use splice_sim::{Component, TickCtx, Word};

/// One recorded axiom violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Cycle at which the violation was observed.
    pub cycle: u64,
    /// Which axiom was broken.
    pub axiom: Axiom,
    /// Human-readable detail.
    pub detail: String,
}

/// The checkable SIS axioms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axiom {
    /// DATA_IN / FUNC_ID changed while DATA_IN_VALID was held before IO_DONE.
    WriteStability,
    /// IO_DONE held longer than one cycle.
    IoDoneOneShot,
    /// DATA_OUT_VALID held longer than one cycle.
    DataOutValidOneShot,
    /// DATA_OUT_VALID asserted without IO_DONE.
    ReadQualification,
}

impl Axiom {
    /// Stable identifier used in violation events and metric reports.
    pub fn name(self) -> &'static str {
        match self {
            Axiom::WriteStability => "write_stability",
            Axiom::IoDoneOneShot => "io_done_one_shot",
            Axiom::DataOutValidOneShot => "data_out_valid_one_shot",
            Axiom::ReadQualification => "read_qualification",
        }
    }
}

/// Passive SIS conformance checker.
pub struct SisChecker {
    bus: SisBus,
    mode: SisMode,
    /// All violations observed so far.
    pub violations: Vec<Violation>,
    // latched write-beat state
    latched: Option<(Word, Word)>, // (data_in, func_id)
    prev_io_done: bool,
    prev_dov: bool,
}

impl SisChecker {
    /// Watch `bus` under protocol `mode`.
    pub fn new(bus: SisBus, mode: SisMode) -> Self {
        SisChecker {
            bus,
            mode,
            violations: Vec::new(),
            latched: None,
            prev_io_done: false,
            prev_dov: false,
        }
    }

    /// True when no axiom has been violated.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }

    fn violate(&mut self, ctx: &mut TickCtx<'_>, axiom: Axiom, detail: String) {
        let cycle = ctx.cycle();
        ctx.metric_add("sis.checker.violations", 1);
        ctx.violation_event(Component::name(self), axiom.name(), detail.clone());
        self.violations.push(Violation { cycle, axiom, detail });
    }
}

impl Component for SisChecker {
    fn tick(&mut self, ctx: &mut TickCtx<'_>) {
        if ctx.get_bool(self.bus.rst) {
            self.latched = None;
            self.prev_io_done = false;
            self.prev_dov = false;
            return;
        }

        let valid = ctx.get_bool(self.bus.data_in_valid);
        let io_done = ctx.get_bool(self.bus.io_done);
        let dov = ctx.get_bool(self.bus.data_out_valid);
        let data_in = ctx.get(self.bus.data_in);
        let func_id = ctx.get(self.bus.func_id);

        // Axiom 1: write stability.
        if valid {
            match self.latched {
                None => self.latched = Some((data_in, func_id)),
                Some((d, f)) => {
                    // A completed beat (IO_DONE last cycle) may legally start
                    // a new beat with fresh data.
                    if self.prev_io_done {
                        self.latched = Some((data_in, func_id));
                    } else if d != data_in || f != func_id {
                        self.violate(
                            ctx,
                            Axiom::WriteStability,
                            format!(
                                "DATA_IN/FUNC_ID changed mid-beat: \
                                 ({d:#x},{f}) -> ({data_in:#x},{func_id})"
                            ),
                        );
                        self.latched = Some((data_in, func_id));
                    }
                }
            }
        } else {
            self.latched = None;
        }

        if self.mode == SisMode::PseudoAsync {
            // Axiom 2: IO_DONE one-shot.
            if io_done && self.prev_io_done {
                self.violate(ctx, Axiom::IoDoneOneShot, "IO_DONE held >1 cycle".into());
            }
            // Axiom 3: DATA_OUT_VALID one-shot.
            if dov && self.prev_dov {
                self.violate(
                    ctx,
                    Axiom::DataOutValidOneShot,
                    "DATA_OUT_VALID held >1 cycle".into(),
                );
            }
            // Axiom 4: reads answer with DATA_OUT_VALID and IO_DONE together.
            if dov && !io_done {
                self.violate(
                    ctx,
                    Axiom::ReadQualification,
                    "DATA_OUT_VALID without IO_DONE".into(),
                );
            }
        }

        self.prev_io_done = io_done;
        self.prev_dov = dov;
    }

    fn sensitivity(&self) -> splice_sim::Sensitivity {
        // Deliberately eager: several rules (e.g. sticky DATA_OUT_VALID
        // outside a handshake) must flag *every* offending cycle, including
        // ones on which no watched signal changes, so the checker never
        // sleeps. Checked systems therefore trade the idle fast path for
        // full-protocol coverage.
        splice_sim::Sensitivity::Always
    }

    fn name(&self) -> &str {
        "sis-checker"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{EchoFunction, SisMaster, SisOp};
    use splice_sim::{SignalId, SimulatorBuilder};

    fn sum(xs: &[Word]) -> Word {
        xs.iter().sum()
    }

    #[test]
    fn conformant_traffic_is_clean() {
        let script = vec![
            SisOp::Write { func_id: 1, data: 1 },
            SisOp::Write { func_id: 1, data: 2 },
            SisOp::Read { func_id: 1 },
            SisOp::Write { func_id: 1, data: 3 },
            SisOp::Write { func_id: 1, data: 4 },
            SisOp::Read { func_id: 1 },
        ];
        let mut b = SimulatorBuilder::new();
        let bus = SisBus::declare(&mut b, "", 32, 8);
        let midx = b.component(Box::new(SisMaster::new(bus, SisMode::PseudoAsync, script)));
        b.component(Box::new(EchoFunction::new(
            1,
            bus,
            bus.data_out,
            bus.data_out_valid,
            bus.io_done,
            bus.calc_done,
            2,
            1,
            sum,
        )));
        let cidx = b.component(Box::new(SisChecker::new(bus, SisMode::PseudoAsync)));
        let mut sim = b.build();
        sim.run_until("finish", 1000, |s| s.component::<SisMaster>(midx).unwrap().is_finished())
            .unwrap();
        sim.run(3).unwrap();
        let checker = sim.component::<SisChecker>(cidx).unwrap();
        assert!(checker.clean(), "violations: {:?}", checker.violations);
        let m = sim.component::<SisMaster>(midx).unwrap();
        assert_eq!(m.reads, vec![3, 7]);
    }

    /// A deliberately broken master: changes DATA_IN mid-beat.
    struct RogueMaster {
        bus: SisBus,
        n: u64,
    }
    impl Component for RogueMaster {
        fn tick(&mut self, ctx: &mut TickCtx<'_>) {
            ctx.set_bool(self.bus.data_in_valid, true);
            ctx.set(self.bus.data_in, self.n); // new value every cycle!
            ctx.set(self.bus.func_id, 1);
            self.n += 1;
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    #[test]
    fn mid_beat_data_change_flagged() {
        let mut b = SimulatorBuilder::new();
        let bus = SisBus::declare(&mut b, "", 32, 8);
        b.component(Box::new(RogueMaster { bus, n: 0 }));
        let cidx = b.component(Box::new(SisChecker::new(bus, SisMode::PseudoAsync)));
        let mut sim = b.build();
        sim.run(5).unwrap();
        let checker = sim.component::<SisChecker>(cidx).unwrap();
        assert!(!checker.clean());
        assert!(checker.violations.iter().all(|v| v.axiom == Axiom::WriteStability));
    }

    /// A broken slave: holds IO_DONE for many cycles.
    struct StickyDoneSlave {
        io_done: SignalId,
    }
    impl Component for StickyDoneSlave {
        fn tick(&mut self, ctx: &mut TickCtx<'_>) {
            ctx.set_bool(self.io_done, true);
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    #[test]
    fn sticky_io_done_flagged_in_pseudo_async_only() {
        for (mode, expect_dirty) in [(SisMode::PseudoAsync, true), (SisMode::StrictSync, false)] {
            let mut b = SimulatorBuilder::new();
            let bus = SisBus::declare(&mut b, "", 32, 8);
            b.component(Box::new(StickyDoneSlave { io_done: bus.io_done }));
            let cidx = b.component(Box::new(SisChecker::new(bus, mode)));
            let mut sim = b.build();
            sim.run(5).unwrap();
            let checker = sim.component::<SisChecker>(cidx).unwrap();
            assert_eq!(!checker.clean(), expect_dirty, "mode {mode:?}");
        }
    }

    #[test]
    fn data_out_valid_without_io_done_flagged() {
        struct BadReader {
            dov: SignalId,
        }
        impl Component for BadReader {
            fn tick(&mut self, ctx: &mut TickCtx<'_>) {
                ctx.set_bool(self.dov, ctx.cycle() == 2);
            }
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
                self
            }
        }
        let mut b = SimulatorBuilder::new();
        let bus = SisBus::declare(&mut b, "", 32, 8);
        b.component(Box::new(BadReader { dov: bus.data_out_valid }));
        let cidx = b.component(Box::new(SisChecker::new(bus, SisMode::PseudoAsync)));
        let mut sim = b.build();
        sim.run(6).unwrap();
        let checker = sim.component::<SisChecker>(cidx).unwrap();
        assert_eq!(checker.violations.len(), 1);
        assert_eq!(checker.violations[0].axiom, Axiom::ReadQualification);
        assert_eq!(checker.violations[0].cycle, 3);
    }

    #[test]
    fn violations_reach_the_event_log() {
        let mut b = SimulatorBuilder::new();
        let bus = SisBus::declare(&mut b, "", 32, 8);
        b.component(Box::new(RogueMaster { bus, n: 0 }));
        let cidx = b.component(Box::new(SisChecker::new(bus, SisMode::PseudoAsync)));
        let mut sim = b.build();
        sim.metrics_mut().enable();
        sim.run(5).unwrap();

        let n = sim.component::<SisChecker>(cidx).unwrap().violations.len();
        assert!(n > 0);
        // Counter and event log mirror the checker's own records, with
        // cycle and axiom context attached.
        assert_eq!(sim.metrics().counter("sis.checker.violations"), n as u64);
        let events: Vec<_> = sim.metrics().events().violations().collect();
        assert_eq!(events.len(), n);
        match events[0] {
            splice_obs::metrics::Event::Violation { cycle, source, axiom, detail } => {
                assert!(*cycle > 0);
                assert_eq!(source, "sis-checker");
                assert_eq!(axiom, "write_stability");
                assert!(detail.contains("DATA_IN"));
            }
            other => panic!("not a violation: {other:?}"),
        }
    }

    #[test]
    fn disabled_metrics_record_no_violation_events() {
        let mut b = SimulatorBuilder::new();
        let bus = SisBus::declare(&mut b, "", 32, 8);
        b.component(Box::new(RogueMaster { bus, n: 0 }));
        let cidx = b.component(Box::new(SisChecker::new(bus, SisMode::PseudoAsync)));
        let mut sim = b.build();
        if sim.metrics().is_enabled() {
            return; // SPLICE_TRACE set in the environment
        }
        sim.run(5).unwrap();
        // The checker itself still records violations; only the metrics
        // side stays silent.
        assert!(!sim.component::<SisChecker>(cidx).unwrap().clean());
        assert_eq!(sim.metrics().counter("sis.checker.violations"), 0);
        assert!(sim.metrics().events().events().is_empty());
    }

    #[test]
    fn reset_clears_checker_state() {
        struct PulseRst {
            rst: SignalId,
        }
        impl Component for PulseRst {
            fn tick(&mut self, ctx: &mut TickCtx<'_>) {
                ctx.set_bool(self.rst, ctx.cycle() < 2);
            }
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
                self
            }
        }
        let mut b = SimulatorBuilder::new();
        let bus = SisBus::declare(&mut b, "", 32, 8);
        b.component(Box::new(PulseRst { rst: bus.rst }));
        let cidx = b.component(Box::new(SisChecker::new(bus, SisMode::PseudoAsync)));
        let mut sim = b.build();
        sim.run(6).unwrap();
        assert!(sim.component::<SisChecker>(cidx).unwrap().clean());
    }
}
