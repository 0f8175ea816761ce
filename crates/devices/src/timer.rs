//! The chapter 8 hardware timer, end to end.
//!
//! The thesis walks one device through the whole Splice flow: the Fig 8.2
//! specification, the Fig 8.3 generated files, the Fig 8.4 handshaking
//! code, the Fig 8.5 command handler, the Fig 8.6 counter process and the
//! Fig 8.8 software test suite. This module is that walk-through as
//! executable Rust: the same spec text, the same seven functions, a shared
//! timer core standing in for the hand-written `timer.vhd`, and a test
//! suite that exercises it through the full simulated PLB.

use splice_buses::system::SplicedSystem;
use splice_core::simbuild::{CalcLogic, CalcResult, FuncInputs};
use splice_driver::program::CallArgs;
use splice_sim::{Component, TickCtx, Word};
use splice_spec::parse_and_validate;
use splice_spec::validate::ModuleSpec;
use std::cell::RefCell;
use std::rc::Rc;

/// The Fig 8.2 specification, verbatim in structure (PLB, 32-bit,
/// base 0x8000401C, 64-bit threshold type).
pub const TIMER_SPEC: &str = r#"
// Target Specification (Fig 8.2)
%name hw_timer
%hdl_type vhdl
%bus_type plb
%bus_width 32
%base_address 0x8000401C
%dma_support false
%user_type llong, unsigned long long, 64
%user_type ulong, unsigned long, 32

// Interface Directives
void disable{};
void enable{};
void set_threshold{llong thold};
llong get_threshold{};
llong get_snapshot{};
ulong get_clock{};
ulong get_status{};
"#;

/// The bus clock rate `get_clock` reports (the thesis's boards run their
/// interconnects at 100 MHz).
pub const TIMER_CLOCK_RATE_HZ: u64 = 100_000_000;

/// Status bit 0: timer enabled (Fig 8.8's comment).
pub const STATUS_ENABLED: u64 = 1 << 0;
/// Status bit 1: timer fired since the last status read.
pub const STATUS_FIRED: u64 = 1 << 1;

/// Parse and validate the timer specification.
pub fn timer_module() -> ModuleSpec {
    parse_and_validate(TIMER_SPEC).expect("the Fig 8.2 spec validates").module
}

/// The Fig 8.2 spec retargeted to another bus — the portability exercise
/// the whole tool exists for: only `%bus_type` (and, for the FCB, the
/// now-ignored `%base_address`) changes.
pub fn timer_spec_on(bus: &str) -> String {
    TIMER_SPEC.replace("%bus_type plb", &format!("%bus_type {bus}"))
}

/// Parse and validate the timer for `bus`.
pub fn timer_module_on(bus: &str) -> ModuleSpec {
    parse_and_validate(&timer_spec_on(bus)).expect("retargeted timer validates").module
}

/// The timer internals — the hand-written `timer.vhd` of §8.3.2: a counter
/// process plus a command handler, shared by all seven function stubs via
/// direct port mappings.
#[derive(Debug, Default)]
pub struct TimerCore {
    /// Counting is enabled.
    pub enabled: bool,
    /// Fire threshold.
    pub threshold: u64,
    /// Current counter value.
    pub value: u64,
    /// Latched "fired" flag (cleared by `get_status`).
    pub fired: bool,
    /// Total fires since reset.
    pub fire_count: u64,
}

impl TimerCore {
    /// One clock of the Fig 8.6 counter process.
    pub fn tick(&mut self) {
        if !self.enabled {
            return;
        }
        if self.threshold != 0 && self.value == self.threshold {
            // Threshold reached: trigger and auto-restart (§8.1).
            self.fired = true;
            self.fire_count += 1;
            self.value = 0;
        } else {
            self.value = self.value.wrapping_add(1);
        }
    }

    /// The Fig 8.5 command dispatch.
    pub fn command(&mut self, op: TimerOp, operand: u64) -> u64 {
        match op {
            TimerOp::Enable => {
                self.enabled = true;
                0
            }
            TimerOp::Disable => {
                self.enabled = false;
                0
            }
            TimerOp::SetThreshold => {
                self.threshold = operand;
                self.value = 0; // "Also Resets the Timer" (Fig 8.8)
                0
            }
            TimerOp::GetThreshold => self.threshold,
            TimerOp::GetSnapshot => self.value,
            TimerOp::GetClock => TIMER_CLOCK_RATE_HZ,
            TimerOp::GetStatus => {
                let mut status = 0;
                if self.enabled {
                    status |= STATUS_ENABLED;
                }
                if self.fired {
                    status |= STATUS_FIRED;
                    self.fired = false; // "Clears Internal Timer Fired Bit"
                }
                status
            }
        }
    }
}

/// The one-hot COMMAND encoding of §8.3.2, by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimerOp {
    /// `enable()`.
    Enable,
    /// `disable()`.
    Disable,
    /// `set_threshold(llong)`.
    SetThreshold,
    /// `get_threshold()`.
    GetThreshold,
    /// `get_snapshot()`.
    GetSnapshot,
    /// `get_clock()`.
    GetClock,
    /// `get_status()`.
    GetStatus,
}

impl TimerOp {
    /// Map a Splice function name onto its timer command.
    pub fn from_function(name: &str) -> Option<TimerOp> {
        Some(match name {
            "enable" => TimerOp::Enable,
            "disable" => TimerOp::Disable,
            "set_threshold" => TimerOp::SetThreshold,
            "get_threshold" => TimerOp::GetThreshold,
            "get_snapshot" => TimerOp::GetSnapshot,
            "get_clock" => TimerOp::GetClock,
            "get_status" => TimerOp::GetStatus,
            _ => return None,
        })
    }
}

/// Shared handle to the timer core.
pub type TimerHandle = Rc<RefCell<TimerCore>>;

/// The per-function user logic filled into each generated stub: the
/// handshaking of Fig 8.4 is already in the stub; this is the
/// TIMER_ACTIVATE/TIMER_CMD_DONE exchange with the core.
pub struct TimerFunctionCalc {
    op: TimerOp,
    core: TimerHandle,
}

impl CalcLogic for TimerFunctionCalc {
    fn run(&mut self, inputs: &FuncInputs) -> CalcResult {
        let operand = inputs.values.first().and_then(|v| v.first()).copied().unwrap_or(0);
        let result = self.core.borrow_mut().command(self.op, operand);
        // One handshake cycle with the timer module (§8.3.1).
        CalcResult { cycles: 1, output: vec![result] }
    }

    fn name(&self) -> &str {
        "timer-function"
    }
}

/// The free-running counter process (Fig 8.6) as a simulation component.
pub struct TimerTicker {
    core: TimerHandle,
}

impl Component for TimerTicker {
    fn tick(&mut self, _ctx: &mut TickCtx<'_>) {
        self.core.borrow_mut().tick();
    }

    fn sensitivity(&self) -> splice_sim::Sensitivity {
        // A free-running counter genuinely does work every bus clock — it
        // must never be gated, or wall-clock time would stop advancing for
        // the device while the bus is idle.
        splice_sim::Sensitivity::Always
    }

    fn name(&self) -> &str {
        "timer-counter"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// A fully built timer device on the simulated PLB: the end product of the
/// chapter 8 walk-through.
pub struct TimerDevice {
    /// The live system.
    pub system: SplicedSystem,
    core: TimerHandle,
}

impl TimerDevice {
    /// Build the timer on the PLB from the Fig 8.2 spec.
    pub fn build() -> TimerDevice {
        Self::build_on("plb")
    }

    /// Build the timer on any supported bus (the portability claim of
    /// §10.1: change `%bus_type`, regenerate, done).
    pub fn build_on(bus: &str) -> TimerDevice {
        let module = timer_module_on(bus);
        let core: TimerHandle = Rc::new(RefCell::new(TimerCore::default()));
        let core_for_funcs = Rc::clone(&core);
        let core_for_ticker = Rc::clone(&core);
        let system = SplicedSystem::build_full(
            &module,
            move |func, _inst| {
                let op = TimerOp::from_function(func).expect("timer function");
                Box::new(TimerFunctionCalc { op, core: Rc::clone(&core_for_funcs) })
            },
            move |b, _| {
                b.component(Box::new(TimerTicker { core: core_for_ticker }));
            },
        );
        TimerDevice { system, core }
    }

    /// Inspect the core (tests).
    pub fn core(&self) -> std::cell::Ref<'_, TimerCore> {
        self.core.borrow()
    }

    // ---- the generated driver functions (Fig 8.7's hw_timer_driver.c) ----

    /// `void disable()`.
    pub fn disable(&mut self) -> u64 {
        self.system.call("disable", &CallArgs::none()).expect("disable").bus_cycles
    }

    /// `void enable()`.
    pub fn enable(&mut self) -> u64 {
        self.system.call("enable", &CallArgs::none()).expect("enable").bus_cycles
    }

    /// `void set_threshold(llong thold)`.
    pub fn set_threshold(&mut self, thold: u64) -> u64 {
        self.system
            .call("set_threshold", &CallArgs::scalars(&[thold]))
            .expect("set_threshold")
            .bus_cycles
    }

    /// `llong get_threshold()`.
    pub fn get_threshold(&mut self) -> Word {
        self.system.call("get_threshold", &CallArgs::none()).expect("get_threshold").result[0]
    }

    /// `llong get_snapshot()`.
    pub fn get_snapshot(&mut self) -> Word {
        self.system.call("get_snapshot", &CallArgs::none()).expect("get_snapshot").result[0]
    }

    /// `ulong get_clock()`.
    pub fn get_clock(&mut self) -> Word {
        self.system.call("get_clock", &CallArgs::none()).expect("get_clock").result[0]
    }

    /// `ulong get_status()`.
    pub fn get_status(&mut self) -> Word {
        self.system.call("get_status", &CallArgs::none()).expect("get_status").result[0]
    }

    /// Let the device run idle for `cycles` bus clocks (the `sleep()` of
    /// Fig 8.8).
    pub fn sleep(&mut self, cycles: u64) {
        self.system.sim_mut().run(cycles).expect("idle run");
    }
}

impl Default for TimerDevice {
    fn default() -> Self {
        Self::build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_matches_fig_8_2() {
        let m = timer_module();
        assert_eq!(m.params.device_name, "hw_timer");
        assert_eq!(m.params.base_address, 0x8000_401C);
        assert_eq!(m.functions.len(), 7);
        assert_eq!(m.function("set_threshold").unwrap().inputs[0].ty.bits, 64);
    }

    #[test]
    fn core_counts_and_fires() {
        let mut c = TimerCore::default();
        c.command(TimerOp::SetThreshold, 3);
        c.command(TimerOp::Enable, 0);
        for _ in 0..3 {
            c.tick();
        }
        assert!(!c.fired);
        c.tick(); // value == threshold -> fire + restart
        assert!(c.fired);
        assert_eq!(c.value, 0);
        let s = c.command(TimerOp::GetStatus, 0);
        assert_eq!(s, STATUS_ENABLED | STATUS_FIRED);
        // Fired bit clears on read.
        assert_eq!(c.command(TimerOp::GetStatus, 0), STATUS_ENABLED);
    }

    #[test]
    fn disabled_timer_does_not_count() {
        let mut c = TimerCore::default();
        c.command(TimerOp::SetThreshold, 5);
        for _ in 0..10 {
            c.tick();
        }
        assert_eq!(c.value, 0);
        assert!(!c.fired);
    }

    /// The Fig 8.8 software test suite, end to end over the simulated PLB.
    #[test]
    fn fig_8_8_test_suite() {
        let mut t = TimerDevice::build();
        t.disable(); // Disable the Timer to Start
        let clock_rate = t.get_clock(); // Retrieve Clock Speed
        assert_eq!(clock_rate, TIMER_CLOCK_RATE_HZ);

        // A short threshold so the test runs quickly (Fig 8.8 uses 5 s).
        let threshold = 200;
        t.set_threshold(threshold);
        t.enable();
        let v = t.get_snapshot(); // Should be close to 0
        assert!(v < 100, "snapshot just after enable: {v}");

        t.sleep(2 * threshold + 50); // "sleep(6); timer should fire"
        let status = t.get_status();
        assert_eq!(status & STATUS_FIRED, STATUS_FIRED, "status {status:#x}");
        assert_eq!(status & STATUS_ENABLED, STATUS_ENABLED);

        t.disable();
        let got = t.get_threshold(); // Should Be Same as Set Above
        assert_eq!(got, threshold);
        let status = t.get_status();
        assert_eq!(status & STATUS_ENABLED, 0, "disabled now: {status:#x}");
    }

    #[test]
    fn threshold_splits_across_the_32_bit_plb() {
        let mut t = TimerDevice::build();
        let wide = 0x1234_5678_9ABC_DEF0u64;
        t.set_threshold(wide);
        assert_eq!(t.get_threshold(), wide, "64-bit value must survive the split transfer");
    }

    #[test]
    fn snapshot_advances_with_time() {
        let mut t = TimerDevice::build();
        t.set_threshold(u64::MAX >> 1);
        t.enable();
        let a = t.get_snapshot();
        t.sleep(500);
        let b = t.get_snapshot();
        assert!(b > a + 400, "counter must advance: {a} -> {b}");
    }

    #[test]
    fn fires_periodically_with_auto_restart() {
        let mut t = TimerDevice::build();
        t.set_threshold(100);
        t.enable();
        t.sleep(1000);
        let fires = t.core().fire_count;
        assert!((8..=11).contains(&fires), "~10 fires expected, got {fires}");
    }
}

#[cfg(test)]
mod portability_tests {
    use super::*;

    /// The Fig 8.8 suite, verbatim, on every supported interconnect —
    /// including the strictly synchronous APB, where the 64-bit threshold
    /// still splits correctly and completion is discovered by polling.
    #[test]
    fn fig_8_8_suite_runs_on_every_bus() {
        for bus in ["plb", "opb", "fcb", "apb", "ahb", "wishbone", "avalon"] {
            let mut t = TimerDevice::build_on(bus);
            t.disable();
            assert_eq!(t.get_clock(), TIMER_CLOCK_RATE_HZ, "{bus}");
            let threshold = 150;
            t.set_threshold(threshold);
            t.enable();
            t.sleep(2 * threshold + 40);
            let status = t.get_status();
            assert_eq!(status & STATUS_FIRED, STATUS_FIRED, "{bus}: {status:#x}");
            t.disable();
            assert_eq!(t.get_threshold(), threshold, "{bus}");
        }
    }

    #[test]
    fn wide_threshold_splits_on_every_bus() {
        let wide = 0xFEDC_BA98_7654_3210u64;
        for bus in ["plb", "fcb", "apb"] {
            let mut t = TimerDevice::build_on(bus);
            t.set_threshold(wide);
            assert_eq!(t.get_threshold(), wide, "{bus}");
        }
    }
}
