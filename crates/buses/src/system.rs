//! Whole-system harness: generated peripheral + native bus + CPU master.
//!
//! [`SplicedSystem`] assembles everything a deployed Splice design needs —
//! the generated stubs and arbiter on the SIS, the native bus adapter, and
//! a CPU master — and then executes *driver calls* against it, returning
//! the decoded result and the bus-clock cycle count, exactly the
//! measurement the thesis's on-chip cycle timer takes in chapter 9.

use crate::generic::{ApbAdapter, ApbMaster, ApbSignals, PseudoAsyncSystem};
use crate::plb::PlbCpuMaster;
use crate::timing::BusTiming;
use splice_core::elaborate::elaborate;
use splice_core::ir::{sis_mode_for, DesignIr};
use splice_core::simbuild::{build_peripheral, CalcLogic};
use splice_driver::lower::{lower_call, LowerError};
use splice_driver::program::{BusOp, CallArgs};
use splice_sim::{SimError, Simulator, SimulatorBuilder, Word};
use splice_sis::checker::SisChecker;
use splice_sis::SisBus;
use splice_spec::bus::SyncClass;
use splice_spec::validate::ModuleSpec;
use std::fmt;

/// The result of one driver call through the full system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallOutcome {
    /// Bus-clock cycles from call start to driver return.
    pub bus_cycles: u64,
    /// Raw beats read back over the bus.
    pub raw: Vec<Word>,
    /// Decoded output elements (per the declaration's return type).
    pub result: Vec<Word>,
}

/// Errors from a system call.
#[derive(Debug)]
pub enum SystemError {
    /// Argument binding failed.
    Lower(LowerError),
    /// The simulation wedged or a wiring error surfaced.
    Sim(SimError),
    /// No such function in the module.
    NoSuchFunction(String),
}

impl fmt::Display for SystemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SystemError::Lower(e) => write!(f, "driver lowering failed: {e}"),
            SystemError::Sim(e) => write!(f, "simulation failed: {e}"),
            SystemError::NoSuchFunction(n) => write!(f, "no function named `{n}`"),
        }
    }
}

impl std::error::Error for SystemError {}

impl From<LowerError> for SystemError {
    fn from(e: LowerError) -> Self {
        SystemError::Lower(e)
    }
}

impl From<SimError> for SystemError {
    fn from(e: SimError) -> Self {
        SystemError::Sim(e)
    }
}

enum MasterKind {
    PlbLike,
    Apb,
}

/// A live, callable Splice system.
pub struct SplicedSystem {
    sim: Simulator,
    module: ModuleSpec,
    master_idx: usize,
    kind: MasterKind,
    /// Component indices of the generated stubs, in FUNC_ID order
    /// (harnesses downcast them to `GeneratedStub` for inspection).
    pub stub_components: Vec<usize>,
    /// Index of the SIS conformance checker, when armed.
    checker: Option<usize>,
    /// Cycle budget per call before declaring a wedge.
    pub call_budget: u64,
}

impl SplicedSystem {
    /// Build the full system for `module`, supplying user calculation logic
    /// through `calc_factory(function_name, instance)`.
    pub fn build(
        module: &ModuleSpec,
        calc_factory: impl FnMut(&str, u32) -> Box<dyn CalcLogic>,
    ) -> Self {
        Self::build_full(module, calc_factory, |_, _| {})
    }

    /// Full-control build: `extra` gets the builder and the peripheral's
    /// [`SisBus`], and may add device-internal components (free-running
    /// counters, SIS monitors, ...) before the simulation is sealed.
    pub fn build_full(
        module: &ModuleSpec,
        calc_factory: impl FnMut(&str, u32) -> Box<dyn CalcLogic>,
        extra: impl FnOnce(&mut SimulatorBuilder, SisBus),
    ) -> Self {
        let ir: DesignIr = elaborate(module);
        let p = &module.params;
        let timing = BusTiming::for_bus(p.bus.kind);
        let mut b = SimulatorBuilder::new();
        let handles = build_peripheral(&mut b, &ir, "sis.", calc_factory);

        let (master_idx, kind) = match p.bus.sync {
            SyncClass::StrictlySynchronous => {
                let sig = ApbSignals::declare(&mut b, "apb.", p.bus_width);
                b.component(Box::new(ApbAdapter::new(
                    sig,
                    handles.bus,
                    p.base_address,
                    p.bus_width,
                )));
                let mut master = ApbMaster::new(sig, timing, Vec::new());
                if let (Some(v), Some(a)) = (handles.irq_vector, handles.irq_ack) {
                    master = master.with_irq(v, a);
                }
                let idx = b.component(Box::new(master));
                (idx, MasterKind::Apb)
            }
            SyncClass::PseudoAsynchronous => {
                let sys = PseudoAsyncSystem::attach(
                    &mut b,
                    "native.",
                    handles.bus,
                    p.bus_width,
                    p.base_address,
                    p.bus.bridge_latency,
                    p.bus.opcode_coupled,
                );
                let mut master = sys.master(timing, Vec::new());
                if let (Some(v), Some(a)) = (handles.irq_vector, handles.irq_ack) {
                    master = master.with_irq(v, a);
                }
                let idx = b.component(Box::new(master));
                (idx, MasterKind::PlbLike)
            }
        };

        extra(&mut b, handles.bus);
        SplicedSystem {
            sim: b.build(),
            module: module.clone(),
            master_idx,
            kind,
            stub_components: handles.stub_components,
            checker: None,
            call_budget: 5_000_000,
        }
    }

    /// Build with the SIS conformance checker armed on the internal
    /// interface: every call is then also a protocol-correctness check
    /// (query with [`SplicedSystem::protocol_violations`]).
    pub fn build_checked(
        module: &ModuleSpec,
        calc_factory: impl FnMut(&str, u32) -> Box<dyn CalcLogic>,
    ) -> Self {
        let mode = sis_mode_for(module.params.bus.sync);
        let mut checker = None;
        let mut sys = Self::build_full(module, calc_factory, |b, bus| {
            checker = Some(b.component(Box::new(SisChecker::new(bus, mode))));
        });
        sys.checker = checker;
        sys
    }

    /// SIS axiom violations observed so far (empty unless built with
    /// [`SplicedSystem::build_checked`]).
    pub fn protocol_violations(&self) -> Vec<splice_sis::checker::Violation> {
        match self.checker {
            Some(idx) => self
                .sim
                .component::<SisChecker>(idx)
                .map(|c| c.violations.clone())
                .unwrap_or_default(),
            None => Vec::new(),
        }
    }

    /// Execute one driver call; returns the decoded result and cycle count.
    pub fn call(&mut self, func: &str, args: &CallArgs) -> Result<CallOutcome, SystemError> {
        let f = self
            .module
            .function(func)
            .ok_or_else(|| SystemError::NoSuchFunction(func.into()))?
            .clone();
        let prog = lower_call(&self.module.params, &f, args)?;
        self.run_bus_ops(prog.ops.clone()).map(|(cycles, raw)| {
            let result = prog.decode_result(&raw);
            CallOutcome { bus_cycles: cycles, raw, result }
        })
    }

    /// Execute a raw op sequence (used by hand-coded-baseline harnesses
    /// that bypass driver generation).
    pub fn run_bus_ops(&mut self, ops: Vec<BusOp>) -> Result<(u64, Vec<Word>), SystemError> {
        let start = self.sim.cycle();
        match self.kind {
            MasterKind::PlbLike => {
                self.sim
                    .component_mut::<PlbCpuMaster>(self.master_idx)
                    .expect("master type")
                    .reload(ops);
                let idx = self.master_idx;
                self.sim.run_until("driver call", self.call_budget, |s| {
                    s.component::<PlbCpuMaster>(idx).unwrap().is_finished()
                })?;
                let m = self.sim.component::<PlbCpuMaster>(idx).unwrap();
                Ok((m.finished_cycle.unwrap() - start, m.reads.clone()))
            }
            MasterKind::Apb => {
                self.sim
                    .component_mut::<ApbMaster>(self.master_idx)
                    .expect("master type")
                    .reload(ops);
                let idx = self.master_idx;
                self.sim.run_until("driver call", self.call_budget, |s| {
                    s.component::<ApbMaster>(idx).unwrap().is_finished()
                })?;
                let m = self.sim.component::<ApbMaster>(idx).unwrap();
                Ok((m.finished_cycle.unwrap() - start, m.reads.clone()))
            }
        }
    }

    /// Block until the completion interrupt of `func` (instance
    /// `inst_index`) arrives — the application-side pairing for `nowait`
    /// calls on `%irq_support` designs. Returns the bus cycles waited.
    pub fn wait_irq(&mut self, func: &str, inst_index: u32) -> Result<u64, SystemError> {
        let f =
            self.module.function(func).ok_or_else(|| SystemError::NoSuchFunction(func.into()))?;
        let bit = f.first_func_id + inst_index.min(f.instances.saturating_sub(1));
        self.run_bus_ops(vec![BusOp::WaitIrq { bit }]).map(|(cycles, _)| cycles)
    }

    /// Access the underlying simulator (tracing, inspection).
    pub fn sim(&self) -> &Simulator {
        &self.sim
    }

    /// Mutable access to the underlying simulator.
    pub fn sim_mut(&mut self) -> &mut Simulator {
        &mut self.sim
    }

    /// The module this system was built from.
    pub fn module(&self) -> &ModuleSpec {
        &self.module
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splice_core::simbuild::{CalcResult, DefaultCalc, FuncInputs, GeneratedStub};
    use splice_driver::program::CallValue;
    use splice_spec::parse_and_validate;

    struct Sum(u32);
    impl CalcLogic for Sum {
        fn run(&mut self, inputs: &FuncInputs) -> CalcResult {
            CalcResult { cycles: self.0, output: vec![inputs.values.iter().flatten().sum()] }
        }
    }

    fn module(bus: &str, decls: &str) -> ModuleSpec {
        let base = if bus == "fcb" { "" } else { "%base_address 0x80000000\n" };
        let src = format!("%device_name demo\n%bus_type {bus}\n%bus_width 32\n{base}{decls}");
        parse_and_validate(&src).unwrap().module
    }

    #[test]
    fn one_system_serves_many_calls() {
        let m = module("plb", "long add(int a, int b);");
        let mut sys = SplicedSystem::build(&m, |_, _| Box::new(Sum(2)));
        for k in 0..5u64 {
            let out = sys.call("add", &CallArgs::scalars(&[k, 10])).unwrap();
            assert_eq!(out.result, vec![k + 10]);
            assert!(out.bus_cycles > 0);
        }
    }

    #[test]
    fn cycle_counts_are_reproducible() {
        let m = module("plb", "long add(int a, int b);");
        let mut sys = SplicedSystem::build(&m, |_, _| Box::new(Sum(2)));
        let a = sys.call("add", &CallArgs::scalars(&[1, 2])).unwrap().bus_cycles;
        let b = sys.call("add", &CallArgs::scalars(&[3, 4])).unwrap().bus_cycles;
        let c = sys.call("add", &CallArgs::scalars(&[5, 6])).unwrap().bus_cycles;
        assert_eq!(a, b);
        assert_eq!(b, c);
    }

    /// Returns more elements than the function's one output beat.
    struct TooMany;
    impl CalcLogic for TooMany {
        fn run(&mut self, _: &FuncInputs) -> CalcResult {
            CalcResult { cycles: 1, output: vec![8, 9] }
        }
    }

    #[test]
    fn every_bus_kind_runs_the_same_spec() {
        for bus in ["plb", "opb", "fcb", "apb", "ahb", "wishbone", "avalon"] {
            let m = module(bus, "long sum3(int*:3 xs);");
            let mut sys = SplicedSystem::build(&m, |_, _| Box::new(Sum(4)));
            let out = sys
                .call("sum3", &CallArgs::new(vec![CallValue::Array(vec![7, 8, 9])]))
                .unwrap_or_else(|e| panic!("{bus}: {e}"));
            assert_eq!(out.result, vec![24], "{bus}");

            // The stub serves the beats the output state declares, however
            // many elements the calculation returns: two beats of zeros
            // from a blank calculation, in one round per call…
            let m = module(bus, "long long f(int a);");
            let mut sys = SplicedSystem::build(&m, |_, _| Box::new(DefaultCalc));
            for call in 1..=2 {
                let out = sys.call("f", &CallArgs::scalars(&[5])).unwrap_or_else(|e| {
                    panic!("{bus}: blank `long long f(int a)` call {call}: {e}")
                });
                assert_eq!(out.result, vec![0], "{bus}: call {call}");
                let stub = sys.sim().component::<GeneratedStub>(sys.stub_components[0]).unwrap();
                assert_eq!(stub.rounds, call, "{bus}: one stub round per call");
            }
            // …and one beat, without leftovers for the next call, from a
            // calculation that returns two elements.
            let m = module(bus, "long g();");
            let mut sys = SplicedSystem::build(&m, |_, _| Box::new(TooMany));
            for call in 1..=2 {
                let out = sys.call("g", &CallArgs::none()).unwrap();
                assert_eq!(out.result, vec![8], "{bus}: call {call}");
            }
        }
    }

    #[test]
    fn bus_relative_latencies_match_the_thesis_ordering() {
        // FCB ≤ PLB < OPB for the same traffic (§2.3). For single-word
        // scalar calls the FCB's advantage is the co-processor issue path,
        // which ties with the PLB here; its burst ops win on arrays (the
        // chapter 9 results exercise that).
        let cycles = |bus: &str| {
            let m = module(bus, "long add(int a, int b);");
            let mut sys = SplicedSystem::build(&m, |_, _| Box::new(Sum(2)));
            sys.call("add", &CallArgs::scalars(&[1, 2])).unwrap().bus_cycles
        };
        let fcb = cycles("fcb");
        let plb = cycles("plb");
        let opb = cycles("opb");
        assert!(fcb <= plb, "fcb={fcb} plb={plb}");
        assert!(plb < opb, "plb={plb} opb={opb}");
    }

    #[test]
    fn unknown_function_is_reported() {
        let m = module("plb", "long add(int a, int b);");
        let mut sys = SplicedSystem::build(&m, |_, _| Box::new(Sum(1)));
        assert!(matches!(sys.call("nope", &CallArgs::none()), Err(SystemError::NoSuchFunction(_))));
    }
}
