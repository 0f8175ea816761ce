//! Protocol conformance across the whole system: the SIS checker watches
//! the live interface while a real CPU master drives real driver programs
//! through a native bus adapter, and must observe zero axiom violations.

use splice_buses::generic::PseudoAsyncSystem;
use splice_buses::CpuMaster;
use splice_core::elaborate::elaborate;
use splice_core::simbuild::{build_peripheral, CalcLogic, CalcResult, FuncInputs};
use splice_driver::lower::lower_call;
use splice_driver::program::{CallArgs, CallValue};
use splice_sim::SimulatorBuilder;
use splice_sis::checker::SisChecker;
use splice_spec::bus::SyncClass;

struct Sum(u32);
impl CalcLogic for Sum {
    fn run(&mut self, inputs: &FuncInputs) -> CalcResult {
        CalcResult { cycles: self.0, output: vec![inputs.values.iter().flatten().sum()] }
    }
}

/// Drive several calls through a full PLB system with the checker armed.
#[test]
fn plb_system_traffic_is_sis_conformant() {
    let spec = "%device_name conf\n%bus_type plb\n%bus_width 32\n%base_address 0x80000000\n\
                long acc(int n, int*:n xs);\nlong dup(int x);\nvoid ping();";
    let module = splice_spec::parse_and_validate(spec).unwrap().module;
    let ir = elaborate(&module);

    let mut b = SimulatorBuilder::new();
    let handles = build_peripheral(&mut b, &ir, "sis.", |_, _| Box::new(Sum(3)));
    let checker_idx =
        b.component(Box::new(SisChecker::new(handles.bus, SyncClass::PseudoAsynchronous)));
    let sys = PseudoAsyncSystem::attach(&mut b, "plb.", handles.bus, &module.params);

    // Several driver programs back to back through one master.
    let calls: Vec<(&str, CallArgs)> = vec![
        ("acc", CallArgs::new(vec![CallValue::Scalar(3), CallValue::Array(vec![5, 6, 7])])),
        ("dup", CallArgs::scalars(&[42])),
        ("ping", CallArgs::none()),
        ("acc", CallArgs::new(vec![CallValue::Scalar(1), CallValue::Array(vec![9])])),
    ];
    let mut all_ops = Vec::new();
    for (func, args) in &calls {
        let f = module.function(func).unwrap();
        all_ops.extend(lower_call(&module.params, f, args).unwrap().ops);
    }
    let midx = b.component(Box::new(sys.master()));

    let mut sim = b.build();
    let (_, reads) = CpuMaster::run(&mut sim, midx, all_ops, 1_000_000).unwrap();
    sim.run(4).unwrap();

    let checker = sim.component::<SisChecker>(checker_idx).unwrap();
    assert!(checker.clean(), "violations: {:#?}", checker.violations);

    // Results: acc(5,6,7)+n=3 → 21; dup → 42; acc(9)+1 → 10.
    assert_eq!(reads, vec![21, 42, 0, 10]);
}

/// Burst and DMA traffic must also stay conformant.
#[test]
fn burst_and_dma_traffic_is_sis_conformant() {
    let spec = "%device_name conf2\n%bus_type plb\n%bus_width 32\n%base_address 0x80000000\n\
                %burst_support true\n%dma_support true\n\
                long big(int*:24^ xs);\nlong quads(int*:8 ys);";
    let module = splice_spec::parse_and_validate(spec).unwrap().module;
    let ir = elaborate(&module);

    let mut b = SimulatorBuilder::new();
    let handles = build_peripheral(&mut b, &ir, "sis.", |_, _| Box::new(Sum(2)));
    let checker_idx =
        b.component(Box::new(SisChecker::new(handles.bus, SyncClass::PseudoAsynchronous)));
    let sys = PseudoAsyncSystem::attach(&mut b, "plb.", handles.bus, &module.params);

    let mut ops = Vec::new();
    let f = module.function("big").unwrap();
    ops.extend(
        lower_call(&module.params, f, &CallArgs::new(vec![CallValue::Array((1..=24).collect())]))
            .unwrap()
            .ops,
    );
    let g = module.function("quads").unwrap();
    ops.extend(
        lower_call(&module.params, g, &CallArgs::new(vec![CallValue::Array((1..=8).collect())]))
            .unwrap()
            .ops,
    );
    let midx = b.component(Box::new(sys.master()));

    let mut sim = b.build();
    let (_, reads) = CpuMaster::run(&mut sim, midx, ops, 1_000_000).unwrap();
    sim.run(4).unwrap();

    let checker = sim.component::<SisChecker>(checker_idx).unwrap();
    assert!(checker.clean(), "violations: {:#?}", checker.violations);
    assert_eq!(reads, vec![(1..=24u64).sum(), (1..=8u64).sum()]);
}

/// Regression pin on the SIS protocol timing itself: the exact cycles of
/// the Fig 4.3 pseudo-asynchronous write/read exchange.
#[test]
fn fig_4_3_timing_is_pinned() {
    use splice_sis::protocol::EchoFunction;
    use splice_sis::{SisBus, SisMaster, SisOp};

    let mut b = SimulatorBuilder::new();
    let bus = SisBus::declare(&mut b, "", 32, 8);
    let midx = b.component(Box::new(SisMaster::new(
        bus,
        SyncClass::PseudoAsynchronous,
        vec![SisOp::Write { func_id: 1, data: 0xBEEF }, SisOp::Read { func_id: 1 }],
    )));
    b.component(Box::new(EchoFunction::new(
        1,
        bus,
        bus.data_out,
        bus.data_out_valid,
        bus.io_done,
        bus.calc_done,
        1,
        0,
        |x| x[0],
    )));
    let mut sim = b.build();
    let t = sim.attach_trace(&[bus.data_in_valid, bus.io_enable, bus.io_done, bus.data_out_valid]);
    sim.run(12).unwrap();

    let trace = sim.trace(t);
    // IO_ENABLE strobes exactly once per transaction.
    assert_eq!(trace.high_cycles("IO_ENABLE").len(), 2);
    // DATA_IN_VALID rises with the write strobe and falls after IO_DONE.
    let write_enable = trace.high_cycles("IO_ENABLE")[0];
    assert_eq!(trace.at("DATA_IN_VALID", write_enable), Some(1));
    let write_done = trace.first_rise("IO_DONE").unwrap();
    assert_eq!(write_done, write_enable + 1, "slave acknowledges on the next edge");
    // The read answers with DATA_OUT_VALID and IO_DONE together (§4.2.1).
    let dov = trace.first_rise("DATA_OUT_VALID").unwrap();
    assert_eq!(trace.at("IO_DONE", dov), Some(1));
    // Both strobes are one-shot.
    for name in ["IO_DONE", "DATA_OUT_VALID"] {
        let highs = trace.high_cycles(name);
        for w in highs.windows(2) {
            assert!(w[1] > w[0] + 1, "{name} held too long: {highs:?}");
        }
    }
    let m = sim.component::<SisMaster>(midx).unwrap();
    assert_eq!(m.reads, vec![0xBEEF]);
}
