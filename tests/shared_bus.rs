//! Two independent Splice-generated peripherals sharing one physical PLB —
//! the deployment the thesis argues the arbiter design enables: "by
//! sharing the same bus interface between all hardware functions, any
//! additional connection points on the bus will be available for use by
//! other peripherals" (§5.2).

use splice_buses::plb::{channel, PlbSignals, PlbSisAdapter};
use splice_buses::CpuMaster;
use splice_core::elaborate::elaborate;
use splice_core::simbuild::{build_peripheral, CalcLogic, CalcResult, FuncInputs};
use splice_driver::lower::lower_call;
use splice_driver::program::CallArgs;
use splice_sim::SimulatorBuilder;

struct Mul(u64);
impl CalcLogic for Mul {
    fn run(&mut self, inputs: &FuncInputs) -> CalcResult {
        CalcResult { cycles: 2, output: vec![inputs.scalar(0) * self.0] }
    }
}

#[test]
fn two_devices_share_one_plb() {
    // Device A at 0x8000_0000, device B at 0x9000_0000.
    let spec_a = "%device_name dev_a\n%bus_type plb\n%bus_width 32\n\
                  %base_address 0x80000000\nlong dbl(int x);";
    let spec_b = "%device_name dev_b\n%bus_type plb\n%bus_width 32\n\
                  %base_address 0x90000000\nlong triple(int x);\nlong nine(int y);";
    let mod_a = splice_spec::parse_and_validate(spec_a).unwrap().module;
    let mod_b = splice_spec::parse_and_validate(spec_b).unwrap().module;
    let ir_a = elaborate(&mod_a);
    let ir_b = elaborate(&mod_b);

    let mut b = SimulatorBuilder::new();
    let per_a = build_peripheral(&mut b, &ir_a, "a.", |_, _| Box::new(Mul(2)));
    let per_b = build_peripheral(&mut b, &ir_b, "b.", |_, _| Box::new(Mul(3)));

    // One physical bus, one shared bulk channel, two address-gated adapters.
    let sig = PlbSignals::declare(&mut b, "plb.", 32);
    let chan = channel();
    b.component(Box::new(
        PlbSisAdapter::new(sig, per_a.bus, std::rc::Rc::clone(&chan), 0x8000_0000, 32)
            .with_addr_window(0x1000),
    ));
    b.component(Box::new(
        PlbSisAdapter::new(sig, per_b.bus, std::rc::Rc::clone(&chan), 0x9000_0000, 32)
            .with_addr_window(0x1000),
    ));

    // One CPU master issuing interleaved calls to both devices.
    let mut ops = Vec::new();
    let f_dbl = mod_a.function("dbl").unwrap();
    let f_tri = mod_b.function("triple").unwrap();
    let f_nine = mod_b.function("nine").unwrap();
    ops.extend(lower_call(&mod_a.params, f_dbl, &CallArgs::scalars(&[21])).unwrap().ops);
    ops.extend(lower_call(&mod_b.params, f_tri, &CallArgs::scalars(&[14])).unwrap().ops);
    ops.extend(lower_call(&mod_a.params, f_dbl, &CallArgs::scalars(&[50])).unwrap().ops);
    ops.extend(lower_call(&mod_b.params, f_nine, &CallArgs::scalars(&[11])).unwrap().ops);
    let midx = b.component(Box::new(CpuMaster::req_ack(sig, chan)));

    let mut sim = b.build();
    let (_, reads) = CpuMaster::run(&mut sim, midx, ops, 1_000_000).unwrap();
    assert_eq!(reads, vec![42, 42, 100, 33]);
}

#[test]
fn out_of_window_requests_are_ignored_not_answered() {
    // A single gated adapter must never acknowledge a foreign address; the
    // master would wait forever, which we detect as a timeout.
    let spec = "%device_name lonely\n%bus_type plb\n%bus_width 32\n\
                %base_address 0x80000000\nlong dbl(int x);";
    let module = splice_spec::parse_and_validate(spec).unwrap().module;
    let ir = elaborate(&module);
    let mut b = SimulatorBuilder::new();
    let per = build_peripheral(&mut b, &ir, "p.", |_, _| Box::new(Mul(2)));
    let sig = PlbSignals::declare(&mut b, "plb.", 32);
    let chan = channel();
    b.component(Box::new(
        PlbSisAdapter::new(sig, per.bus, std::rc::Rc::clone(&chan), 0x8000_0000, 32)
            .with_addr_window(0x1000),
    ));
    let midx = b.component(Box::new(CpuMaster::req_ack(sig, chan)));
    let mut sim = b.build();
    let foreign = vec![splice_driver::program::BusOp::Write { addr: 0xA000_0000, data: 1 }];
    let err = CpuMaster::run(&mut sim, midx, foreign, 500);
    assert!(err.is_err(), "a write to unmapped space must hang, not be acked");
}
