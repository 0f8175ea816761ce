//! Regenerates the SIS timing diagrams of Figs 4.3 and 4.4 as ASCII
//! waveforms from live simulation traces.

use splice_sim::SimulatorBuilder;
use splice_sis::protocol::EchoFunction;
use splice_sis::waves;
use splice_sis::{SisBus, SisMaster, SisOp};
use splice_spec::bus::SyncClass::{self, PseudoAsynchronous, StrictlySynchronous};

fn run(sync: SyncClass, title: &str) {
    let mut b = SimulatorBuilder::new();
    let bus = SisBus::declare(&mut b, "", 32, 8);
    let script = vec![
        SisOp::Write { func_id: 1, data: 0xBEEF },
        SisOp::Write { func_id: 1, data: 0x11 },
        SisOp::PollStatus { func_id: 1 },
        SisOp::Read { func_id: 1 },
        SisOp::Idle(2),
        SisOp::Write { func_id: 1, data: 0x71 },
    ];
    let midx = b.component(Box::new(SisMaster::new(bus, sync, script)));
    b.component(Box::new(
        EchoFunction::new(
            1,
            bus,
            bus.data_out,
            bus.data_out_valid,
            bus.io_done,
            bus.calc_done,
            2,
            2,
            |xs| xs.iter().sum(),
        )
        .with_calc_done_bit(1),
    ));
    let mut sim = b.build();
    let t = sim.attach_trace(&[
        bus.rst,
        bus.data_in,
        bus.data_in_valid,
        bus.io_enable,
        bus.func_id,
        bus.data_out,
        bus.data_out_valid,
        bus.io_done,
        bus.calc_done,
    ]);
    sim.run_until("script", 10_000, |s| s.component::<SisMaster>(midx).unwrap().is_finished())
        .unwrap();
    sim.run(2).unwrap();
    println!("== {title} ==\n");
    println!("{}", waves::render(sim.trace(t)));
}

fn main() {
    println!("SIS signal inventory (Fig 4.2):");
    for s in splice_sis::SisSignal::all() {
        println!(
            "  {:15} {:13} {}",
            s.name(),
            if s.is_broadcast() { "Broadcast" } else { "Per-Function" },
            s.purpose()
        );
    }
    println!();
    run(PseudoAsynchronous, "Fig 4.3 — the SIS pseudo asynchronous transmission protocol");
    run(StrictlySynchronous, "Fig 4.4 — the SIS strictly synchronous transmission protocol");
}
