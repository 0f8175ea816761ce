//! Extending Splice with a user-created bus library — the chapter 7 API.
//!
//! The thesis extends the tool through dynamic libraries named
//! `lib<x>_interface.so`, each exporting a parameter checker, a marker
//! loader and a bus interface generator (§7.1). This example defines a
//! fictional on-chip interconnect ("ringbus"), registers its library, and
//! drives a peripheral through the whole pipeline against it:
//! spec validation → parameter check → HDL generation through the custom
//! template and markers → live simulation.
//!
//! Run with: `cargo run --example custom_bus`

use splice::prelude::*;
use splice_buses::generic::PseudoAsyncSystem;
use splice_buses::CpuMaster;
use splice_core::api::{BusLibrary, BusLibraryRegistry};
use splice_core::hdlgen::generate_hardware;
use splice_core::ir::DesignIr;
use splice_core::template::MarkerSet;
use splice_sim::SimulatorBuilder;
use splice_spec::bus::{BusCaps, BusKind, SyncClass};
use splice_spec::validate::ModuleSpec;

/// The fictional interconnect: 32/128-bit capable, pseudo-asynchronous,
/// one ring-hop of latency, no DMA.
struct RingBusLibrary;

impl BusLibrary for RingBusLibrary {
    fn name(&self) -> &str {
        "ringbus"
    }

    fn caps(&self) -> BusCaps {
        BusCaps {
            kind: BusKind::Wishbone, // closest builtin personality
            widths: vec![32, 128],
            memory_mapped: true,
            burst_beats: vec![2],
            dma_max_bytes: 0, // no DMA
            sync: SyncClass::PseudoAsynchronous,
            bridge_latency: 1, // one ring hop
        }
    }

    // The parameter checking routine (§7.1.2).
    fn check_params(&self, module: &ModuleSpec) -> Result<(), String> {
        if !module.params.base_address.is_multiple_of(0x100) {
            return Err("ringbus nodes decode 256-byte-aligned windows".into());
        }
        Ok(())
    }

    // The marker loader routine (§7.1.2).
    fn markers(&self, ir: &DesignIr) -> MarkerSet {
        let mut m = MarkerSet::new();
        m.set("RING_HOPS", "1");
        m.set("RING_NODE_ID", format!("{}", (ir.module.params.base_address >> 8) & 0xFF));
        m
    }

    // The bus interface generator's annotated reference HDL (§5.1).
    fn interface_template(&self, _ir: &DesignIr) -> String {
        "-- ringbus_interface for %COMP_NAME% (node %RING_NODE_ID%, %RING_HOPS% hop)\n\
         -- generated: %GEN_DATE%\n\
         entity ringbus_interface is\n\
         \x20 -- ring side: token in/out, %BUS_WIDTH%-bit payload\n\
         \x20 -- SIS side: FUNC_ID is %FUNC_ID_WIDTH% bits\n\
         end entity ringbus_interface;\n"
            .into()
    }
}

struct Xor;
impl CalcLogic for Xor {
    fn run(&mut self, inputs: &FuncInputs) -> CalcResult {
        let v = inputs.array(1).iter().fold(0u64, |a, b| a ^ b);
        CalcResult { cycles: 2, output: vec![v] }
    }
}

fn main() {
    // 1. Register the library — the `lib<x>_interface.so` drop-in of §7.2.
    let mut registry = BusLibraryRegistry::new();
    registry.register(Box::new(RingBusLibrary));
    println!(
        "registered `ringbus` (would ship as {})",
        BusLibraryRegistry::library_file_name("ringbus")
    );

    // 2. Validate a spec against the registry — `%bus_type ringbus` now
    //    resolves like any builtin.
    let spec_src = "
        %device_name ringdev
        %bus_type ringbus
        %bus_width 32
        %base_address 0x80004200
        long xorsum(int n, int*:n xs);
    ";
    let spec = splice_spec::parser::parse(spec_src).expect("parses");
    let module = splice_spec::validate::validate(&spec, &registry.spec_registry())
        .expect("validates against the custom registry")
        .module;
    let lib = registry.get("ringbus").unwrap();
    lib.check_params(&module).expect("parameter check passes");

    // 3. Generate hardware through the custom template + markers.
    let ir = splice_core::elaborate::elaborate(&module);
    let files = generate_hardware(&ir, &lib.interface_template(&ir), &lib.markers(&ir), "now")
        .expect("generation succeeds");
    println!("\ngenerated {} files; the custom adapter:", files.len());
    println!("{}", files[0].text);

    // 4. Simulate: peripheral + a pseudo-asynchronous adapter with the
    //    ring hop the library's caps declare + CPU master.
    let mut b = SimulatorBuilder::new();
    let handles =
        splice_core::simbuild::build_peripheral(&mut b, &ir, "sis.", |_, _| Box::new(Xor));
    let sys = PseudoAsyncSystem::attach(&mut b, "ring.", handles.bus, &module.params);
    let prog = splice_driver::lower::lower_call(
        &module.params,
        module.function("xorsum").unwrap(),
        &CallArgs::new(vec![CallValue::Scalar(3), CallValue::Array(vec![0xFF, 0x0F, 0xF0])]),
    )
    .unwrap();
    let midx = b.component(Box::new(sys.master()));
    let mut sim = b.build();
    let (cycles, reads) = CpuMaster::run(&mut sim, midx, prog.ops, 100_000).unwrap();
    println!(
        "xorsum(0xff ^ 0x0f ^ 0xf0) over the ringbus = {:#x} in {cycles} bus cycles",
        reads[0]
    );
    assert_eq!(reads, vec![0x00]);

    // 5. The checker rejects bad configurations, as §7.1.2 requires.
    let bad = "
        %device_name ringdev
        %bus_type ringbus
        %bus_width 32
        %base_address 0x80004244
        long f(int x);
    ";
    let bad_spec = splice_spec::parser::parse(bad).unwrap();
    let bad_module =
        splice_spec::validate::validate(&bad_spec, &registry.spec_registry()).unwrap().module;
    let err = lib.check_params(&bad_module).unwrap_err();
    println!("\nparameter checker correctly rejected a misaligned node: {err}");
}
