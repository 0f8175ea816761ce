//! Property-based tests over the core invariants.
//!
//! * **wire-format roundtrip** — any element vector encoded for any
//!   transfer shape decodes back identically (software driver and
//!   generated hardware share these functions, so this property is the
//!   "drivers and stubs can never disagree" guarantee);
//! * **hardware/software agreement** — for random scenario-shaped inputs,
//!   the full simulated system returns exactly the user calculation's
//!   result;
//! * **determinism** — cycle counts are a pure function of (spec, args);
//! * **spec fuzz** — randomly generated well-formed specs always parse,
//!   validate and elaborate without panicking.

use splice::prelude::*;
use splice_driver::lower::encode_beats;
use splice_driver::program::decode_with;
use splice_driver::program::ResultLayout;
use splice_spec::validate::ValidatedIo;
use splice_testutil::{arb_spec, check, Rng};

fn io_for(bits: u32, packed: bool) -> ValidatedIo {
    let module = splice::parse_and_validate(&format!(
        "%device_name p\n%bus_type plb\n%bus_width 32\n%base_address 0x80000000\n\
         void f({} *:4{} x);",
        match bits {
            8 => "char",
            16 => "short",
            64 => "long long",
            _ => "int",
        },
        if packed { "+" } else { "" }
    ))
    .unwrap()
    .module;
    module.functions[0].inputs[0].clone()
}

fn vec_of(rng: &mut Rng, lo: usize, hi: usize, max: u64) -> Vec<u64> {
    let n = rng.range_usize(lo, hi);
    (0..n).map(|_| if max == u64::MAX { rng.next_u64() } else { rng.range(0, max + 1) }).collect()
}

#[test]
fn encode_decode_roundtrip_direct() {
    check(0x0de0_0001, 256, |rng| {
        let elems = vec_of(rng, 1, 40, 0xFFFF_FFFF);
        let io = io_for(32, false);
        let beats = encode_beats(&io, 32, &elems);
        assert_eq!(beats.len(), elems.len());
        let decoded = decode_with(ResultLayout::Direct { elems: elems.len() as u32 }, &beats);
        assert_eq!(decoded, elems);
    });
}

#[test]
fn encode_decode_roundtrip_packed_chars() {
    check(0x0de0_0002, 256, |rng| {
        let elems = vec_of(rng, 1, 40, 0xFF);
        let io = io_for(8, true);
        let beats = encode_beats(&io, 32, &elems);
        assert_eq!(beats.len(), elems.len().div_ceil(4));
        let decoded = decode_with(
            ResultLayout::Packed { elems: elems.len() as u32, elem_bits: 8, per_beat: 4 },
            &beats,
        );
        assert_eq!(decoded, elems);
    });
}

#[test]
fn encode_decode_roundtrip_packed_shorts() {
    check(0x0de0_0003, 256, |rng| {
        let elems = vec_of(rng, 1, 40, 0xFFFF);
        let io = io_for(16, true);
        let beats = encode_beats(&io, 32, &elems);
        let decoded = decode_with(
            ResultLayout::Packed { elems: elems.len() as u32, elem_bits: 16, per_beat: 2 },
            &beats,
        );
        assert_eq!(decoded, elems);
    });
}

#[test]
fn encode_decode_roundtrip_split_64() {
    check(0x0de0_0004, 128, |rng| {
        let elems = vec_of(rng, 1, 20, u64::MAX);
        let io = io_for(64, false);
        let beats = encode_beats(&io, 32, &elems);
        assert_eq!(beats.len(), elems.len() * 2);
        let decoded = decode_with(
            ResultLayout::Split { elems: elems.len() as u32, beats_per_elem: 2, bus_width: 32 },
            &beats,
        );
        assert_eq!(decoded, elems);
    });
}

struct Sum;
impl CalcLogic for Sum {
    fn run(&mut self, inputs: &FuncInputs) -> CalcResult {
        CalcResult {
            cycles: 2,
            output: vec![inputs.values.iter().flatten().sum::<u64>() & 0xFFFF_FFFF],
        }
    }
}

/// Full-system agreement on arbitrary array payloads.
#[test]
fn hardware_computes_what_software_sent() {
    check(0x0de0_0005, 16, |rng| {
        let xs = vec_of(rng, 1, 24, 0xFFFF_FFFF);
        let bus = *rng.pick(&["plb", "fcb", "apb"]);
        let base = if bus == "fcb" { "" } else { "%base_address 0x80000000\n" };
        let spec = format!(
            "%device_name prop\n%bus_type {bus}\n%bus_width 32\n{base}\
             long acc(int n, int*:n xs);"
        );
        let module = splice::parse_and_validate(&spec).unwrap().module;
        let mut sys = SplicedSystem::build(&module, |_, _| Box::new(Sum));
        let args =
            CallArgs::new(vec![CallValue::Scalar(xs.len() as u64), CallValue::Array(xs.clone())]);
        let out = sys.call("acc", &args).unwrap();
        let expected = (xs.iter().sum::<u64>() + xs.len() as u64) & 0xFFFF_FFFF;
        assert_eq!(out.result, vec![expected]);
    });
}

/// Cycle counts depend only on the shape of the call, not the data.
#[test]
fn cycles_are_data_independent() {
    check(0x0de0_0006, 16, |rng| {
        let a = vec_of(rng, 8, 9, 0xFFFF_FFFF);
        let b = vec_of(rng, 8, 9, 0xFFFF_FFFF);
        let spec = "%device_name det\n%bus_type plb\n%bus_width 32\n%base_address 0x80000000\n\
                    long acc(int*:8 xs);";
        let module = splice::parse_and_validate(spec).unwrap().module;
        let cycles = |data: &[u64]| {
            let mut sys = SplicedSystem::build(&module, |_, _| Box::new(Sum));
            sys.call("acc", &CallArgs::new(vec![CallValue::Array(data.to_vec())]))
                .unwrap()
                .bus_cycles
        };
        assert_eq!(cycles(&a), cycles(&b));
    });
}

#[test]
fn random_wellformed_specs_flow_through_the_whole_pipeline() {
    check(0x0de0_0007, 64, |rng| {
        let spec = arb_spec(rng);
        let module = splice::parse_and_validate(&spec)
            .unwrap_or_else(|e| panic!("spec should validate: {e:?}\n{spec}"))
            .module;
        let ir = splice_core::elaborate::elaborate(&module);
        // HDL generation must succeed on the spec's bus.
        let lib = splice_buses::library_for(module.params.bus.kind);
        use splice_core::api::BusLibrary as _;
        let files = splice_core::hdlgen::generate_hardware(
            &ir,
            &lib.interface_template(&ir),
            &lib.markers(&ir),
            "fuzz",
        )
        .unwrap();
        assert_eq!(files.len(), 2 + module.functions.len());
        // Driver text always generates.
        let c = splice_driver::cgen::driver_source(&module);
        assert!(c.contains("fn0"));
        // Calls with zero-argument functions run end to end.
        if let Some(f) = module.functions.iter().find(|f| f.inputs.is_empty() && !f.nowait) {
            let mut sys = SplicedSystem::build(&module, |_, _| Box::new(Sum));
            let out = sys.call(&f.name, &CallArgs::none()).unwrap();
            assert!(out.bus_cycles > 0);
        }
    });
}

/// Systemic protocol conformance: whatever well-formed spec we
/// generate and whatever data we push, the internal SIS traffic obeys
/// every checkable axiom of §4.2.
#[test]
fn all_generated_traffic_is_sis_conformant() {
    check(0x0de0_0008, 24, |rng| {
        let bus = *rng.pick(&["plb", "fcb", "opb", "ahb"]);
        let n = rng.range(1, 12);
        let scalar = rng.range(0, 0x1_0000_0000);
        let base = if bus == "fcb" { "" } else { "%base_address 0x80000000\n" };
        let spec = format!(
            "%device_name conf\n%bus_type {bus}\n%bus_width 32\n{base}\
             long acc(int n, int*:n xs);\nlong one(int x);\nvoid ping();"
        );
        let module = splice::parse_and_validate(&spec).unwrap().module;
        let mut sys = SplicedSystem::build_checked(&module, |_, _| Box::new(Sum));
        let xs: Vec<u64> = (0..n).map(|i| i * 3 + scalar % 7).collect();
        let out = sys
            .call("acc", &CallArgs::new(vec![CallValue::Scalar(n), CallValue::Array(xs.clone())]))
            .unwrap();
        let expected = (xs.iter().sum::<u64>() + n) & 0xFFFF_FFFF;
        assert_eq!(out.result, vec![expected]);
        sys.call("one", &CallArgs::scalars(&[scalar])).unwrap();
        sys.call("ping", &CallArgs::none()).unwrap();
        let violations = sys.protocol_violations();
        assert!(violations.is_empty(), "violations: {violations:?}");
    });
}
