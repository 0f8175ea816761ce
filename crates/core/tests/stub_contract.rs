//! The contract every elaborated stub keeps with its function (§5.3.1):
//! the ICOB states mimic the prototype, every runtime bound names an
//! earlier scalar, every beat counter of the generated HDL can count its
//! transfer, and the FUNC_ID ranges tile the id space from 1. A stub holds
//! only its states, so these are facts of the generator, checked here on
//! the bundled examples, `wide_spec(1..=63)`, seeded `arb_spec` designs and
//! long transfers on narrow buses.

use splice_core::elaborate::elaborate;
use splice_core::hdlgen::stub_module;
use splice_core::ir::{bits_for, BeatCount, DesignIr, StubState};
use splice_hdl::Decl;
use splice_spec::parse_and_validate;
use splice_testutil::{arb_spec, wide_spec, Rng};

/// The largest beat count a runtime bound can latch: one bus word of
/// elements, capped at 65,535 beats (docs/LANGUAGE.md).
fn max_dynamic_beats(beats: BeatCount, bus_width: u32) -> u64 {
    let BeatCount::Dynamic { shape, .. } = beats else { unreachable!() };
    shape.beats((1u64 << bus_width.min(63)) - 1).min(65_535)
}

fn assert_contract(label: &str, ir: &DesignIr) {
    let bus_width = ir.module.params.bus_width;
    assert_eq!(ir.stubs.len(), ir.module.functions.len(), "{label}: one stub per function");
    let mut next_id = 1;
    for (i, (f, stub)) in ir.functions().enumerate() {
        let at = format!("{label}: `{}`", f.name);

        // Inputs in declaration order, one Calc, then the output, the
        // pseudo output of a blocking `void`, or nothing for `nowait`.
        let n = f.inputs.len();
        for (k, st) in stub.states[..n].iter().enumerate() {
            assert!(matches!(st, StubState::Input { io, .. } if *io == k), "{at}: state {k}");
        }
        assert!(matches!(stub.states[n], StubState::Calc), "{at}: Calc follows the inputs");
        match (&stub.states[n + 1..], &f.output, f.nowait) {
            ([StubState::Output { .. }], Some(_), false) => {}
            ([StubState::PseudoOutput], None, false) => {}
            ([], None, true) => {}
            (tail, ..) => panic!("{at}: terminal states {tail:?}"),
        }

        let module = stub_module(ir, i, "contract");
        for (k, st) in stub.states.iter().enumerate() {
            let Some(beats) = st.beats() else { continue };
            let io = st.io(f).expect("a transfer state moves an I/O");
            // A runtime count names an earlier scalar input.
            let need = match beats {
                BeatCount::Static(n) => n,
                BeatCount::Dynamic { index_input, .. } => {
                    assert!(index_input < k.min(n), "{at}: bound of `{}` is late", io.name);
                    assert!(!f.inputs[index_input].is_pointer, "{at}: bound of `{}`", io.name);
                    max_dynamic_beats(beats, bus_width)
                }
            };
            // Every multi-beat counter of the HDL counts to its last beat.
            let counter = format!("{}_counter", io.name);
            let width = module.decls.iter().find_map(|d| match d {
                Decl::Signal { name, width, .. } if *name == counter => Some(*width),
                _ => None,
            });
            match width {
                None => assert_eq!(beats, BeatCount::Static(1), "{at}: `{counter}` missing"),
                Some(w) => {
                    assert_eq!(Some(w), beats.counter_bits(bus_width), "{at}: `{counter}`");
                    assert!(w >= bits_for(need - 1), "{at}: {w}-bit `{counter}`, {need} beats");
                }
            }
        }

        // FUNC_ID ranges start at 1, are disjoint and fit the field.
        assert_eq!(f.first_func_id, next_id, "{at}: FUNC_ID range");
        next_id += f.instances;
    }
    assert!(next_id - 1 < 1 << ir.func_id_width(), "{label}: ids fit the FUNC_ID field");
}

fn design(label: &str, src: &str) -> DesignIr {
    let v = parse_and_validate(src).unwrap_or_else(|e| panic!("{label}: {e:?}\n{src}"));
    elaborate(&v.module)
}

#[test]
fn every_stub_keeps_the_icob_contract() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/specs");
    for entry in std::fs::read_dir(&dir).expect("examples/specs") {
        let path = entry.unwrap().path();
        let src = std::fs::read_to_string(&path).unwrap();
        let label = path.display().to_string();
        assert_contract(&label, &design(&label, &src));
    }
    for n in 1..=63 {
        assert_contract(&format!("wide_spec({n})"), &design("wide", &wide_spec(n)));
    }
    let mut rng = Rng::new(0x5EED_C0DE);
    for seed in 0..300 {
        let src = arb_spec(&mut rng);
        assert_contract(&format!("arb_spec #{seed}"), &design("arb", &src));
    }
    // Long transfers on narrow buses: static counts of at least
    // 2^`%bus_width` beats, and runtime bounds latched from one bus word.
    for width in [8, 16] {
        let head = format!(
            "%device_name wide\n%bus_type wishbone\n%bus_width {width}\n\
             %base_address 0x80000000\n"
        );
        for decls in [
            "void f(char*:300 x);\nchar*:256 g();",
            "long long*:4000 f(short*:4000 x);",
            "int g(char n, int*:n xs);\nlong long*:n h(short n);",
            "void f(int*:65535 x);",
        ] {
            let label = format!("{width}-bit `{decls}`");
            assert_contract(&label, &design(&label, &format!("{head}{decls}")));
        }
    }
}
