//! Both HDL backends derive from one IR — these tests pin the structural
//! parity between the VHDL and Verilog emissions (same entities, same
//! state constants, same ports), so the Verilog future-work backend can
//! never drift from the thesis's VHDL reference.

use splice_core::elaborate::elaborate;
use splice_core::hdlgen::{arbiter_module, stub_module};
use splice_hdl::{emit, Hdl};
use splice_spec::parse_and_validate;
use splice_testutil::{check, Rng};

fn arb_spec(rng: &mut Rng) -> String {
    const PARAMS: &[&str] = &["int {p}", "char {p}", "int*:5 {p}", "char*:8+ {p}", "short*:3 {p}"];
    let n_params = rng.range_usize(0, 4);
    let insts = rng.range(1, 4);
    let plist: Vec<String> =
        (0..n_params).map(|j| rng.pick(PARAMS).replace("{p}", &format!("p{j}"))).collect();
    format!(
        "%device_name parity\n%bus_type plb\n%bus_width 32\n%base_address 0x80000000\n\
         long f({}):{insts};\nvoid g();",
        plist.join(", ")
    )
}

#[test]
fn stub_emissions_share_structure() {
    check(0x9a31_7001, 48, |rng| {
        let spec = arb_spec(rng);
        let module = parse_and_validate(&spec).unwrap().module;
        let ir = elaborate(&module);
        for (i, f) in module.functions.iter().enumerate() {
            let m = stub_module(&ir, i, "parity");
            let vhdl = emit(&m, Hdl::Vhdl);
            let verilog = emit(&m, Hdl::Verilog);
            // Same module name.
            assert!(vhdl.contains(&format!("entity func_{} is", f.name)), "missing entity");
            assert!(verilog.contains(&format!("module func_{} (", f.name)), "missing module");
            // Every declared constant and signal appears in both.
            for d in &m.decls {
                if let splice_hdl::Decl::Constant { name, .. }
                | splice_hdl::Decl::Signal { name, .. } = d
                {
                    assert!(vhdl.contains(name.as_str()), "vhdl missing {}", name);
                    assert!(verilog.contains(name.as_str()), "verilog missing {}", name);
                }
            }
            // Every port appears in both.
            for p in &m.ports {
                assert!(vhdl.contains(&p.name));
                assert!(verilog.contains(&p.name));
            }
        }
    });
}

#[test]
fn arbiter_emissions_share_instances() {
    check(0x9a31_7002, 48, |rng| {
        let spec = arb_spec(rng);
        let module = parse_and_validate(&spec).unwrap().module;
        let ir = elaborate(&module);
        let m = arbiter_module(&ir, "parity");
        let vhdl = emit(&m, Hdl::Vhdl);
        let verilog = emit(&m, Hdl::Verilog);
        for item in &m.items {
            if let splice_hdl::Item::Instance(inst) = item {
                assert!(vhdl.contains(&inst.label), "vhdl missing {}", inst.label);
                assert!(verilog.contains(&inst.label), "verilog missing {}", inst.label);
                for (formal, actual) in &inst.connections {
                    let needle = format!("{} => {}", formal, actual);
                    assert!(vhdl.contains(&needle), "vhdl missing {}", needle);
                    let needle = format!(".{}({})", formal, actual);
                    assert!(verilog.contains(&needle), "verilog missing {}", needle);
                }
            }
        }
    });
}

/// Register counts (the resource model's FF input) are identical no
/// matter which text backend renders the module.
#[test]
fn registered_bits_are_backend_independent() {
    check(0x9a31_7003, 48, |rng| {
        let spec = arb_spec(rng);
        let module = parse_and_validate(&spec).unwrap().module;
        let ir = elaborate(&module);
        for i in 0..ir.stubs.len() {
            let m = stub_module(&ir, i, "parity");
            // registered_bits is an IR property: rendering cannot change it.
            let bits_before = m.registered_bits();
            let _ = emit(&m, Hdl::Vhdl);
            let _ = emit(&m, Hdl::Verilog);
            assert_eq!(m.registered_bits(), bits_before);
        }
    });
}
