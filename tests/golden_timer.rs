//! Golden-file tests: the generated output for the Fig 8.2 timer device is
//! pinned byte-for-byte under `tests/golden/`. Any intentional change to
//! the generators must update these files (regenerate with the snippet in
//! this file's docs) — unintentional drift fails here first.
//!
//! Regenerate after an intentional generator change with
//! `SPLICE_BLESS=1 cargo test --test golden_timer`, then review the diff
//! like any other code change.

use splice_buses::library_for;
use splice_core::api::BusLibrary;
use splice_core::elaborate::elaborate;
use splice_core::hdlgen::generate_hardware;
use splice_devices::timer::timer_module;
use splice_driver::cgen::{driver_header, driver_source};
use splice_driver::macros::macro_header;
use splice_spec::bus::BusKind;

fn golden(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("missing golden {name}: {e}"))
}

fn assert_matches_golden(name: &str, actual: &str) {
    if std::env::var_os("SPLICE_BLESS").is_some() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name);
        std::fs::write(&path, actual).unwrap_or_else(|e| panic!("blessing {name}: {e}"));
        return;
    }
    let expected = golden(name);
    assert!(
        expected == actual,
        "generated `{name}` drifted from tests/golden/{name};\n\
         if the change is intentional, regenerate the golden files.\n\
         --- first divergence ---\n{}",
        first_divergence(&expected, actual)
    );
}

fn first_divergence(a: &str, b: &str) -> String {
    for (i, (la, lb)) in a.lines().zip(b.lines()).enumerate() {
        if la != lb {
            return format!("line {}:\n  golden:    {la}\n  generated: {lb}", i + 1);
        }
    }
    format!(
        "length mismatch: golden {} lines, generated {} lines",
        a.lines().count(),
        b.lines().count()
    )
}

#[test]
fn timer_vhdl_matches_golden() {
    let module = timer_module();
    let ir = elaborate(&module);
    let lib = library_for(BusKind::Plb);
    let files =
        generate_hardware(&ir, &lib.interface_template(&ir), &lib.markers(&ir), "golden").unwrap();
    assert_eq!(files.len(), 9, "interface + arbiter + 7 stubs");
    for f in &files {
        assert_matches_golden(&f.name, &f.text);
    }
}

#[test]
fn timer_verilog_matches_golden() {
    let mut module = timer_module();
    module.params.hdl = splice_spec::validate::TargetHdl::Verilog;
    let ir = elaborate(&module);
    let lib = library_for(BusKind::Plb);
    let files =
        generate_hardware(&ir, &lib.interface_template(&ir), &lib.markers(&ir), "golden").unwrap();
    for f in &files {
        assert_matches_golden(&f.name, &f.text);
    }
}

#[test]
fn timer_driver_sources_match_golden() {
    let module = timer_module();
    assert_matches_golden("hw_timer_driver.c", &driver_source(&module));
    assert_matches_golden("hw_timer_driver.h", &driver_header(&module));
    assert_matches_golden(
        "splice_lib.h",
        &macro_header(&module.params.bus, 32, module.params.base_address),
    );
}

#[test]
fn golden_vhdl_has_the_fig_8_4_handshake_structure() {
    // Sanity on the pinned artifact itself: the set_threshold stub carries
    // the same structural elements the thesis's Fig 8.4 hand-edit targets.
    let stub = golden("func_set_threshold.vhd");
    for needle in [
        "entity func_set_threshold is",
        "IN_thold",      // the input state for the 64-bit operand
        "thold_counter", // split-transfer tracking register
        "CALC_STATE",
        "OUT_SYNC", // pseudo output state (void return)
        "IO_DONE <= '1';",
        "TODO(user)",
    ] {
        assert!(stub.contains(needle), "missing `{needle}` in golden stub");
    }
}

/// The timer has no `%burst_support`, so its 64-bit operands cross the
/// 32-bit PLB as two single beats each, most-significant word first, as
/// the simulated driver moves them.
#[test]
fn golden_driver_matches_fig_6_1_shape() {
    let c = golden("hw_timer_driver.c");
    for needle in [
        "#define SET_THRESHOLD_ID 3",
        "void set_threshold(llong thold)",
        "    WRITE_SINGLE(func_addr, ((splice_word_t *)&thold) + 0);\n\
         \x20   WRITE_SINGLE(func_addr, ((splice_word_t *)&thold) + 1);\n",
        "WAIT_FOR_RESULTS(SET_THRESHOLD_ID);",
        "llong get_threshold(void)",
        "    READ_SINGLE(func_addr, ((splice_word_t *)&result) + 0);\n\
         \x20   READ_SINGLE(func_addr, ((splice_word_t *)&result) + 1);\n",
    ] {
        assert!(c.contains(needle), "missing `{needle}` in golden driver");
    }
    assert!(!c.contains("_DOUBLE("), "no burst macros without %burst_support");
}
