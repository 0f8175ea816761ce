//! `splice-lint` — static semantic analysis for the Splice pipeline.
//!
//! The linter inspects three layers and reports structured
//! [`Diagnostic`] values with stable `SLxxxx` codes:
//!
//! * **spec** (`SL01xx`): the parsed specification — address-window
//!   overflow, unused or shadowing user types, implicit-bound ordering,
//!   directives the selected bus ignores.
//! * **ir** (`SL02xx`): the elaborated [`DesignIr`] — dead or misordered
//!   ICOB states, stubs without backing functions, function-id collisions,
//!   dangling dynamic bounds, SIS synchronization-contract mismatches,
//!   truncating tracker widths.
//! * **hdl** (`SL03xx`): the generated module ASTs — multiple drivers,
//!   undriven or unused signals, width mismatches, case-arm defects,
//!   instantiation errors, combinational loops, inferred latches,
//!   cross-backend identifier hazards, undeclared references, out-port
//!   read-back.
//! * **dataflow** (`SL05xx`): abstract interpretation over the flattened
//!   transition relation — provably-constant signals, dead branches,
//!   truncations, X-reachable registers, dead cones.
//! * **timing** (`SL06xx`): structural levelization over the same
//!   flattened netlist — depth budgets, fan-out budgets, register-free
//!   input→output paths, width blowups, and netlist-vs-estimate
//!   resource divergence.
//!
//! Entry points: [`lint_source`] runs every layer from specification text;
//! [`lint_design`] runs the IR and HDL layers over an elaborated design;
//! the per-layer passes ([`lint_spec`], [`lint_ir`], [`lint_modules`]) are
//! exported for finer-grained use. The full catalogue with triggering
//! examples lives in `docs/lint.md`.

pub mod dataflow_rules;
pub mod diag;
pub mod hdl_rules;
pub mod ir_rules;
pub mod spec_rules;
pub mod timing_rules;

pub use dataflow_rules::lint_dataflow;
pub use diag::{Diagnostic, Layer, LintReport, Location, Severity};
pub use hdl_rules::lint_modules;
pub use ir_rules::lint_ir;
pub use spec_rules::lint_spec;
pub use timing_rules::{lint_estimate, lint_timing};

use splice_core::hdlgen::design_modules;
use splice_core::DesignIr;
use splice_spec::bus::BusRegistry;
use splice_spec::span::line_col;
use splice_spec::SpecError;

/// Every rule code the linter can emit, with a one-line summary. Kept in
/// sync with `docs/lint.md` (a test enforces it).
pub const CODES: &[(&str, &str)] = &[
    ("SL0100", "specification does not parse or validate"),
    ("SL0101", "register window overflows the 32-bit address space"),
    ("SL0102", "user type is declared but never used"),
    ("SL0103", "user type shadows a builtin type"),
    ("SL0104", "implicit array bound does not resolve to an earlier scalar"),
    ("SL0105", "directive has no effect under the selected configuration"),
    ("SL0201", "ICOB state is unreachable"),
    ("SL0202", "ICOB state sequence is malformed"),
    ("SL0203", "stub/function sets disagree"),
    ("SL0204", "function-id space is invalid"),
    ("SL0205", "dynamic beat count references a bad input"),
    ("SL0206", "SIS mode contradicts the bus synchronization class"),
    ("SL0207", "transfer tracker is too narrow"),
    ("SL0301", "signal has conflicting drivers"),
    ("SL0302", "signal or output port is never driven"),
    ("SL0303", "signal is never read"),
    ("SL0304", "operand or assignment widths disagree"),
    ("SL0305", "case arm is out of range or duplicated"),
    ("SL0306", "instantiation port map is wrong"),
    ("SL0307", "instantiated module is not part of the design"),
    ("SL0308", "combinational loop"),
    ("SL0309", "incomplete combinational assignment infers a latch"),
    ("SL0310", "identifiers collide case-insensitively"),
    ("SL0311", "identifier is a VHDL or Verilog reserved word"),
    ("SL0312", "identifier is referenced but never declared"),
    ("SL0313", "output port is read back inside the module"),
    ("SL0401", "FSM does not return to a reusable configuration after a round"),
    (
        "SL0402",
        "SIS request not acknowledged within the response bound, or acknowledged unsolicited",
    ),
    ("SL0403", "two function instances drive a shared SIS return line in the same cycle"),
    ("SL0404", "a register or output carries X after reset"),
    ("SL0405", "DATA_OUT is unknown while DATA_OUT_VALID is asserted"),
    ("SL0406", "state-space budget exhausted before the reachable set closed"),
    ("SL0407", "driver function-id macro disagrees with the HDL address decode"),
    ("SL0408", "driver address macros disagree with the bus register map"),
    ("SL0409", "driver transfer beat count disagrees with the FSM schedule"),
    ("SL0410", "driver macro usage disagrees with the bus capabilities"),
    ("SL0500", "generated HDL could not be compiled to a transition relation"),
    ("SL0501", "signal is provably constant in every reachable post-reset state"),
    ("SL0502", "case arm or branch condition is provably unreachable"),
    ("SL0503", "assignment truncates a value whose range exceeds the target width"),
    ("SL0504", "comparison always evaluates to the same result"),
    ("SL0505", "register may still hold X in a reachable post-reset state"),
    ("SL0506", "logic cone has no path to an output or checked property"),
    ("SL0507", "register is only ever assigned its own value"),
    ("SL0600", "critical path exceeds the logic-depth budget"),
    ("SL0601", "net fans out to more nodes than the budget allows"),
    ("SL0602", "output is driven from an input with no register on the path"),
    ("SL0603", "operator chain balloons an intermediate width before narrowing"),
    ("SL0604", "netlist-grade resource bill diverges from the IR estimate beyond tolerance"),
];

/// The one-line catalogue entry for a rule code, as printed by
/// `splice lint --explain CODE`. Sourced from the same table the
/// documentation-coverage test checks against `docs/lint.md`.
pub fn explain(code: &str) -> Option<&'static str> {
    CODES.iter().find(|(c, _)| *c == code).map(|(_, summary)| *summary)
}

/// Convert pipeline errors (parse/validate failures) into `SL0100`
/// diagnostics so `splice lint` reports them in the same structured form.
fn push_spec_errors(errors: &[SpecError], source: &str, report: &mut LintReport) {
    for e in errors {
        let lc = line_col(source, e.span.start);
        report.push(Diagnostic::error(
            "SL0100",
            Layer::Spec,
            Location::Source { line: lc.line, col: lc.col },
            e.kind.to_string(),
        ));
    }
}

/// Lint the IR and HDL layers of an elaborated design. The HDL pass runs
/// over exactly the module set `generate_hardware` would emit.
pub fn lint_design(ir: &DesignIr) -> LintReport {
    let mut report = LintReport::new();
    lint_ir(ir, &mut report);
    lint_generated_hdl(ir, &mut report);
    report
}

/// Run the HDL pass over the module set generation would emit. If the IR is
/// too inconsistent to generate from, report that as `SL0203` instead of
/// aborting the whole lint run.
fn lint_generated_hdl(ir: &DesignIr, report: &mut LintReport) {
    match design_modules(ir, "lint") {
        Ok(modules) => {
            lint_modules(&modules, report);
            lint_dataflow(&modules, report);
            lint_timing(&modules, report);
            lint_estimate(ir, &modules, report);
        }
        Err(e) => report.push(Diagnostic::error(
            "SL0203",
            Layer::Ir,
            Location::None,
            format!("HDL generation is impossible: {e}"),
        )),
    }
}

/// Lint specification text end to end with the builtin bus registry:
/// parse, spec rules, validate, elaborate, IR rules, HDL rules.
pub fn lint_source(source: &str) -> LintReport {
    lint_source_with(source, &BusRegistry::builtin())
}

/// [`lint_source`] with an explicit bus registry.
pub fn lint_source_with(source: &str, registry: &BusRegistry) -> LintReport {
    let mut report = LintReport::new();
    let spec = match splice_spec::parse(source) {
        Ok(spec) => spec,
        Err(errors) => {
            push_spec_errors(&errors, source, &mut report);
            return report;
        }
    };
    lint_spec(&spec, source, registry, &mut report);
    let validated = match splice_spec::validate::validate(&spec, registry) {
        Ok(v) => v,
        Err(e) => {
            push_spec_errors(&[e], source, &mut report);
            return report;
        }
    };
    let ir = splice_core::elaborate(&validated.module);
    lint_ir(&ir, &mut report);
    lint_generated_hdl(&ir, &mut report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    const CLEAN: &str =
        "%bus_type fcb\n%bus_width 32\n%device_name lint_dev\nint mac(int a, int b);\n";

    #[test]
    fn clean_spec_lints_clean_end_to_end() {
        let r = lint_source(CLEAN);
        assert!(r.is_clean(), "{}", r.render_text());
    }

    #[test]
    fn parse_failure_becomes_sl0100_with_position() {
        let r = lint_source("%bus_type fcb\nint f(int a;\n");
        assert!(r.has("SL0100"), "{}", r.render_text());
        let d = &r.diagnostics[0];
        assert!(matches!(d.location, Location::Source { line: 2, .. }), "{:?}", d.location);
        assert_eq!(d.severity, Severity::Error);
    }

    #[test]
    fn validate_failure_becomes_sl0100() {
        // FCB supports no DMA: validation rejects the `^` transfer.
        let r = lint_source("%bus_type fcb\nvoid push(int^ data[8]);\n");
        assert!(r.has("SL0100"), "{}", r.render_text());
    }

    #[test]
    fn spec_rules_still_run_when_validation_would_pass() {
        let src = "%bus_type plb\n%bus_width 32\n%device_name lint_dev\n%base_address 0xFFFFFFFC\nint f(int a);\nint g(int b);\n";
        let r = lint_source(src);
        assert!(r.has("SL0101"), "{}", r.render_text());
    }

    #[test]
    fn codes_table_is_sorted_and_unique() {
        for w in CODES.windows(2) {
            assert!(w[0].0 < w[1].0, "{} !< {}", w[0].0, w[1].0);
        }
    }

    #[test]
    fn lint_design_covers_ir_and_hdl() {
        let v = splice_spec::parse_and_validate(CLEAN).expect("valid");
        let ir = splice_core::elaborate(&v.module);
        let r = lint_design(&ir);
        assert!(r.is_clean(), "{}", r.render_text());
    }
}
