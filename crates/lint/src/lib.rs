//! `splice-lint` — static semantic analysis for the Splice pipeline.
//!
//! The linter inspects the spec, HDL, dataflow and timing layers and
//! reports structured [`Diagnostic`] values with stable `SLxxxx` codes:
//!
//! * **spec** (`SL01xx`): the parsed specification — address-window
//!   overflow, unused or shadowing user types, implicit-bound ordering,
//!   directives the selected bus ignores.
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
//! The crate exports one pass per layer ([`lint_spec`], [`lint_modules`],
//! [`lint_dataflow`], [`lint_timing`], [`lint_estimate`]).
//! `splice::run_pipeline` runs them all in that order over the design it
//! generates, and `splice lint` prints its report. The full catalogue with
//! triggering examples lives in `docs/lint.md`; its retired entries
//! include the whole IR layer (`SL02xx`).

pub mod dataflow_rules;
pub mod diag;
pub mod hdl_rules;
pub mod spec_rules;
pub mod timing_rules;

pub use dataflow_rules::lint_dataflow;
pub use diag::{Diagnostic, Layer, LintReport, Location, Severity};
pub use hdl_rules::lint_modules;
pub use spec_rules::lint_spec;
pub use timing_rules::{lint_estimate, lint_timing};

/// The retired IR layer's pass: it reports nothing. Each `SL02xx` rule
/// compared a stub with a copy of its function's facts, and the design IR
/// holds no such copy any more (docs/lint.md). It stays for callers that
/// run the passes one by one.
pub fn lint_ir(_ir: &splice_core::DesignIr, _report: &mut LintReport) {}

/// Every rule code the linter can emit, with a one-line summary. Kept in
/// sync with `docs/lint.md` (a test enforces it).
pub const CODES: &[(&str, &str)] = &[
    ("SL0100", "specification does not parse, validate or pass its bus library's check"),
    ("SL0101", "register window overflows the 32-bit address space"),
    ("SL0102", "user type is declared but never used"),
    ("SL0103", "user type shadows a builtin type"),
    ("SL0104", "implicit array bound does not resolve to an earlier scalar"),
    ("SL0105", "directive has no effect under the selected configuration"),
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_table_is_sorted_and_unique() {
        for w in CODES.windows(2) {
            assert!(w[0].0 < w[1].0, "{} !< {}", w[0].0, w[1].0);
        }
    }
}
