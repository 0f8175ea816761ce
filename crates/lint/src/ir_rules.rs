//! IR-layer rules (`SL02xx`): structural checks over the elaborated
//! [`DesignIr`] — the ICOB state machines, the arbitration table and the
//! transfer trackers. These are the static counterparts of the runtime
//! `SisChecker` axioms: a design that violates them will misbehave on the
//! bus no matter what the user fills into the calculation state.

use crate::diag::{Diagnostic, Layer, LintReport, Location};
use splice_core::ir::{bits_for, BeatCount, DesignIr, FunctionStub, StubState, Tracker};
use splice_spec::validate::ValidatedFunction;

fn state_path(stub: &FunctionStub, i: usize) -> Location {
    Location::path(format!("stub {}/state[{i}]", stub.name))
}

fn stub_path(stub: &FunctionStub) -> Location {
    Location::path(format!("stub {}", stub.name))
}

/// Run every IR-layer rule.
pub fn lint_ir(ir: &DesignIr, report: &mut LintReport) {
    for stub in &ir.stubs {
        state_order(stub, report); // SL0201 + SL0202
        let func = ir.module.function(&stub.name);
        stub_backing(stub, func, report); // SL0203
        if let Some(f) = func {
            dynamic_bounds(stub, f, report); // SL0205
            tracker_widths(stub, f, report); // SL0207
        }
    }
    for f in &ir.module.functions {
        if ir.stub(&f.name).is_none() {
            report.push(Diagnostic::error(
                "SL0203",
                Layer::Ir,
                Location::path(format!("function {}", f.name)),
                format!("validated function `{}` has no generated stub", f.name),
            ));
        }
    }
    func_id_space(ir, report); // SL0204
}

/// SL0201 (unreachable states) + SL0202 (malformed ICOB state order).
///
/// The ICOB contract (§5.3.1) is: inputs in declaration order, one Calc,
/// then exactly one Output or PseudoOutput — none at all for `nowait`.
/// States after the terminal state are never serviced correctly: the driver
/// believes the call completed and starts the next round at state 0.
fn state_order(stub: &FunctionStub, report: &mut LintReport) {
    let calc_positions: Vec<usize> = stub
        .states
        .iter()
        .enumerate()
        .filter(|(_, s)| matches!(s, StubState::Calc))
        .map(|(i, _)| i)
        .collect();
    let out_positions: Vec<usize> = stub
        .states
        .iter()
        .enumerate()
        .filter(|(_, s)| matches!(s, StubState::Output { .. } | StubState::PseudoOutput))
        .map(|(i, _)| i)
        .collect();

    match calc_positions.len() {
        0 => report.push(Diagnostic::error(
            "SL0202",
            Layer::Ir,
            stub_path(stub),
            format!(
                "stub `{}` has no Calc state: there is nothing for the user to fill in",
                stub.name
            ),
        )),
        1 => {}
        n => report.push(Diagnostic::error(
            "SL0202",
            Layer::Ir,
            stub_path(stub),
            format!(
                "stub `{}` has {n} Calc states; the ICOB contract allows exactly one",
                stub.name
            ),
        )),
    }
    if let Some(&calc) = calc_positions.first() {
        for (i, s) in stub.states.iter().enumerate() {
            if i > calc && matches!(s, StubState::Input { .. }) {
                report.push(Diagnostic::error(
                    "SL0202",
                    Layer::Ir,
                    state_path(stub, i),
                    format!(
                        "stub `{}`: input state follows the Calc state; all inputs must arrive \
                         before calculation starts",
                        stub.name
                    ),
                ));
            }
        }
        for &o in &out_positions {
            if o < calc {
                report.push(Diagnostic::error(
                    "SL0202",
                    Layer::Ir,
                    state_path(stub, o),
                    format!(
                        "stub `{}`: output state precedes the Calc state; there is no result \
                         to transfer yet",
                        stub.name
                    ),
                ));
            }
        }
    }
    if out_positions.len() > 1 {
        report.push(Diagnostic::error(
            "SL0202",
            Layer::Ir,
            state_path(stub, out_positions[1]),
            format!(
                "stub `{}` has {} output states; the ICOB contract allows at most one",
                stub.name,
                out_positions.len()
            ),
        ));
    }
    if stub.nowait && !out_positions.is_empty() {
        report.push(Diagnostic::error(
            "SL0202",
            Layer::Ir,
            state_path(stub, out_positions[0]),
            format!(
                "`nowait` stub `{}` has an output state; fire-and-forget functions never \
                 transfer results",
                stub.name
            ),
        ));
    } else if !stub.nowait && out_positions.is_empty() && !calc_positions.is_empty() {
        report.push(Diagnostic::error(
            "SL0202",
            Layer::Ir,
            stub_path(stub),
            format!(
                "blocking stub `{}` has no output or pseudo-output state; the driver would \
                 block forever waiting for completion",
                stub.name
            ),
        ));
    }

    // SL0201: states past the terminal state of the protocol round.
    let terminal = if stub.nowait { calc_positions.first() } else { out_positions.first() };
    if let Some(&term) = terminal {
        for i in term + 1..stub.states.len() {
            report.push(
                Diagnostic::error(
                    "SL0201",
                    Layer::Ir,
                    state_path(stub, i),
                    format!(
                        "stub `{}`: state {i} is dead — it follows the terminal state of the \
                         protocol round, after which the driver restarts at state 0",
                        stub.name
                    ),
                )
                .suggest("remove the state or move it before the output state"),
            );
        }
    }
}

/// SL0203: every stub must be backed by a validated function that agrees on
/// instance count and FUNC_ID assignment.
fn stub_backing(stub: &FunctionStub, func: Option<&ValidatedFunction>, report: &mut LintReport) {
    if stub.instances == 0 {
        report.push(Diagnostic::error(
            "SL0203",
            Layer::Ir,
            stub_path(stub),
            format!("stub `{}` has zero instances; nothing would be generated", stub.name),
        ));
    }
    let Some(f) = func else {
        report.push(Diagnostic::error(
            "SL0203",
            Layer::Ir,
            stub_path(stub),
            format!("stub `{}` has no backing validated function", stub.name),
        ));
        return;
    };
    if f.instances != stub.instances {
        report.push(Diagnostic::error(
            "SL0203",
            Layer::Ir,
            stub_path(stub),
            format!(
                "stub `{}` declares {} instance(s) but its function declares {}",
                stub.name, stub.instances, f.instances
            ),
        ));
    }
    if f.first_func_id != stub.first_func_id {
        report.push(Diagnostic::error(
            "SL0203",
            Layer::Ir,
            stub_path(stub),
            format!(
                "stub `{}` answers to FUNC_ID {} but its function was assigned {}",
                stub.name, stub.first_func_id, f.first_func_id
            ),
        ));
    }
}

/// SL0204: FUNC_ID ranges must be disjoint, avoid the reserved status id 0,
/// and fit the arbiter's FUNC_ID field.
fn func_id_space(ir: &DesignIr, report: &mut LintReport) {
    let ranges: Vec<(&FunctionStub, u64, u64)> = ir
        .stubs
        .iter()
        .map(|s| (s, s.first_func_id as u64, s.first_func_id as u64 + s.instances as u64))
        .collect();
    for (s, lo, _) in &ranges {
        if *lo == 0 && s.instances > 0 {
            report.push(Diagnostic::error(
                "SL0204",
                Layer::Ir,
                stub_path(s),
                format!(
                    "stub `{}` uses FUNC_ID 0, which is reserved for the CALC_DONE status \
                     register (§4.2.2)",
                    s.name
                ),
            ));
        }
    }
    for (i, (a, alo, ahi)) in ranges.iter().enumerate() {
        for (b, blo, bhi) in ranges.iter().skip(i + 1) {
            if alo.max(blo) < ahi.min(bhi) {
                report.push(Diagnostic::error(
                    "SL0204",
                    Layer::Ir,
                    stub_path(b),
                    format!(
                        "FUNC_ID ranges of `{}` ({}..{}) and `{}` ({}..{}) overlap; the arbiter \
                         would route one id to two functions",
                        a.name,
                        alo,
                        ahi - 1,
                        b.name,
                        blo,
                        bhi - 1
                    ),
                ));
            }
        }
    }
    let width = ir.func_id_width();
    if width < 32 {
        let capacity = 1u64 << width;
        if let Some((s, _, hi)) =
            ranges.iter().filter(|(s, ..)| s.instances > 0).max_by_key(|(_, _, hi)| *hi)
        {
            let max_id = hi - 1;
            if max_id >= capacity {
                report.push(Diagnostic::error(
                    "SL0204",
                    Layer::Ir,
                    stub_path(s),
                    format!(
                        "FUNC_ID {max_id} of stub `{}` does not fit the {width}-bit FUNC_ID \
                         field (max representable id is {})",
                        s.name,
                        capacity - 1
                    ),
                ));
            }
        }
    }
}

/// SL0205: dynamic beat counts must reference an in-range, scalar input that
/// is transferred earlier, and the array must own a storage tracker to hold
/// the latched bound.
fn dynamic_bounds(stub: &FunctionStub, f: &ValidatedFunction, report: &mut LintReport) {
    for (i, st) in stub.states.iter().enumerate() {
        let (index_input, array) = match st {
            StubState::Input { io, beats: BeatCount::Dynamic { index_input, .. }, .. } => {
                let array = f.inputs.get(*io).map(|x| x.name.as_str()).unwrap_or("?");
                (*index_input, array)
            }
            StubState::Output { beats: BeatCount::Dynamic { index_input, .. }, .. } => {
                (*index_input, "result")
            }
            _ => continue,
        };
        let Some(idx_io) = f.inputs.get(index_input) else {
            report.push(Diagnostic::error(
                "SL0205",
                Layer::Ir,
                state_path(stub, i),
                format!(
                    "stub `{}`: dynamic beat count of `{array}` references input #{index_input}, \
                     but the function has only {} input(s)",
                    stub.name,
                    f.inputs.len()
                ),
            ));
            continue;
        };
        if idx_io.is_pointer {
            report.push(Diagnostic::error(
                "SL0205",
                Layer::Ir,
                state_path(stub, i),
                format!(
                    "stub `{}`: dynamic beat count of `{array}` is given by `{}`, which is an \
                     array; runtime bounds must be scalars",
                    stub.name, idx_io.name
                ),
            ));
        }
        let idx_state = stub
            .states
            .iter()
            .position(|s| matches!(s, StubState::Input { io, .. } if *io == index_input));
        match idx_state {
            None => report.push(Diagnostic::error(
                "SL0205",
                Layer::Ir,
                state_path(stub, i),
                format!(
                    "stub `{}`: bound input `{}` of `{array}` is never transferred by any \
                     input state",
                    stub.name, idx_io.name
                ),
            )),
            // Output states always follow every input, so ordering only
            // matters for input states.
            Some(j) if j >= i && matches!(st, StubState::Input { .. }) => {
                report.push(Diagnostic::error(
                    "SL0205",
                    Layer::Ir,
                    state_path(stub, i),
                    format!(
                        "stub `{}`: bound input `{}` arrives in state {j}, after the array \
                         `{array}` it sizes; the count must be latched first",
                        stub.name, idx_io.name
                    ),
                ));
            }
            _ => {}
        }
        if !stub.trackers.iter().any(|t| t.for_io == array && t.has_storage) {
            report.push(Diagnostic::error(
                "SL0205",
                Layer::Ir,
                state_path(stub, i),
                format!(
                    "stub `{}`: dynamic transfer `{array}` has no storage tracker to hold the \
                     latched bound",
                    stub.name
                ),
            ));
        }
    }
}

/// SL0207: tracking-register plausibility — the beat counter must be wide
/// enough for the static beat count, and the comparator must match it.
fn tracker_widths(stub: &FunctionStub, f: &ValidatedFunction, report: &mut LintReport) {
    let tracker =
        |name: &str| -> Option<&Tracker> { stub.trackers.iter().find(|t| t.for_io == name) };
    for st in &stub.states {
        let (name, n) = match st {
            StubState::Input { io, beats: BeatCount::Static(n), .. } if *n > 1 => {
                (f.inputs.get(*io).map(|x| x.name.as_str()).unwrap_or("?"), *n)
            }
            StubState::Output { beats: BeatCount::Static(n), .. } if *n > 1 => ("result", *n),
            _ => continue,
        };
        if let Some(t) = tracker(name) {
            let required = bits_for(n - 1);
            if t.counter_bits < required {
                report.push(Diagnostic::warning(
                    "SL0207",
                    Layer::Ir,
                    Location::path(format!("stub {}/{}_counter", stub.name, name)),
                    format!(
                        "stub `{}`: {}-bit counter for `{name}` cannot count {n} beats \
                         ({required} bits needed); the transfer would terminate early",
                        stub.name, t.counter_bits
                    ),
                ));
            }
        }
    }
    for t in &stub.trackers {
        if t.comparator_bits != t.counter_bits {
            report.push(Diagnostic::warning(
                "SL0207",
                Layer::Ir,
                Location::path(format!("stub {}/{}_counter", stub.name, t.for_io)),
                format!(
                    "stub `{}`: tracker for `{}` compares a {}-bit bound against a {}-bit \
                     counter; the comparison silently truncates",
                    stub.name, t.for_io, t.comparator_bits, t.counter_bits
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splice_core::elaborate::elaborate;

    fn ir_for(src: &str) -> DesignIr {
        let v = splice_spec::parse_and_validate(src).expect("spec ok");
        elaborate(&v.module)
    }

    const HEADER: &str =
        "%device_name dev\n%bus_type plb\n%bus_width 32\n%base_address 0x80000000\n";

    fn lint(ir: &DesignIr) -> LintReport {
        let mut r = LintReport::new();
        lint_ir(ir, &mut r);
        r
    }

    #[test]
    fn elaborated_designs_are_clean() {
        for decls in [
            "void f();",
            "int add(int a, int b);",
            "nowait fire(int x);",
            "void load(int n, int*:n data);",
            "int sum(int*:16 data);",
        ] {
            let ir = ir_for(&format!("{HEADER}{decls}"));
            let r = lint(&ir);
            assert!(r.is_clean(), "{decls}:\n{}", r.render_text());
        }
    }

    #[test]
    fn sl0201_dead_state_after_output() {
        let mut ir = ir_for(&format!("{HEADER}int f(int x);"));
        ir.stubs[0].states.push(StubState::Calc);
        let r = lint(&ir);
        assert!(r.has("SL0201"), "{}", r.render_text());
        let d = r.diagnostics.iter().find(|d| d.code == "SL0201").unwrap();
        assert_eq!(d.location, Location::path("stub f/state[3]"));
    }

    #[test]
    fn sl0201_dead_state_after_calc_in_nowait() {
        let mut ir = ir_for(&format!("{HEADER}nowait f(int x);"));
        ir.stubs[0].states.push(StubState::Input {
            io: 0,
            beats: BeatCount::Static(1),
            ignore_tail_bits: 0,
        });
        let r = lint(&ir);
        assert!(r.has("SL0201"), "{}", r.render_text());
    }

    #[test]
    fn sl0202_missing_and_duplicated_calc() {
        let mut ir = ir_for(&format!("{HEADER}int f(int x);"));
        ir.stubs[0].states.retain(|s| !matches!(s, StubState::Calc));
        let r = lint(&ir);
        assert!(r.has("SL0202"), "{}", r.render_text());
        assert!(r.diagnostics[0].message.contains("no Calc state"));

        let mut ir2 = ir_for(&format!("{HEADER}int f(int x);"));
        ir2.stubs[0].states.insert(1, StubState::Calc);
        let r2 = lint(&ir2);
        assert!(r2.diagnostics.iter().any(|d| d.code == "SL0202" && d.message.contains("2 Calc")));
    }

    #[test]
    fn sl0202_output_before_calc() {
        let mut ir = ir_for(&format!("{HEADER}int f(int x);"));
        ir.stubs[0].states.swap(1, 2); // Calc and Output
        let r = lint(&ir);
        assert!(
            r.diagnostics.iter().any(|d| d.code == "SL0202" && d.message.contains("precedes")),
            "{}",
            r.render_text()
        );
    }

    #[test]
    fn sl0203_orphan_stub_and_function() {
        let mut ir = ir_for(&format!("{HEADER}void f();\nvoid g();"));
        ir.stubs[0].name = "ghost".into();
        let r = lint(&ir);
        let msgs: Vec<_> = r
            .diagnostics
            .iter()
            .filter(|d| d.code == "SL0203")
            .map(|d| d.message.as_str())
            .collect();
        assert!(msgs.iter().any(|m| m.contains("no backing validated function")), "{msgs:?}");
        assert!(msgs.iter().any(|m| m.contains("no generated stub")), "{msgs:?}");
    }

    #[test]
    fn sl0203_instance_mismatch() {
        let mut ir = ir_for(&format!("{HEADER}void f():3;"));
        ir.stubs[0].instances = 2;
        let r = lint(&ir);
        assert!(r.has("SL0203"), "{}", r.render_text());
    }

    #[test]
    fn sl0204_reserved_overlap_and_overflow() {
        let mut ir = ir_for(&format!("{HEADER}void f();\nvoid g();"));
        ir.stubs[0].first_func_id = 0; // reserved
        let r = lint(&ir);
        assert!(r.diagnostics.iter().any(|d| d.code == "SL0204" && d.message.contains("reserved")));

        let mut ir2 = ir_for(&format!("{HEADER}void f():2;\nvoid g():2;"));
        ir2.stubs[1].first_func_id = 2; // overlaps f's 1..=2
        let r2 = lint(&ir2);
        assert!(
            r2.diagnostics.iter().any(|d| d.code == "SL0204" && d.message.contains("overlap")),
            "{}",
            r2.render_text()
        );

        let mut ir3 = ir_for(&format!("{HEADER}void f():3;"));
        ir3.module.params.func_id_width = 1; // ids 0..=3 need 2 bits
        let r3 = lint(&ir3);
        assert!(
            r3.diagnostics.iter().any(|d| d.code == "SL0204" && d.message.contains("does not fit")),
            "{}",
            r3.render_text()
        );
    }

    #[test]
    fn sl0205_bad_dynamic_references() {
        // Index out of range (rewrite the elaborated dynamic state in place
        // so no TransferShape needs constructing here).
        let mut ir = ir_for(&format!("{HEADER}void f(int n, int*:n a);"));
        if let StubState::Input { beats: BeatCount::Dynamic { index_input, .. }, .. } =
            &mut ir.stubs[0].states[1]
        {
            *index_input = 7;
        } else {
            panic!("state[1] should be the dynamic array input");
        }
        let r = lint(&ir);
        assert!(
            r.diagnostics
                .iter()
                .any(|d| d.code == "SL0205" && d.message.contains("only 2 input(s)")),
            "{}",
            r.render_text()
        );

        // Bound arrives after the array.
        let mut ir2 = ir_for(&format!("{HEADER}void f(int n, int*:n a);"));
        ir2.stubs[0].states.swap(0, 1);
        let r2 = lint(&ir2);
        assert!(
            r2.diagnostics
                .iter()
                .any(|d| d.code == "SL0205" && d.message.contains("after the array")),
            "{}",
            r2.render_text()
        );

        // Storage tracker missing.
        let mut ir3 = ir_for(&format!("{HEADER}void f(int n, int*:n a);"));
        ir3.stubs[0].trackers.retain(|t| !t.has_storage);
        let r3 = lint(&ir3);
        assert!(
            r3.diagnostics
                .iter()
                .any(|d| d.code == "SL0205" && d.message.contains("storage tracker")),
            "{}",
            r3.render_text()
        );
    }

    #[test]
    fn sl0207_narrow_counter_and_comparator_skew() {
        let mut ir = ir_for(&format!("{HEADER}int sum(int*:16 data);"));
        ir.stubs[0].trackers[0].counter_bits = 2; // 16 beats need 4 bits
        ir.stubs[0].trackers[0].comparator_bits = 2;
        let r = lint(&ir);
        assert!(
            r.diagnostics.iter().any(|d| d.code == "SL0207" && d.message.contains("cannot count")),
            "{}",
            r.render_text()
        );

        let mut ir2 = ir_for(&format!("{HEADER}int sum(int*:16 data);"));
        ir2.stubs[0].trackers[0].comparator_bits = 8;
        let r2 = lint(&ir2);
        assert!(
            r2.diagnostics.iter().any(|d| d.code == "SL0207" && d.message.contains("truncates")),
            "{}",
            r2.render_text()
        );
    }
}
