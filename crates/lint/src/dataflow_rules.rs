//! Dataflow-layer rules (`SL05xx`): abstract interpretation over the
//! flattened transition relation of each generated module.
//!
//! Where the `SL03xx` rules reason about the *structure* of the HDL AST
//! (drivers, widths, identifier namespaces), these rules reason about the
//! *values* signals can take: every module is compiled with
//! [`splice_dataflow::flat`] — the same flattening path the model checker
//! uses — and run to a fixed point over a product domain of ternary
//! known-bits, unsigned intervals, and X-taint. What the fixpoint proves
//! becomes findings: provably-constant signals, unreachable branches and
//! case arms, truncating assignments, foregone comparisons, registers that
//! can still hold X after reset, dead logic cones, and registers that only
//! ever recycle their own value.
//!
//! Each module of the emitted set is analyzed as its own top, so findings
//! are reported once, against the module that owns the logic. Signals and
//! nodes flattened in from child instances (their names carry a `.`) are
//! skipped — the child's own run covers them with full input freedom.

use crate::diag::{Diagnostic, Layer, LintReport, Location};
use splice_dataflow::engine::{assign_profiles, branch_findings, reset_slot, FindingKind};
use splice_dataflow::{analyze, CompileError, CompiledDesign, FactTable, Kind};
use splice_hdl::Module;

/// Run every dataflow rule over a set of modules that are emitted together
/// (instantiations are resolved within the set).
pub fn lint_dataflow(modules: &[Module], report: &mut LintReport) {
    for m in modules {
        let d = match CompiledDesign::compile(modules, &m.name) {
            Ok(d) => d,
            Err(e) => {
                push_compile_error(&m.name, &e, report);
                continue;
            }
        };
        lint_compiled(&d, report);
    }
}

/// `SL0500`: the module cannot be compiled to a transition relation, so no
/// value analysis (and no model checking) is possible. Reported only when
/// the defect is in this module itself — a defect inside an instantiated
/// child (hierarchical names carry a `.`) is reported by the child's run.
fn push_compile_error(module: &str, e: &CompileError, report: &mut LintReport) {
    let owned_here = match e {
        CompileError::UnknownSignal { module: m, .. } => m == module,
        CompileError::TooWide { name, .. } | CompileError::MixedDrivers { name } => {
            !name.contains('.')
        }
        CompileError::UnknownModule { instance, .. } => !instance.contains('.'),
    };
    if !owned_here {
        return;
    }
    let location = match e.signal() {
        Some(s) => Location::signal(module, s),
        None => Location::path(module),
    };
    report.push(
        Diagnostic::error("SL0500", Layer::Hdl, location, e.render_at(&format!("{module}.vhd")))
            .suggest("fix the driver structure so value analysis and model checking can run"),
    );
}

/// Run the abstract interpretation over one compiled module and report
/// everything the fixpoint proves.
fn lint_compiled(d: &CompiledDesign, report: &mut LintReport) {
    let module = d.name.as_str();
    let a = analyze(d);
    let facts = FactTable::build(d, &a);
    let profiles = assign_profiles(d);
    let local = |id: usize| !d.signals[id].name.contains('.');

    // SL0501 — provably constant post-reset. Deliberate tie-offs (the RHS
    // only ever reads literals and declared constants) are idiomatic and
    // exempt; so are registers already reported as self-assignment-only.
    for (id, s) in d.signals.iter().enumerate() {
        if !local(id) || !matches!(s.kind, Kind::Comb | Kind::Register) {
            continue;
        }
        let p = &profiles[id];
        if matches!(s.kind, Kind::Register) && p.self_only && p.assigns >= 1 {
            // SL0507 — the register is only ever assigned its own value:
            // whatever reset leaves there is final, and the clocked driver
            // is dead weight.
            report.push(
                Diagnostic::warning(
                    "SL0507",
                    Layer::Hdl,
                    Location::signal(module, &s.name),
                    format!(
                        "register `{}` is only ever assigned its own value; it never changes \
                         after reset",
                        s.name
                    ),
                )
                .suggest("drop the register or assign it a real next value"),
            );
            continue;
        }
        if let (Some(v), true) = (facts.signals[id].settled, p.rhs_reads_nonconst) {
            report.push(
                Diagnostic::warning(
                    "SL0501",
                    Layer::Hdl,
                    Location::signal(module, &s.name),
                    format!(
                        "`{}` is provably {v} in every reachable post-reset state despite being \
                         computed from non-constant signals",
                        s.name
                    ),
                )
                .suggest("replace the logic with a constant, or fix the computation"),
            );
        }
    }

    // SL0502 / SL0503 / SL0504 — program-walk findings under the settled
    // fixpoint values. Sites flattened in from child instances carry a `.`.
    for f in branch_findings(d, &a) {
        if f.site.contains('.') {
            continue;
        }
        let at = |detail: &str| Location::path(format!("{module} {detail}"));
        match f.kind {
            FindingKind::DeadBranch { cond } => report.push(
                Diagnostic::error(
                    "SL0502",
                    Layer::Hdl,
                    at(&f.site),
                    format!("branch condition `{cond}` is provably false in every reachable state"),
                )
                .suggest("remove the dead branch, or fix the condition"),
            ),
            FindingKind::DeadArm { sel, value } => report.push(
                Diagnostic::error(
                    "SL0502",
                    Layer::Hdl,
                    at(&f.site),
                    format!("case arm {value} is unreachable: `{sel}` can never match it"),
                )
                .suggest("remove the dead arm, or fix the selector logic"),
            ),
            FindingKind::TruncatingAssign { lhs, rhs, hi } => report.push(
                Diagnostic::error(
                    "SL0503",
                    Layer::Hdl,
                    Location::signal(module, &d.signals[lhs].name),
                    format!(
                        "assignment truncates `{rhs}` (which can reach {hi}) to the {}-bit \
                         target `{}`",
                        d.signals[lhs].width, d.signals[lhs].name
                    ),
                )
                .suggest("widen the target or mask the value explicitly"),
            ),
            FindingKind::ConstCompare { expr, value } => report.push(
                Diagnostic::warning(
                    "SL0504",
                    Layer::Hdl,
                    at(&f.site),
                    format!("comparison `{expr}` is always {value}"),
                )
                .suggest("simplify the expression, or fix the compared signal"),
            ),
        }
    }

    // SL0505 — a register that may still hold X in a reachable post-reset
    // state (the static companion to the model checker's SL0404/SL0405,
    // which only see modules the checker explores). Needs a reset protocol
    // to be meaningful.
    if reset_slot(d).is_some() {
        for &id in &d.registers {
            if local(id) && facts.signals[id].xmask != 0 {
                report.push(
                    Diagnostic::warning(
                        "SL0505",
                        Layer::Hdl,
                        Location::signal(module, &d.signals[id].name),
                        format!(
                            "register `{}` may still hold X after reset (uninitialized bits \
                             can reach it)",
                            d.signals[id].name
                        ),
                    )
                    .suggest("initialize the register or assign it on every reset path"),
                );
            }
        }
    }

    // SL0506 — dead logic cone: driven, but with no path to an output port.
    for (id, s) in d.signals.iter().enumerate() {
        if local(id)
            && matches!(s.kind, Kind::Comb | Kind::Register)
            && !facts.signals[id].reaches_output
        {
            report.push(
                Diagnostic::warning(
                    "SL0506",
                    Layer::Hdl,
                    Location::signal(module, &s.name),
                    format!("`{}` never reaches an output port: its logic cone is dead", s.name),
                )
                .suggest("remove the dead logic, or wire it to something observable"),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splice_hdl::{Decl, Expr, Item, Port, Process, Stmt};

    fn lint_one(m: Module) -> LintReport {
        let mut r = LintReport::new();
        lint_dataflow(std::slice::from_ref(&m), &mut r);
        r
    }

    /// A clean 3-state FSM: every rule should stay quiet.
    fn fsm() -> Module {
        let mut m = Module::new("fsm");
        m.ports = vec![
            Port::input("CLK", 1),
            Port::input("RST", 1),
            Port::input("GO", 1),
            Port::output("BUSY", 1),
        ];
        m.decls = vec![Decl::Signal { name: "st".into(), width: 2, init: None }];
        m.items.push(Item::Process(Process {
            label: "ctl".into(),
            clocked: true,
            body: vec![Stmt::if_else(
                Expr::sig("RST"),
                vec![Stmt::assign("st", Expr::lit(0, 2))],
                vec![Stmt::Case {
                    expr: Expr::sig("st"),
                    arms: vec![
                        (
                            0,
                            vec![Stmt::if_then(
                                Expr::sig("GO"),
                                vec![Stmt::assign("st", Expr::lit(1, 2))],
                            )],
                        ),
                        (1, vec![Stmt::assign("st", Expr::lit(2, 2))]),
                        (2, vec![Stmt::assign("st", Expr::lit(0, 2))]),
                    ],
                    default: Some(vec![Stmt::assign("st", Expr::lit(0, 2))]),
                }],
            )],
        }));
        m.items.push(Item::Assign { lhs: "BUSY".into(), rhs: Expr::sig("st").ne(Expr::lit(0, 2)) });
        m
    }

    #[test]
    fn clean_fsm_has_no_findings() {
        let r = lint_one(fsm());
        assert!(r.is_clean(), "{}", r.render_text());
    }

    #[test]
    fn sl0500_mixed_drivers_is_reported_structurally() {
        let mut m = fsm();
        // `st` is clocked; a second continuous driver makes it uncompilable.
        m.items.push(Item::Assign { lhs: "st".into(), rhs: Expr::lit(1, 2) });
        let r = lint_one(m);
        assert!(r.has("SL0500"), "{}", r.render_text());
        let d = r.diagnostics.iter().find(|d| d.code == "SL0500").unwrap();
        assert_eq!(d.location, Location::signal("fsm", "st"), "{:?}", d.location);
    }

    #[test]
    fn sl0501_constant_computed_from_signals() {
        let mut m = fsm();
        m.decls.push(Decl::Signal { name: "gate".into(), width: 1, init: None });
        // GO and 0 reads a non-constant signal but is provably 0.
        m.items
            .push(Item::Assign { lhs: "gate".into(), rhs: Expr::sig("GO").and(Expr::lit(0, 1)) });
        m.items.push(Item::Assign { lhs: "BUSY2".into(), rhs: Expr::sig("gate") });
        m.ports.push(Port::output("BUSY2", 1));
        let r = lint_one(m);
        assert!(r.has("SL0501"), "{}", r.render_text());
    }

    #[test]
    fn sl0501_tie_offs_are_exempt() {
        let mut m = fsm();
        m.ports.push(Port::output("ZERO", 1));
        m.items.push(Item::Assign { lhs: "ZERO".into(), rhs: Expr::lit(0, 1) });
        let r = lint_one(m);
        assert!(!r.has("SL0501"), "{}", r.render_text());
    }

    #[test]
    fn sl0502_unreachable_case_arm() {
        let mut m = fsm();
        let Item::Process(p) = &mut m.items[0] else { panic!() };
        let Stmt::If { els: Some(els), .. } = &mut p.body[0] else { panic!() };
        let Stmt::Case { arms, .. } = &mut els[0] else { panic!() };
        // The FSM never enters state 3.
        arms.push((3, vec![Stmt::assign("st", Expr::lit(1, 2))]));
        let r = lint_one(m);
        assert!(r.has("SL0502"), "{}", r.render_text());
        assert!(r.error_count() > 0);
    }

    #[test]
    fn sl0503_truncating_assignment() {
        let mut m = fsm();
        m.ports.push(Port::input("A", 2));
        m.ports.push(Port::output("NARROW", 2));
        // {GO, A} is 3 bits wide and can reach 7; NARROW only holds 2.
        m.items.push(Item::Assign {
            lhs: "NARROW".into(),
            rhs: Expr::Concat(vec![Expr::sig("GO"), Expr::sig("A")]),
        });
        let r = lint_one(m);
        assert!(r.has("SL0503"), "{}", r.render_text());
    }

    #[test]
    fn sl0504_foregone_comparison() {
        let mut m = fsm();
        m.decls.push(Decl::Signal { name: "two".into(), width: 4, init: None });
        m.ports.push(Port::output("ISTWO", 1));
        m.items.push(Item::Assign { lhs: "two".into(), rhs: Expr::lit(2, 4) });
        m.items
            .push(Item::Assign { lhs: "ISTWO".into(), rhs: Expr::sig("two").eq(Expr::lit(2, 4)) });
        let r = lint_one(m);
        assert!(r.has("SL0504"), "{}", r.render_text());
    }

    #[test]
    fn sl0505_register_reachable_as_x() {
        let mut m = fsm();
        m.ports.push(Port::input("DIN", 2));
        m.ports.push(Port::output("CAPT", 2));
        m.decls.push(Decl::Signal { name: "cap".into(), width: 2, init: None });
        // `cap` is never reset and only conditionally loaded: X can persist.
        m.items.push(Item::Process(Process {
            label: "load".into(),
            clocked: true,
            body: vec![Stmt::if_then(Expr::sig("GO"), vec![Stmt::assign("cap", Expr::sig("DIN"))])],
        }));
        m.items.push(Item::Assign { lhs: "CAPT".into(), rhs: Expr::sig("cap") });
        let r = lint_one(m);
        assert!(r.has("SL0505"), "{}", r.render_text());
        assert!(!lint_one(fsm()).has("SL0505"), "reset FSM state is X-free");
    }

    #[test]
    fn sl0506_dead_logic_cone() {
        let mut m = fsm();
        m.decls.push(Decl::Signal { name: "orphan".into(), width: 2, init: None });
        m.items
            .push(Item::Assign { lhs: "orphan".into(), rhs: Expr::sig("st").add(Expr::lit(1, 2)) });
        let r = lint_one(m);
        assert!(r.has("SL0506"), "{}", r.render_text());
    }

    #[test]
    fn sl0507_self_assignment_only_register() {
        let mut m = fsm();
        m.ports.push(Port::output("Q", 1));
        m.decls.push(Decl::Signal { name: "hold".into(), width: 1, init: Some(0) });
        m.items.push(Item::Process(Process {
            label: "keep".into(),
            clocked: true,
            body: vec![Stmt::assign("hold", Expr::sig("hold"))],
        }));
        m.items.push(Item::Assign { lhs: "Q".into(), rhs: Expr::sig("hold") });
        let r = lint_one(m);
        assert!(r.has("SL0507"), "{}", r.render_text());
        // SL0507 subsumes SL0501 for the register itself (downstream
        // signals it freezes may still be flagged constant).
        assert!(
            !r.diagnostics
                .iter()
                .any(|d| d.code == "SL0501" && d.location == Location::signal("fsm", "hold")),
            "{}",
            r.render_text()
        );
    }
}
