//! Structural timing rules (`SL06xx`): levelization, fan-out, and
//! netlist-grade cost over the flattened transition relation.
//!
//! Where the `SL05xx` rules reason about the *values* signals can take,
//! these reason about the *shape* of the logic: unit-delay depth between
//! sequential elements ([`splice_dataflow::timing`]), how many nodes hang
//! off each net, whether an output can be reached from an input without
//! crossing a register, how wide intermediates grow inside one expression,
//! and whether the real flattened netlist agrees with the IR-heuristic
//! resource estimate it was planned from.
//!
//! Like the dataflow rules, every module of the emitted set is analyzed as
//! its own top and findings are attached to the module that owns the
//! logic; signals flattened in from child instances (names carry a `.`)
//! are skipped — the child's own run covers them.

use crate::diag::{Diagnostic, Layer, LintReport, Location};
use splice_core::DesignIr;
use splice_dataflow::timing::{analyze_timing, expr_leaf_width, expr_peak_width, Timing};
use splice_dataflow::{CompiledDesign, Kind};
use splice_hdl::Module;
use splice_resources::{design_cost, netlist_cost, pct_str, Resources};
use std::collections::HashMap;

// Budgets for the structural timing rules, calibrated against the
// generated example designs (deepest endpoint: 6 levels; busiest
// non-input net: 2 readers; netlist/estimate slice ratio: 1.2–2.4×) with
// roughly 2× headroom, so a clean generator stays clean and a structural
// regression trips the gate.

/// SL0600: maximum allowed endpoint depth in unit-delay levels.
pub const MAX_DEPTH: u32 = 12;
/// SL0601: maximum allowed fan-out of a non-input net.
pub const MAX_FANOUT: u32 = 8;
/// SL0604: maximum allowed slice-count ratio (larger ÷ smaller) between
/// the netlist-grade bill and the IR estimate.
pub const ESTIMATE_TOLERANCE: f64 = 4.0;

/// Run the structural timing rules (`SL0600`–`SL0603`) over a set of
/// modules that are emitted together.
pub fn lint_timing(modules: &[Module], report: &mut LintReport) {
    for m in modules {
        // Compile failures are already reported as SL0500 by the dataflow
        // pass; structure cannot be measured without a netlist.
        if let Ok(d) = CompiledDesign::compile(modules, &m.name) {
            lint_timing_design(&d, report);
        }
    }
}

/// Render a critical path as a named chain, source first.
fn render_path(d: &CompiledDesign, t: &Timing, e: &splice_dataflow::Endpoint) -> String {
    t.path(e).iter().map(|&s| d.signals[s].name.as_str()).collect::<Vec<_>>().join(" -> ")
}

fn lint_timing_design(d: &CompiledDesign, report: &mut LintReport) {
    let module = d.name.as_str();
    let local = |id: usize| !d.signals[id].name.contains('.');
    let t = analyze_timing(d);

    // SL0600 — an endpoint (register D pin or output port) sits behind
    // more logic levels than the depth budget allows.
    for e in &t.endpoints {
        if local(e.signal) && e.depth > MAX_DEPTH {
            report.push(
                Diagnostic::warning(
                    "SL0600",
                    Layer::Hdl,
                    Location::signal(module, &d.signals[e.signal].name),
                    format!(
                        "critical path into `{}` is {} levels deep (budget {}): {}",
                        d.signals[e.signal].name,
                        e.depth,
                        MAX_DEPTH,
                        render_path(d, &t, e)
                    ),
                )
                .suggest(
                    "pipeline the path with an intermediate register, or split the expression",
                ),
            );
        }
    }

    // SL0601 — a net fans out to more reader nodes than the budget allows.
    // Top-level input ports are exempt: the environment (clock enables,
    // reset, decoded selects) legitimately reaches everything.
    for (id, s) in d.signals.iter().enumerate() {
        if local(id) && !matches!(s.kind, Kind::Input) && t.fanout[id] > MAX_FANOUT {
            report.push(
                Diagnostic::warning(
                    "SL0601",
                    Layer::Hdl,
                    Location::signal(module, &s.name),
                    format!(
                        "net `{}` fans out to {} nodes (budget {})",
                        s.name, t.fanout[id], MAX_FANOUT
                    ),
                )
                .suggest("duplicate the driving logic or register the net before distribution"),
            );
        }
    }

    // SL0602 — an output port is computed from input ports through
    // combinational logic only: no register anywhere in its fan-in cone,
    // so input glitches and cross-module timing propagate straight
    // through the interface.
    let producer: HashMap<usize, usize> = d
        .comb_order
        .iter()
        .enumerate()
        .flat_map(|(i, n)| n.writes.iter().map(move |&w| (w, i)))
        .collect();
    for &port in &d.outputs {
        if !local(port) {
            continue;
        }
        let mut seen = vec![false; d.signals.len()];
        let mut stack = vec![port];
        let mut has_reg = false;
        let mut inputs_seen: Vec<&str> = Vec::new();
        while let Some(s) = stack.pop() {
            if std::mem::replace(&mut seen[s], true) {
                continue;
            }
            match d.signals[s].kind {
                Kind::Register => has_reg = true,
                Kind::Input => inputs_seen.push(&d.signals[s].name),
                Kind::Comb => {
                    if let Some(&n) = producer.get(&s) {
                        stack.extend(d.comb_order[n].reads.iter().copied());
                    }
                }
                Kind::Const(_) | Kind::Undriven => {}
            }
        }
        if !has_reg && !inputs_seen.is_empty() {
            inputs_seen.sort_unstable();
            report.push(
                Diagnostic::warning(
                    "SL0602",
                    Layer::Hdl,
                    Location::signal(module, &d.signals[port].name),
                    format!(
                        "output `{}` is driven from input(s) {} through combinational logic \
                         only — no register cuts the path",
                        d.signals[port].name,
                        inputs_seen.iter().map(|n| format!("`{n}`")).collect::<Vec<_>>().join(", ")
                    ),
                )
                .suggest(
                    "register the output (or an intermediate) so the interface is synchronous",
                ),
            );
        }
    }

    // SL0603 — an operator chain balloons an intermediate value well past
    // both the assignment target and every leaf operand before truncating
    // it back down (in this IR only concatenation grows width, so this
    // flags concat-then-slice pyramids, not ordinary wide compares).
    for node in d.clocked.iter().chain(&d.comb_order) {
        if node.site.contains('.') {
            continue;
        }
        scan_width_blowup(d, &node.body, &node.site, module, report);
    }
}

fn scan_width_blowup(
    d: &CompiledDesign,
    body: &[splice_dataflow::flat::CStmt],
    site: &str,
    module: &str,
    report: &mut LintReport,
) {
    use splice_dataflow::flat::CStmt;
    for stmt in body {
        match stmt {
            CStmt::Assign { lhs, rhs } => {
                let peak = expr_peak_width(d, rhs);
                let leaf = expr_leaf_width(d, rhs);
                let target = d.signals[*lhs].width;
                if peak > leaf && peak > target && peak >= 2 * target {
                    report.push(
                        Diagnostic::warning(
                            "SL0603",
                            Layer::Hdl,
                            Location::signal(module, &d.signals[*lhs].name),
                            format!(
                                "assignment to `{}` ({site}) builds a {peak}-bit intermediate \
                                 from {leaf}-bit leaves before narrowing to {target} bits",
                                d.signals[*lhs].name
                            ),
                        )
                        .suggest("slice operands before combining them instead of after"),
                    );
                }
            }
            CStmt::If { then, elifs, els, .. } => {
                scan_width_blowup(d, then, site, module, report);
                for (_, b) in elifs {
                    scan_width_blowup(d, b, site, module, report);
                }
                if let Some(b) = els {
                    scan_width_blowup(d, b, site, module, report);
                }
            }
            CStmt::Case { arms, default, .. } => {
                for (_, b) in arms {
                    scan_width_blowup(d, b, site, module, report);
                }
                if let Some(b) = default {
                    scan_width_blowup(d, b, site, module, report);
                }
            }
        }
    }
}

/// `SL0604` — cross-check the netlist-grade bill of the flattened design
/// against the IR-heuristic estimate.
///
/// The comparison covers the arbiter and the function stubs — the logic
/// that exists as module ASTs. The bus interface adapter is template text
/// with no AST, so its estimate item is excluded from the baseline.
pub fn lint_estimate(ir: &DesignIr, modules: &[Module], report: &mut LintReport) {
    let top = format!("user_{}", ir.module.params.device_name);
    let Ok(d) = CompiledDesign::compile(modules, &top) else {
        return; // SL0500 covers uncompilable designs.
    };
    let actual = netlist_cost(&d).total();
    let estimate: Resources = design_cost(ir)
        .items
        .iter()
        .filter(|(name, _)| !name.ends_with("_interface"))
        .map(|(_, c)| *c)
        .sum();

    let (a, b) = (actual.slices() as f64, estimate.slices() as f64);
    let diverged = if a == 0.0 && b == 0.0 {
        false
    } else if a == 0.0 || b == 0.0 {
        true
    } else {
        (a / b).max(b / a) > ESTIMATE_TOLERANCE
    };
    if diverged {
        report.push(
            Diagnostic::warning(
                "SL0604",
                Layer::Hdl,
                Location::path(&top),
                format!(
                    "netlist-grade bill for `{top}` ({actual}) diverges from the IR estimate \
                     ({estimate}) by {} — beyond the {}x tolerance",
                    pct_str(actual.pct_vs(&estimate)),
                    ESTIMATE_TOLERANCE
                ),
            )
            .suggest("recalibrate the estimate model or investigate what the generator emits"),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splice_core::hdlgen::design_modules;
    use splice_hdl::{Decl, Expr, Item, Port, Process, Stmt};

    fn lint_one(m: Module) -> LintReport {
        let mut r = LintReport::new();
        lint_timing(std::slice::from_ref(&m), &mut r);
        r
    }

    /// A registered pass-through: clean under every SL06xx rule.
    fn clean_module() -> Module {
        let mut m = Module::new("clean");
        m.ports = vec![
            Port::input("CLK", 1),
            Port::input("RST", 1),
            Port::input("D", 8),
            Port::output("Q", 8),
        ];
        m.decls = vec![Decl::Signal { name: "r".into(), width: 8, init: Some(0) }];
        m.items.push(Item::Process(Process {
            label: "p".into(),
            clocked: true,
            body: vec![Stmt::if_else(
                Expr::sig("RST"),
                vec![Stmt::assign("r", Expr::lit(0, 8))],
                vec![Stmt::assign("r", Expr::sig("D"))],
            )],
        }));
        m.items.push(Item::Assign { lhs: "Q".into(), rhs: Expr::sig("r") });
        m
    }

    #[test]
    fn clean_module_has_no_findings() {
        let r = lint_one(clean_module());
        assert!(r.is_clean(), "{}", r.render_text());
    }

    #[test]
    fn sl0600_deep_operator_chain() {
        let mut m = clean_module();
        // A 13-adder chain re-registered at the end: depth 13 > budget 12.
        let mut prev = "r".to_string();
        for i in 0..13 {
            let name = format!("t{i}");
            m.decls.push(Decl::Signal { name: name.clone(), width: 8, init: None });
            m.items.push(Item::Assign {
                lhs: name.clone(),
                rhs: Expr::sig(&prev).add(Expr::lit(1, 8)),
            });
            prev = name;
        }
        m.ports.push(Port::output("DEEP", 8));
        m.items.push(Item::Assign { lhs: "DEEP".into(), rhs: Expr::sig(&prev) });
        let r = lint_one(m);
        assert!(r.has("SL0600"), "{}", r.render_text());
        let d = r.diagnostics.iter().find(|d| d.code == "SL0600").unwrap();
        assert!(d.message.contains("13 levels"), "{}", d.message);
        assert!(d.message.contains("r -> t0"), "path should be named: {}", d.message);
        // One level shallower stays inside the budget.
        let mut ok = clean_module();
        let mut prev = "r".to_string();
        for i in 0..12 {
            let name = format!("t{i}");
            ok.decls.push(Decl::Signal { name: name.clone(), width: 8, init: None });
            ok.items.push(Item::Assign {
                lhs: name.clone(),
                rhs: Expr::sig(&prev).add(Expr::lit(1, 8)),
            });
            prev = name;
        }
        ok.ports.push(Port::output("DEEP", 8));
        ok.items.push(Item::Assign { lhs: "DEEP".into(), rhs: Expr::sig(&prev) });
        assert!(!lint_one(ok).has("SL0600"));
    }

    #[test]
    fn sl0601_high_fanout_net() {
        let mut m = clean_module();
        // `r` feeds 9 reader nodes (the Q assign plus 8 more): 9 > 8.
        for i in 0..8 {
            let port = format!("O{i}");
            m.ports.push(Port::output(&port, 8));
            m.items
                .push(Item::Assign { lhs: port.clone(), rhs: Expr::sig("r").add(Expr::lit(i, 8)) });
        }
        let r = lint_one(m);
        assert!(r.has("SL0601"), "{}", r.render_text());
        let d = r.diagnostics.iter().find(|d| d.code == "SL0601").unwrap();
        assert_eq!(d.location, Location::signal("clean", "r"));
    }

    #[test]
    fn sl0601_exempts_input_ports() {
        let mut m = clean_module();
        // An input fanning out to 9 nodes is the environment's business.
        for i in 0..9 {
            let port = format!("O{i}");
            m.ports.push(Port::output(&port, 8));
            m.items
                .push(Item::Assign { lhs: port.clone(), rhs: Expr::sig("D").add(Expr::lit(i, 8)) });
        }
        let r = lint_one(m);
        assert!(!r.has("SL0601"), "{}", r.render_text());
    }

    #[test]
    fn sl0602_register_free_input_to_output() {
        let mut m = clean_module();
        m.ports.push(Port::input("A", 1));
        m.ports.push(Port::output("LEAK", 1));
        m.items.push(Item::Assign { lhs: "LEAK".into(), rhs: Expr::sig("A").and(Expr::sig("GO")) });
        m.ports.push(Port::input("GO", 1));
        let r = lint_one(m);
        assert!(r.has("SL0602"), "{}", r.render_text());
        let d = r.diagnostics.iter().find(|d| d.code == "SL0602").unwrap();
        assert_eq!(d.location, Location::signal("clean", "LEAK"));
        assert!(d.message.contains("`A`"), "{}", d.message);
        // Q goes through the register `r`: no finding there.
        assert!(!r.diagnostics.iter().any(|d| d.location == Location::signal("clean", "Q")));
    }

    #[test]
    fn sl0603_width_blowup_through_concat() {
        let mut m = clean_module();
        m.ports.push(Port::input("W", 16));
        m.ports.push(Port::output("NIB", 4));
        // {W,W,W,W} is 64 bits wide, sliced back to 4: peak 64 ≥ 2×4 and
        // wider than the 16-bit leaves.
        let quad =
            Expr::Concat(vec![Expr::sig("W"), Expr::sig("W"), Expr::sig("W"), Expr::sig("W")]);
        m.items.push(Item::Assign {
            lhs: "NIB".into(),
            rhs: Expr::Slice { base: Box::new(quad), hi: 3, lo: 0 },
        });
        let r = lint_one(m);
        assert!(r.has("SL0603"), "{}", r.render_text());
    }

    #[test]
    fn sl0603_ignores_wide_compares_and_exact_assembly() {
        let mut m = clean_module();
        // A 32-bit compare into a 1-bit flag: the evaluator computes wide,
        // but no leaf is exceeded — not a blowup.
        m.ports.push(Port::input("X", 32));
        m.ports.push(Port::output("F", 1));
        m.items.push(Item::Assign { lhs: "F".into(), rhs: Expr::sig("X").eq(Expr::lit(7, 32)) });
        // Exact-width assembly: {r,r} into a 16-bit port.
        m.ports.push(Port::output("PAIR", 16));
        m.items.push(Item::Assign {
            lhs: "PAIR".into(),
            rhs: Expr::Concat(vec![Expr::sig("r"), Expr::sig("r")]),
        });
        let r = lint_one(m);
        assert!(!r.has("SL0603"), "{}", r.render_text());
    }

    const SPEC: &str =
        "%bus_type fcb\n%bus_width 32\n%device_name est_dev\nint mac(int a, int b);\n";

    fn spec_design() -> (DesignIr, Vec<Module>) {
        let v = splice_spec::parse_and_validate(SPEC).expect("valid");
        let ir = splice_core::elaborate(&v.module);
        let modules = design_modules(&ir, "test").expect("generates");
        (ir, modules)
    }

    #[test]
    fn sl0604_clean_on_generated_design() {
        let (ir, modules) = spec_design();
        let mut r = LintReport::new();
        lint_estimate(&ir, &modules, &mut r);
        assert!(!r.has("SL0604"), "{}", r.render_text());
    }

    #[test]
    fn sl0604_fires_when_the_netlist_diverges() {
        let (ir, mut modules) = spec_design();
        // Graft 60 32-bit adders the IR estimate knows nothing about onto
        // the arbiter: ~1.9k extra LUTs blows far past the 4x tolerance.
        let user = modules.iter_mut().find(|m| m.name == "user_est_dev").unwrap();
        for i in 0..60u64 {
            let name = format!("pad{i}");
            user.decls.push(Decl::Signal { name: name.clone(), width: 32, init: None });
            user.items
                .push(Item::Assign { lhs: name, rhs: Expr::lit(i, 32).add(Expr::lit(1, 32)) });
        }
        let mut r = LintReport::new();
        lint_estimate(&ir, &modules, &mut r);
        assert!(r.has("SL0604"), "{}", r.render_text());
        let d = r.diagnostics.iter().find(|d| d.code == "SL0604").unwrap();
        assert!(d.message.contains("tolerance"), "{}", d.message);
    }

    #[test]
    fn generated_design_is_sl06xx_clean() {
        let (_, modules) = spec_design();
        let mut r = LintReport::new();
        lint_timing(&modules, &mut r);
        assert!(r.is_clean(), "{}", r.render_text());
    }
}
