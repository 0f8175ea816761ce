//! Fixed-point abstract interpretation over a [`CompiledDesign`].
//!
//! The engine mirrors the model checker's protocol exactly: a reset phase
//! when the design has a `RST` input (all inputs known-0 except the reset
//! line held at 1, run for two edges from the power-on state), then a
//! *free* phase where every input — the reset line included — is
//! [`AbsVal::top`] and the register state is iterated to a fixed point
//! with widening.
//!
//! Because abstract operations over-approximate the concrete ternary
//! semantics, the fixpoint register state contains **every** state the
//! checker's BFS can reach after reset, and the settled signal values
//! contain every value any signal can take in any such state under any
//! input. That post-reset join is what the SL05xx lint rules reason about
//! ("after reset, this signal is always 3").

use crate::domain::AbsVal;
use crate::flat::{CExpr, CStmt, CompiledDesign, Interp, Kind, Truth};
use crate::tv::mask;
use splice_hdl::BinOp;

/// Clock edges the reset line is held asserted, as the checker's
/// environment does.
const RESET_STEPS: u32 = 2;
/// Hard iteration cap; on overrun the state falls back to top.
const MAX_ITERS: u32 = 64;
/// Joins before widening kicks in (delaying it keeps small FSM state
/// intervals exact).
const WIDEN_AFTER: u32 = 16;

/// The result of a fixpoint run.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Post-reset fixpoint register state (state-vector order).
    pub regs: Vec<AbsVal>,
    /// Settled per-signal values at the fixpoint under free inputs.
    pub values: Vec<AbsVal>,
    /// False only when the iteration cap forced the top fallback.
    pub converged: bool,
}

/// Run the abstract interpretation to a fixed point, replaying the reset
/// protocol first when the design has a `RST` input ([`reset_slot`]).
pub fn analyze(d: &CompiledDesign) -> Analysis {
    let free: Vec<AbsVal> = d.inputs.iter().map(|&id| AbsVal::top(d.signals[id].width)).collect();
    let mut state: Vec<AbsVal> = d
        .registers
        .iter()
        .map(|&id| {
            let s = &d.signals[id];
            match s.init {
                Some(v) => AbsVal::known(v, s.width),
                None => AbsVal::undriven(s.width),
            }
        })
        .collect();
    let mut interp = Interp::new(d);
    let mut stepped = Vec::with_capacity(state.len());
    if let Some(slot) = reset_slot(d) {
        let mut ins: Vec<AbsVal> =
            d.inputs.iter().map(|&id| AbsVal::known(0, d.signals[id].width)).collect();
        ins[slot] = AbsVal::known(1, d.signals[d.inputs[slot]].width);
        for _ in 0..RESET_STEPS {
            interp.step(&state, &ins, &mut stepped);
            std::mem::swap(&mut state, &mut stepped);
        }
    }
    let mut converged = false;
    for iteration in 1..=MAX_ITERS {
        interp.step(&state, &free, &mut stepped);
        let next: Vec<AbsVal> = if iteration > WIDEN_AFTER {
            state.iter().zip(&stepped).map(|(p, s)| p.widen(&p.join(s))).collect()
        } else {
            state.iter().zip(&stepped).map(|(p, s)| p.join(s)).collect()
        };
        if next == state {
            converged = true;
            break;
        }
        state = next;
    }
    if !converged {
        // Sound fallback: any value, taint preserved.
        state = state
            .iter()
            .map(|v| {
                let mut top = AbsVal::top(v.width());
                top.xmask = v.xmask;
                top
            })
            .collect();
    }
    let values = interp.settle(&state, &free).to_vec();
    Analysis { regs: state, values, converged }
}

/// One fact the final program walk proves about the design's control flow
/// or expressions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FindingKind {
    /// An `if`/`elsif` condition is provably false in every reachable
    /// state: its branch never executes.
    DeadBranch {
        /// Rendered condition expression.
        cond: String,
    },
    /// An explicit `case` arm the selector can never match.
    DeadArm {
        /// Rendered selector expression.
        sel: String,
        /// The unmatchable arm value.
        value: u64,
    },
    /// A comparison with a provably constant outcome.
    ConstCompare {
        /// Rendered comparison expression.
        expr: String,
        /// The constant outcome.
        value: bool,
    },
    /// An assignment whose RHS range provably exceeds the LHS width.
    TruncatingAssign {
        /// Target signal index.
        lhs: usize,
        /// Rendered RHS expression.
        rhs: String,
        /// Largest value the RHS can reach.
        hi: u64,
    },
}

/// A program-walk finding, anchored to the node it came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BranchFinding {
    /// Site label of the node ([`CNode::site`](crate::flat::CNode::site)).
    pub site: String,
    /// What was proved.
    pub kind: FindingKind,
}

/// Walk every node under the settled fixpoint values and report dead
/// branches, dead case arms, constant comparisons, and truncating
/// assignments. Unreachable code is not walked (facts inside it would be
/// meaningless), and defensive `case` defaults are exempt from deadness.
pub fn branch_findings(d: &CompiledDesign, a: &Analysis) -> Vec<BranchFinding> {
    let mut out = Vec::new();
    for node in d.clocked.iter().chain(&d.comb_order) {
        let mut w = Walker { d, values: &a.values, site: &node.site, out: &mut out };
        w.block(&node.body);
    }
    out
}

struct Walker<'a> {
    d: &'a CompiledDesign,
    values: &'a [AbsVal],
    site: &'a str,
    out: &'a mut Vec<BranchFinding>,
}

impl Walker<'_> {
    fn push(&mut self, kind: FindingKind) {
        self.out.push(BranchFinding { site: self.site.to_string(), kind });
    }

    fn block(&mut self, stmts: &[CStmt]) {
        for s in stmts {
            match s {
                CStmt::Assign { lhs, rhs } => {
                    self.expr(rhs);
                    let v = crate::flat::eval_expr::<AbsVal>(rhs, self.values);
                    let lw = self.d.signals[*lhs].width;
                    if v.width() > lw && v.hi > mask(lw) {
                        self.push(FindingKind::TruncatingAssign {
                            lhs: *lhs,
                            rhs: self.d.render_expr(rhs),
                            hi: v.hi,
                        });
                    }
                }
                CStmt::If { cond, then, elifs, els } => {
                    let mut chain: Vec<(&CExpr, &Vec<CStmt>)> = vec![(cond, then)];
                    for (c, b) in elifs {
                        chain.push((c, b));
                    }
                    let mut taken = false;
                    for (c, body) in chain {
                        if taken {
                            // A provably-true earlier condition shadows the
                            // rest of the chain; not a defect of this arm.
                            break;
                        }
                        let t = crate::flat::eval_expr::<AbsVal>(c, self.values).truth();
                        if t == Truth::False {
                            self.push(FindingKind::DeadBranch { cond: self.d.render_expr(c) });
                            continue;
                        }
                        self.expr(c);
                        self.block(body);
                        taken = t == Truth::True;
                    }
                    if let (Some(e), false) = (els, taken) {
                        self.block(e);
                    }
                }
                CStmt::Case { expr, arms, default } => {
                    self.expr(expr);
                    let sel = crate::flat::eval_expr::<AbsVal>(expr, self.values);
                    let m = mask(sel.width());
                    let mut any_live_arm = false;
                    for (v, body) in arms {
                        if sel.may_be(*v & m) {
                            any_live_arm = true;
                            self.block(body);
                        } else {
                            self.push(FindingKind::DeadArm {
                                sel: self.d.render_expr(expr),
                                value: *v,
                            });
                        }
                    }
                    // The default is walked unless the selector is a known
                    // constant matching an explicit arm; it is never
                    // *reported* dead (defensive defaults are idiomatic).
                    let const_hits_arm = sel
                        .as_const()
                        .map(|c| arms.iter().any(|(v, _)| *v & m == c))
                        .unwrap_or(false);
                    if let (Some(dft), false) = (default, const_hits_arm && any_live_arm) {
                        self.block(dft);
                    }
                }
            }
        }
    }

    /// Scan an expression tree for comparisons with constant outcomes.
    fn expr(&mut self, e: &CExpr) {
        match e {
            CExpr::Sig(_) | CExpr::Lit(_) => {}
            CExpr::Bin { op, lhs, rhs } => {
                self.expr(lhs);
                self.expr(rhs);
                if matches!(op, BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Ge) {
                    // Comparisons between literals are spelled constant on
                    // purpose; only flag ones that read a signal.
                    let reads_signal = expr_reads_signal(lhs) || expr_reads_signal(rhs);
                    let v = crate::flat::eval_expr::<AbsVal>(e, self.values);
                    if let (Some(c), true) = (v.as_const(), reads_signal) {
                        self.push(FindingKind::ConstCompare {
                            expr: self.d.render_expr(e),
                            value: c != 0,
                        });
                    }
                }
            }
            CExpr::Not(inner) => self.expr(inner),
            CExpr::Slice { base, .. } => self.expr(base),
            CExpr::Concat(parts) => {
                for p in parts {
                    self.expr(p);
                }
            }
        }
    }
}

fn expr_reads_signal(e: &CExpr) -> bool {
    match e {
        CExpr::Sig(_) => true,
        CExpr::Lit(_) => false,
        CExpr::Bin { lhs, rhs, .. } => expr_reads_signal(lhs) || expr_reads_signal(rhs),
        CExpr::Not(inner) => expr_reads_signal(inner),
        CExpr::Slice { base, .. } => expr_reads_signal(base),
        CExpr::Concat(parts) => parts.iter().any(expr_reads_signal),
    }
}

/// Structural per-signal assignment profile, for the rules that need the
/// shape of the drivers rather than abstract values (SL0501's tie-off
/// exemption, SL0507's self-assignment check).
#[derive(Debug, Clone, Default)]
pub struct AssignProfile {
    /// Number of assignments targeting the signal.
    pub assigns: usize,
    /// Every assignment is exactly `s <= s`.
    pub self_only: bool,
    /// Some assignment's RHS reads a non-constant signal.
    pub rhs_reads_nonconst: bool,
}

/// Collect [`AssignProfile`]s for every signal across all nodes.
pub fn assign_profiles(d: &CompiledDesign) -> Vec<AssignProfile> {
    let mut profiles =
        vec![AssignProfile { self_only: true, ..Default::default() }; d.signals.len()];
    fn scan(d: &CompiledDesign, stmts: &[CStmt], profiles: &mut [AssignProfile]) {
        for s in stmts {
            match s {
                CStmt::Assign { lhs, rhs } => {
                    let p = &mut profiles[*lhs];
                    p.assigns += 1;
                    p.self_only &= matches!(rhs, CExpr::Sig(id) if id == lhs);
                    p.rhs_reads_nonconst |= reads_nonconst(d, rhs);
                }
                CStmt::If { then, elifs, els, .. } => {
                    scan(d, then, profiles);
                    for (_, b) in elifs {
                        scan(d, b, profiles);
                    }
                    if let Some(e) = els {
                        scan(d, e, profiles);
                    }
                }
                CStmt::Case { arms, default, .. } => {
                    for (_, b) in arms {
                        scan(d, b, profiles);
                    }
                    if let Some(dft) = default {
                        scan(d, dft, profiles);
                    }
                }
            }
        }
    }
    fn reads_nonconst(d: &CompiledDesign, e: &CExpr) -> bool {
        match e {
            CExpr::Sig(id) => !matches!(d.signals[*id].kind, Kind::Const(_)),
            CExpr::Lit(_) => false,
            CExpr::Bin { lhs, rhs, .. } => reads_nonconst(d, lhs) || reads_nonconst(d, rhs),
            CExpr::Not(inner) => reads_nonconst(d, inner),
            CExpr::Slice { base, .. } => reads_nonconst(d, base),
            CExpr::Concat(parts) => parts.iter().any(|p| reads_nonconst(d, p)),
        }
    }
    for node in d.clocked.iter().chain(&d.comb_order) {
        scan(d, &node.body, &mut profiles);
    }
    profiles
}

/// Find the reset input slot by port name (`RST`), the convention every
/// generated module follows.
pub fn reset_slot(d: &CompiledDesign) -> Option<usize> {
    d.inputs.iter().position(|&id| d.signals[id].name == "RST")
}

#[cfg(test)]
mod tests {
    use super::*;
    use splice_hdl::{Decl, Expr, Item, Module, Port, Process, Stmt};

    /// A 3-state FSM: IDLE -> RUN -> DONE -> IDLE, with a `busy` flag.
    fn fsm() -> Module {
        fsm_cleared_by("RST")
    }

    /// The same FSM with its synchronous clear on input `clear`; any name
    /// but `RST` hides it from the engine's reset protocol.
    fn fsm_cleared_by(clear: &str) -> Module {
        let mut m = Module::new("fsm");
        m.ports = vec![
            Port::input("CLK", 1),
            Port::input(clear, 1),
            Port::input("GO", 1),
            Port::output("BUSY", 1),
        ];
        m.decls = vec![Decl::Signal { name: "st".into(), width: 2, init: None }];
        m.items.push(Item::Process(Process {
            label: "ctl".into(),
            clocked: true,
            body: vec![Stmt::if_else(
                Expr::sig(clear),
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

    fn analyze_fsm() -> (CompiledDesign, Analysis) {
        let m = fsm();
        let d = CompiledDesign::compile(std::slice::from_ref(&m), "fsm").unwrap();
        let a = analyze(&d);
        (d, a)
    }

    #[test]
    fn fsm_state_stays_in_range_and_untainted() {
        let (d, a) = analyze_fsm();
        assert!(a.converged);
        let slot = d.registers.iter().position(|&id| d.signals[id].name == "st").unwrap();
        let st = &a.regs[slot];
        assert!(!st.is_tainted(), "reset initializes the state register");
        assert_eq!((st.lo, st.hi), (0, 2), "state 3 is unreachable");
    }

    #[test]
    fn unreachable_case_arm_is_found() {
        let mut m = fsm();
        // Add an arm for state 3, which the FSM never enters.
        let Item::Process(p) = &mut m.items[0] else { panic!() };
        let Stmt::If { els: Some(els), .. } = &mut p.body[0] else { panic!() };
        let Stmt::Case { arms, .. } = &mut els[0] else { panic!() };
        arms.push((3, vec![Stmt::assign("st", Expr::lit(1, 2))]));
        let d = CompiledDesign::compile(std::slice::from_ref(&m), "fsm").unwrap();
        let a = analyze(&d);
        let findings = branch_findings(&d, &a);
        assert!(
            findings.iter().any(|f| f.kind == FindingKind::DeadArm { sel: "st".into(), value: 3 }),
            "expected a dead-arm finding, got {findings:?}"
        );
    }

    #[test]
    fn without_reset_register_stays_tainted() {
        let m = fsm_cleared_by("CLR");
        let d = CompiledDesign::compile(std::slice::from_ref(&m), "fsm").unwrap();
        assert_eq!(reset_slot(&d), None, "no `RST` input, so no reset phase");
        let a = analyze(&d);
        assert!(a.regs[0].is_tainted(), "no reset phase: power-on X may persist");
    }

    #[test]
    fn profiles_spot_self_assignment() {
        let mut m = Module::new("shadow");
        m.ports = vec![Port::input("CLK", 1), Port::input("RST", 1), Port::output("Q", 1)];
        m.decls = vec![Decl::Signal { name: "r".into(), width: 1, init: Some(0) }];
        m.items.push(Item::Process(Process {
            label: "hold".into(),
            clocked: true,
            body: vec![Stmt::assign("r", Expr::sig("r"))],
        }));
        m.items.push(Item::Assign { lhs: "Q".into(), rhs: Expr::sig("r") });
        let d = CompiledDesign::compile(std::slice::from_ref(&m), "shadow").unwrap();
        let p = assign_profiles(&d);
        let r = d.signal_id("r").unwrap();
        assert!(p[r].self_only && p[r].assigns == 1);
        let q = d.signal_id("Q").unwrap();
        assert!(!p[q].self_only);
    }
}
