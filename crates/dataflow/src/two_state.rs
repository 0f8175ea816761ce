//! The two-state domain: the tree-walk interpreter with every X fixed to a
//! concrete fill bit. `splice check` replays every counterexample in it.
//!
//! The model checker interprets the design over ternary
//! [`TWord`](crate::tv::TWord)s, which is the right tool for exploring
//! unknowns. Replay instead needs an honest *two-state* execution: every
//! signal is a concrete `u64` word, and the run is one concrete power-on
//! universe. [`TwoState`] is that domain, and [`two_state_initial`],
//! [`two_state_eval`] and [`two_state_step`] run the generic [`Interp`]
//! tree-walk over it, so replay shares the statement semantics of the
//! explorer and the abstract engine.
//!
//! # X handling at the two-state boundary
//!
//! Two-state execution must choose a concrete value wherever the ternary
//! interpreter would produce X. The choice is the **fill bit**: every
//! undriven signal, unresolved combinational cycle, latch-style unassigned
//! branch, and uninitialized register reads as the fill pattern (all-zeros
//! or all-ones). Wherever the ternary run has a known bit, both fill
//! universes agree with it. Registers that may still hold X in reachable
//! post-reset states (`SignalFacts::xmask`, the SL0505 condition) are the
//! ones whose two-state value is *arbitrary*: lint reports them as SL0505,
//! and counterexample replay runs both fills to tell a real X from one
//! reset masks.
//!
//! [`Interp`]: crate::flat::Interp

use crate::flat::{CompiledDesign, DomainValue, Truth};
use crate::tv::mask;
use splice_hdl::BinOp;

/// A fully known bit vector: the two-state counterpart of [`TWord`],
/// parameterized by the fill bit substituted for every X the ternary
/// domain would produce.
///
/// [`TWord`]: crate::tv::TWord
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TwoState<const FILL: bool> {
    /// The value; invariant: masked to `width`.
    pub bits: u64,
    /// Vector width in bits (1..=64).
    pub width: u32,
}

impl<const FILL: bool> DomainValue for TwoState<FILL> {
    fn lit(value: u64, width: u32) -> Self {
        TwoState { bits: value & mask(width), width }
    }
    fn undriven(width: u32) -> Self {
        TwoState { bits: if FILL { mask(width) } else { 0 }, width }
    }
    fn width(&self) -> u32 {
        self.width
    }
    fn resize(&self, width: u32) -> Self {
        TwoState { bits: self.bits & mask(width), width }
    }
    // Width rules mirror `TWord` exactly on known operands: bitwise ops and
    // arithmetic widen to the larger operand (zero-extension is implicit in
    // the masked representation), comparisons are 1-bit.
    fn binop(op: BinOp, lhs: &Self, rhs: &Self) -> Self {
        let w = lhs.width.max(rhs.width);
        match op {
            BinOp::Eq => Self::lit((lhs.bits == rhs.bits) as u64, 1),
            BinOp::Ne => Self::lit((lhs.bits != rhs.bits) as u64, 1),
            BinOp::Add => Self::lit(lhs.bits.wrapping_add(rhs.bits), w),
            BinOp::Sub => Self::lit(lhs.bits.wrapping_sub(rhs.bits), w),
            BinOp::And => TwoState { bits: lhs.bits & rhs.bits, width: w },
            BinOp::Or => TwoState { bits: lhs.bits | rhs.bits, width: w },
            BinOp::Lt => Self::lit((lhs.bits < rhs.bits) as u64, 1),
            BinOp::Ge => Self::lit((lhs.bits >= rhs.bits) as u64, 1),
        }
    }
    fn not(&self) -> Self {
        TwoState { bits: !self.bits & mask(self.width), width: self.width }
    }
    fn slice(&self, hi: u32, lo: u32) -> Self {
        let w = hi.saturating_sub(lo) + 1;
        TwoState { bits: (self.bits >> lo) & mask(w), width: w }
    }
    fn concat(&self, low: &Self) -> Self {
        TwoState { bits: (self.bits << low.width) | low.bits, width: self.width + low.width }
    }
    fn join(&self, other: &Self) -> Self {
        // `truth` never answers Unknown and `value` always pins a word, so
        // the interpreter never reaches a branch join in this domain.
        debug_assert_eq!(self, other, "two-state execution cannot fork");
        *self
    }
    fn truth(&self) -> Truth {
        if self.bits != 0 {
            Truth::True
        } else {
            Truth::False
        }
    }
    fn value(&self) -> Option<u64> {
        Some(self.bits)
    }
    fn may_equal(&self, v: u64) -> bool {
        self.bits == v & mask(self.width)
    }
}

/// The power-on register state in the two-state domain: declared init
/// values, the fill pattern otherwise (parallel to
/// [`CompiledDesign::registers`]).
pub fn two_state_initial(d: &CompiledDesign, fill: bool) -> Vec<u64> {
    d.registers
        .iter()
        .map(|&id| {
            let s = &d.signals[id];
            match s.init {
                Some(v) => v & mask(s.width),
                None if fill => mask(s.width),
                None => 0,
            }
        })
        .collect()
}

fn with_domain<const FILL: bool>(
    d: &CompiledDesign,
    state: &[u64],
    inputs: &[u64],
    step: bool,
) -> Vec<u64> {
    let st: Vec<TwoState<FILL>> = d
        .registers
        .iter()
        .zip(state)
        .map(|(&id, &v)| TwoState::lit(v, d.signals[id].width))
        .collect();
    let ins: Vec<TwoState<FILL>> = d
        .inputs
        .iter()
        .zip(inputs)
        .map(|(&id, &v)| TwoState::lit(v, d.signals[id].width))
        .collect();
    let out = if step { d.step_values(&st, &ins) } else { d.eval_values(&st, &ins) };
    out.into_iter().map(|v| v.bits).collect()
}

/// [`CompiledDesign::eval`] in the two-state domain: the settled value of
/// every signal (indexed by signal id), with X replaced by `fill`.
pub fn two_state_eval(d: &CompiledDesign, state: &[u64], inputs: &[u64], fill: bool) -> Vec<u64> {
    if fill {
        with_domain::<true>(d, state, inputs, false)
    } else {
        with_domain::<false>(d, state, inputs, false)
    }
}

/// [`CompiledDesign::step`] in the two-state domain: the next register
/// state (parallel to [`CompiledDesign::registers`]).
pub fn two_state_step(d: &CompiledDesign, state: &[u64], inputs: &[u64], fill: bool) -> Vec<u64> {
    if fill {
        with_domain::<true>(d, state, inputs, true)
    } else {
        with_domain::<false>(d, state, inputs, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splice_hdl::{Decl, Expr, Item, Module, Port, Process, Stmt};

    /// The flat.rs counter fixture: a 2-bit counter with enable and a comb
    /// `is_max` flag.
    fn counter_module(with_init: bool) -> Module {
        let mut m = Module::new("ctr");
        m.ports = vec![
            Port::input("CLK", 1),
            Port::input("RST", 1),
            Port::input("EN", 1),
            Port::output("IS_MAX", 1),
        ];
        m.decls = vec![Decl::Signal {
            name: "count".into(),
            width: 2,
            init: if with_init { Some(0) } else { None },
        }];
        m.items.push(Item::Process(Process {
            label: "tick".into(),
            clocked: true,
            body: vec![Stmt::if_else(
                Expr::sig("RST"),
                vec![Stmt::assign("count", Expr::lit(0, 2))],
                vec![Stmt::if_then(
                    Expr::sig("EN"),
                    vec![Stmt::assign("count", Expr::sig("count").add(Expr::lit(1, 2)))],
                )],
            )],
        }));
        m.items.push(Item::Assign {
            lhs: "IS_MAX".into(),
            rhs: Expr::sig("count").eq(Expr::lit(3, 2)),
        });
        m
    }

    fn input_rows(d: &CompiledDesign, script: &[&[(&str, u64)]]) -> Vec<Vec<u64>> {
        script
            .iter()
            .map(|pairs| {
                d.inputs
                    .iter()
                    .map(|&id| {
                        let n = &d.signals[id].name;
                        pairs.iter().find(|(p, _)| p == n).map(|(_, v)| *v).unwrap_or(0)
                    })
                    .collect()
            })
            .collect()
    }

    /// Drive `top` from power-on through `rows` in the `fill` universe.
    /// Returns the settled signals before each row's clock edge.
    fn run(
        modules: &[Module],
        top: &str,
        rows: &[Vec<u64>],
        fill: bool,
    ) -> (CompiledDesign, Vec<Vec<u64>>) {
        let d = CompiledDesign::compile(modules, top).expect("compiles");
        let mut state = two_state_initial(&d, fill);
        let mut history = Vec::new();
        for row in rows {
            history.push(two_state_eval(&d, &state, row, fill));
            state = two_state_step(&d, &state, row, fill);
        }
        (d, history)
    }

    #[test]
    fn counter_counts_to_three_and_holds() {
        let m = counter_module(true);
        let d = CompiledDesign::compile(std::slice::from_ref(&m), "ctr").unwrap();
        let rows = input_rows(
            &d,
            &[
                &[("RST", 1)],
                &[("RST", 1)],
                &[("EN", 1)],
                &[("EN", 1)],
                &[("EN", 1)],
                &[],
                &[("EN", 1)],
            ],
        );
        for fill in [false, true] {
            let (d, h) = run(std::slice::from_ref(&m), "ctr", &rows, fill);
            let count = d.signal_id("count").unwrap();
            let is_max = d.signal_id("IS_MAX").unwrap();
            // Initialized register: both fill universes agree everywhere.
            assert_eq!(h[2][count], 0, "after reset");
            assert_eq!(h[5][count], 3, "three enables counted");
            assert_eq!(h[5][is_max], 1);
            assert_eq!(h[6][count], 3, "EN low holds");
        }
    }

    #[test]
    fn uninitialized_register_powers_on_as_the_fill_pattern() {
        let m = counter_module(false);
        let d = CompiledDesign::compile(std::slice::from_ref(&m), "ctr").unwrap();
        let rows = input_rows(&d, &[&[("EN", 1)], &[("EN", 1)], &[("RST", 1)], &[("EN", 1)]]);
        // fill = 0: counts from 0. fill = 1: counts from 3 and wraps. Both
        // are honest executions of one concrete power-on universe, and the
        // reset makes them converge.
        let (d0, h0) = run(std::slice::from_ref(&m), "ctr", &rows, false);
        let count = d0.signal_id("count").unwrap();
        assert_eq!(h0[0][count], 0);
        assert_eq!(h0[1][count], 1);
        let (_, h1) = run(std::slice::from_ref(&m), "ctr", &rows, true);
        assert_eq!(h1[0][count], 3);
        assert_eq!(h1[1][count], 0, "wraps in-width");
        assert_eq!(h0[3][count], h1[3][count], "reset converges the universes");
    }

    #[test]
    fn case_is_first_match_wins_with_masked_arms_and_fill_fallthrough() {
        let mut m = Module::new("mux");
        m.ports = vec![Port::input("CLK", 1), Port::input("SEL", 2), Port::output("O", 4)];
        m.items.push(Item::Process(Process {
            label: "mux".into(),
            clocked: false,
            body: vec![Stmt::Case {
                expr: Expr::sig("SEL"),
                arms: vec![
                    // 5 & mask(2) == 1: matches SEL = 1 first.
                    (5, vec![Stmt::assign("O", Expr::lit(5, 4))]),
                    (1, vec![Stmt::assign("O", Expr::lit(7, 4))]),
                    (2, vec![Stmt::assign("O", Expr::lit(9, 4))]),
                ],
                default: None,
            }],
        }));
        let d = CompiledDesign::compile(std::slice::from_ref(&m), "mux").unwrap();
        let rows = input_rows(&d, &[&[("SEL", 1)], &[("SEL", 2)], &[("SEL", 0)], &[("SEL", 3)]]);
        for (fill, miss) in [(false, 0u64), (true, 0xF)] {
            let (d, h) = run(std::slice::from_ref(&m), "mux", &rows, fill);
            let o = d.signal_id("O").unwrap();
            assert_eq!(h[0][o], 5, "first matching arm wins");
            assert_eq!(h[1][o], 9);
            assert_eq!(h[2][o], miss, "no arm, no default: unassigned comb = fill");
            assert_eq!(h[3][o], miss);
        }
    }

    #[test]
    fn if_elif_chains_and_defaulted_case_select_correctly() {
        let mut m = Module::new("sel");
        m.ports = vec![Port::input("CLK", 1), Port::input("S", 2), Port::output("O", 4)];
        m.items.push(Item::Process(Process {
            label: "pick".into(),
            clocked: false,
            body: vec![Stmt::If {
                cond: Expr::sig("S").eq(Expr::lit(0, 2)),
                then: vec![Stmt::assign("O", Expr::lit(1, 4))],
                elifs: vec![
                    (Expr::sig("S").eq(Expr::lit(1, 2)), vec![Stmt::assign("O", Expr::lit(2, 4))]),
                    (Expr::sig("S").eq(Expr::lit(2, 2)), vec![Stmt::assign("O", Expr::lit(3, 4))]),
                ],
                els: Some(vec![Stmt::assign("O", Expr::lit(4, 4))]),
            }],
        }));
        let d = CompiledDesign::compile(std::slice::from_ref(&m), "sel").unwrap();
        let rows = input_rows(&d, &[&[("S", 0)], &[("S", 1)], &[("S", 2)], &[("S", 3)]]);
        for fill in [false, true] {
            let (d, h) = run(std::slice::from_ref(&m), "sel", &rows, fill);
            let o = d.signal_id("O").unwrap();
            let got: Vec<u64> = h.iter().map(|row| row[o]).collect();
            assert_eq!(got, [1, 2, 3, 4]);
        }
    }

    #[test]
    fn slices_concats_and_every_binop_evaluate_concretely() {
        let mut m = Module::new("ops");
        m.ports = vec![
            Port::input("CLK", 1),
            Port::input("A", 8),
            Port::input("B", 8),
            Port::output("SWAP", 8),
            Port::output("NOTA", 8),
            Port::output("DIFF", 8),
            Port::output("LT", 1),
            Port::output("GE", 1),
            Port::output("NE", 1),
            Port::output("ORV", 8),
        ];
        m.items.push(Item::Assign {
            lhs: "SWAP".into(),
            rhs: Expr::Concat(vec![
                Expr::Slice { base: Box::new(Expr::sig("A")), hi: 3, lo: 0 },
                Expr::Slice { base: Box::new(Expr::sig("A")), hi: 7, lo: 4 },
            ]),
        });
        m.items.push(Item::Assign { lhs: "NOTA".into(), rhs: Expr::sig("A").not() });
        m.items.push(Item::Assign {
            lhs: "DIFF".into(),
            rhs: Expr::Bin {
                op: BinOp::Sub,
                lhs: Box::new(Expr::sig("A")),
                rhs: Box::new(Expr::sig("B")),
            },
        });
        m.items.push(Item::Assign {
            lhs: "LT".into(),
            rhs: Expr::Bin {
                op: BinOp::Lt,
                lhs: Box::new(Expr::sig("A")),
                rhs: Box::new(Expr::sig("B")),
            },
        });
        m.items.push(Item::Assign {
            lhs: "GE".into(),
            rhs: Expr::Bin {
                op: BinOp::Ge,
                lhs: Box::new(Expr::sig("A")),
                rhs: Box::new(Expr::sig("B")),
            },
        });
        m.items.push(Item::Assign { lhs: "NE".into(), rhs: Expr::sig("A").ne(Expr::sig("B")) });
        m.items.push(Item::Assign { lhs: "ORV".into(), rhs: Expr::sig("A").or(Expr::sig("B")) });
        let d = CompiledDesign::compile(std::slice::from_ref(&m), "ops").unwrap();
        let rows = input_rows(
            &d,
            &[
                &[("A", 0xA5), ("B", 0x0F)],
                &[("A", 0x01), ("B", 0xFF)],
                &[("A", 0x80), ("B", 0x80)],
                &[("A", 0x00), ("B", 0x00)],
            ],
        );
        for fill in [false, true] {
            let (d, h) = run(std::slice::from_ref(&m), "ops", &rows, fill);
            let sig = |n: &str| d.signal_id(n).unwrap();
            assert_eq!(h[0][sig("SWAP")], 0x5A);
            assert_eq!(h[0][sig("NOTA")], 0x5A);
            assert_eq!(h[1][sig("DIFF")], 0x02, "wrapping subtraction");
            assert_eq!(h[1][sig("LT")], 1);
            assert_eq!(h[2][sig("GE")], 1);
            assert_eq!(h[2][sig("NE")], 0);
            assert_eq!(h[0][sig("ORV")], 0xAF);
        }
    }

    #[test]
    fn nonblocking_register_swap_commits_pre_edge_values() {
        let mut m = Module::new("swap");
        m.ports = vec![Port::input("CLK", 1), Port::output("YA", 4), Port::output("YB", 4)];
        m.decls = vec![
            Decl::Signal { name: "a".into(), width: 4, init: Some(1) },
            Decl::Signal { name: "b".into(), width: 4, init: Some(2) },
        ];
        m.items.push(Item::Process(Process {
            label: "xch".into(),
            clocked: true,
            body: vec![Stmt::assign("a", Expr::sig("b")), Stmt::assign("b", Expr::sig("a"))],
        }));
        m.items.push(Item::Assign { lhs: "YA".into(), rhs: Expr::sig("a") });
        m.items.push(Item::Assign { lhs: "YB".into(), rhs: Expr::sig("b") });
        let rows = vec![vec![0u64], vec![0], vec![0]];
        for fill in [false, true] {
            let (d, h) = run(std::slice::from_ref(&m), "swap", &rows, fill);
            let (ya, yb) = (d.signal_id("YA").unwrap(), d.signal_id("YB").unwrap());
            assert_eq!((h[0][ya], h[0][yb]), (1, 2), "pre-edge values");
            assert_eq!((h[1][ya], h[1][yb]), (2, 1), "swapped, not shifted");
            assert_eq!((h[2][ya], h[2][yb]), (1, 2), "swaps back");
        }
    }

    #[test]
    fn comb_cycles_read_as_the_fill_pattern() {
        let mut m = Module::new("loopy");
        m.ports = vec![Port::input("CLK", 1), Port::output("O", 1)];
        m.decls = vec![
            Decl::Signal { name: "a".into(), width: 1, init: None },
            Decl::Signal { name: "b".into(), width: 1, init: None },
        ];
        m.items.push(Item::Assign { lhs: "a".into(), rhs: Expr::sig("b") });
        m.items.push(Item::Assign { lhs: "b".into(), rhs: Expr::sig("a") });
        m.items.push(Item::Assign { lhs: "O".into(), rhs: Expr::lit(1, 1) });
        let rows = vec![vec![0u64], vec![0]];
        for (fill, pat) in [(false, 0u64), (true, 1)] {
            let (d, h) = run(std::slice::from_ref(&m), "loopy", &rows, fill);
            assert_eq!(h[0][d.signal_id("a").unwrap()], pat, "cycle pinned to fill");
            assert_eq!(h[0][d.signal_id("O").unwrap()], 1);
        }
    }

    #[test]
    fn wide_words_mask_at_the_full_64_bit_width() {
        let mut m = Module::new("wide");
        m.ports = vec![Port::input("CLK", 1), Port::input("A", 64), Port::output("Y", 64)];
        m.items.push(Item::Assign { lhs: "Y".into(), rhs: Expr::sig("A").add(Expr::lit(1, 64)) });
        let d = CompiledDesign::compile(std::slice::from_ref(&m), "wide").unwrap();
        let rows = input_rows(&d, &[&[("A", u64::MAX)], &[("A", 41)]]);
        for fill in [false, true] {
            let (d, h) = run(std::slice::from_ref(&m), "wide", &rows, fill);
            let y = d.signal_id("Y").unwrap();
            assert_eq!(h[0][y], 0, "wraps at 64 bits");
            assert_eq!(h[1][y], 42);
        }
    }
}
