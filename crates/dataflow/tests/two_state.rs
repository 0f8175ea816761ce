//! Randomized X audit of the two-state domain against the ternary one.
//!
//! On randomly generated clocked designs (the `soundness.rs` generator
//! extended with `case` statements, slices, and concatenations), the
//! two-state run only invents values where the ternary semantics says X.
//! Wherever the concrete [`TWord`] run has a known bit, both fill
//! universes (all-zeros and all-ones) must agree with it — so after a
//! reset phase that covers every register, the fill choice is
//! unobservable, matching the checker's 2-step RST=1 environment
//! assumption.

use splice_dataflow::engine::reset_slot;
use splice_dataflow::tv::mask;
use splice_dataflow::{two_state_eval, two_state_initial, two_state_step, CompiledDesign, TWord};
use splice_hdl::ast::Process;
use splice_hdl::{BinOp, Decl, Expr, Item, Module, Port, Stmt};
use splice_testutil::{check, Rng};

const WIDTHS: [u32; 4] = [1, 2, 4, 8];

/// A random single-clock design: registers of one width updated under
/// reset and random enable/case dispatch, with a combinational output
/// cone. Superset of the `soundness.rs` generator: data expressions may
/// slice and concatenate, and register updates may dispatch through a
/// `case` with random (possibly duplicate, possibly masked-aliasing) arm
/// values.
fn random_module(rng: &mut Rng) -> Module {
    let w = *rng.pick(&WIDTHS);
    let m_val = mask(w);
    let mut m = Module::new("rnd");
    m.ports = vec![
        Port::input("CLK", 1),
        Port::input("RST", 1),
        Port::input("A", w),
        Port::input("B", w),
        Port::output("Y", w),
    ];
    let regs = ["r0", "r1"];
    for r in regs {
        let init = if rng.bool() { Some(rng.next_u64() & m_val) } else { None };
        m.decls.push(Decl::Signal { name: r.into(), width: w, init });
    }

    fn data_expr(rng: &mut Rng, w: u32, depth: u32) -> Expr {
        if depth == 0 || rng.range(0, 3) == 0 {
            return match rng.range(0, 4) {
                0 => Expr::sig("A"),
                1 => Expr::sig("B"),
                2 => Expr::sig(if rng.bool() { "r0" } else { "r1" }),
                _ => Expr::lit(rng.next_u64() & mask(w), w),
            };
        }
        let lhs = data_expr(rng, w, depth - 1);
        match rng.range(0, 7) {
            0 => lhs.add(data_expr(rng, w, depth - 1)),
            1 => Expr::Bin {
                op: BinOp::Sub,
                lhs: Box::new(lhs),
                rhs: Box::new(data_expr(rng, w, depth - 1)),
            },
            2 => lhs.and(data_expr(rng, w, depth - 1)),
            3 => lhs.or(data_expr(rng, w, depth - 1)),
            4 => lhs.not(),
            5 => {
                let hi = rng.range(0, w as u64) as u32;
                let lo = rng.range(0, hi as u64 + 1) as u32;
                Expr::Slice { base: Box::new(lhs), hi, lo }
            }
            _ => Expr::Concat(vec![lhs, data_expr(rng, w, depth - 1)]),
        }
    }
    fn cond_expr(rng: &mut Rng, w: u32) -> Expr {
        let lhs = data_expr(rng, w, 1);
        let rhs = data_expr(rng, w, 1);
        match rng.range(0, 4) {
            0 => lhs.eq(rhs),
            1 => lhs.ne(rhs),
            2 => Expr::Bin { op: BinOp::Lt, lhs: Box::new(lhs), rhs: Box::new(rhs) },
            _ => Expr::Bin { op: BinOp::Ge, lhs: Box::new(lhs), rhs: Box::new(rhs) },
        }
    }

    let resets: Vec<Stmt> =
        regs.iter().map(|r| Stmt::assign(*r, Expr::lit(rng.next_u64() & m_val, w))).collect();
    let updates: Vec<Stmt> = regs
        .iter()
        .map(|r| {
            let assign = Stmt::assign(*r, data_expr(rng, w, 2));
            match rng.range(0, 4) {
                0 => Stmt::if_then(cond_expr(rng, w), vec![assign]),
                1 => {
                    let arms = (0..rng.range(1, 4))
                        .map(|_| (rng.next_u64() & mask(w + 1), vec![assign.clone()]))
                        .collect();
                    let default = if rng.bool() {
                        Some(vec![Stmt::assign(*r, data_expr(rng, w, 1))])
                    } else {
                        None
                    };
                    Stmt::Case { expr: data_expr(rng, w, 1), arms, default }
                }
                _ => assign,
            }
        })
        .collect();
    m.items.push(Item::Process(Process {
        label: "upd".into(),
        clocked: true,
        body: vec![Stmt::if_else(Expr::sig("RST"), resets, updates)],
    }));
    m.items.push(Item::Assign { lhs: "Y".into(), rhs: data_expr(rng, w, 2) });
    m
}

/// Input rows matching `d.inputs` slot order: two RST=1 reset rows (the
/// checker's environment) followed by free rows with RST mostly low.
fn stimulus(rng: &mut Rng, d: &CompiledDesign, free_steps: usize) -> Vec<Vec<u64>> {
    let rst = reset_slot(d).expect("RST input exists");
    let mut rows = Vec::new();
    for _ in 0..2 {
        rows.push(
            d.inputs.iter().enumerate().map(|(s, _)| u64::from(s == rst)).collect::<Vec<_>>(),
        );
    }
    for _ in 0..free_steps {
        rows.push(
            d.inputs
                .iter()
                .enumerate()
                .map(|(s, &id)| {
                    if s == rst {
                        u64::from(rng.range(0, 8) == 0)
                    } else {
                        rng.next_u64() & mask(d.signals[id].width)
                    }
                })
                .collect(),
        );
    }
    rows
}

#[test]
fn ternary_known_bits_pin_both_fill_universes() {
    check(0x5EED_5021, 120, |rng| {
        let m = random_module(rng);
        let d = CompiledDesign::compile(std::slice::from_ref(&m), "rnd").expect("compiles");
        let rows = stimulus(rng, &d, 8);
        let (mut s0, mut s1) = (two_state_initial(&d, false), two_state_initial(&d, true));
        let mut tstate = d.initial_state();
        for (t, row) in rows.iter().enumerate() {
            let tin: Vec<TWord> = d
                .inputs
                .iter()
                .zip(row)
                .map(|(&id, &v)| TWord::known(v, d.signals[id].width))
                .collect();
            let tvals = d.eval(&tstate, &tin);
            let v0 = two_state_eval(&d, &s0, row, false);
            let v1 = two_state_eval(&d, &s1, row, true);
            for (id, tv) in tvals.iter().enumerate() {
                let known = !tv.unknown & mask(tv.width);
                let (a, b) = (v0[id], v1[id]);
                assert_eq!(
                    a & known,
                    tv.bits & known,
                    "step {t}: fill-0 broke ternary-known bits of {} ({tv:?})\nmodule: {m:?}",
                    d.signals[id].name,
                );
                assert_eq!(
                    b & known,
                    tv.bits & known,
                    "step {t}: fill-1 broke ternary-known bits of {} ({tv:?})\nmodule: {m:?}",
                    d.signals[id].name,
                );
            }
            // After the 2-step reset transient, these generated designs
            // reset every register, so X is gone and the fill choice must
            // be unobservable from here on (rows 0..2 drive RST=1).
            if t >= 2 {
                assert_eq!(
                    v0, v1,
                    "step {t}: fill universes diverged after full reset\nmodule: {m:?}"
                );
            }
            s0 = two_state_step(&d, &s0, row, false);
            s1 = two_state_step(&d, &s1, row, true);
            tstate = d.step(&tstate, &tin);
        }
    });
}
