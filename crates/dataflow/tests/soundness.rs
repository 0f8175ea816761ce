//! Randomized soundness of the abstract domain against the concrete
//! ternary domain.
//!
//! Three layers of the contract from `domain.rs` are pinned here:
//!
//! 1. **Lattice laws**: `join` is commutative, idempotent, and an upper
//!    bound — joining never loses a concretization.
//! 2. **Operator soundness**: for every operator the abstract result
//!    contains the concrete [`TWord`] result whenever the abstract
//!    operands contain the concrete ones.
//! 3. **Whole-analysis soundness**: on randomly generated clocked designs,
//!    every register state and settled signal value reached by concrete
//!    execution after the reset protocol is contained in the fixpoint's
//!    post-reset joins. One generator resets every register; the other
//!    writes shared registers from several processes and leaves X behind
//!    reset, so concrete runs branch on X too.
//!
//! Abstract/concrete sample pairs are built only from constructors whose
//! containment is immediate (known points, `top`, `undriven`) and grown
//! with `join`, so the sampler never assumes the soundness being tested.

use splice_dataflow::engine::reset_slot;
use splice_dataflow::flat::DomainValue;
use splice_dataflow::tv::mask;
use splice_dataflow::{analyze, AbsVal, CompiledDesign, TWord};
use splice_hdl::ast::Process;
use splice_hdl::{BinOp, Decl, Expr, Item, Module, Port, Stmt};
use splice_testutil::{check, Rng};

const WIDTHS: [u32; 4] = [1, 2, 4, 8];

/// A random abstract value paired with a concrete ternary word it
/// contains.
fn sample_pair(rng: &mut Rng, width: u32) -> (AbsVal, TWord) {
    let m = mask(width);
    let (mut a, t) = match rng.range(0, 3) {
        0 => {
            let v = rng.next_u64() & m;
            (AbsVal::known(v, width), TWord::known(v, width))
        }
        1 => (AbsVal::top(width), TWord::known(rng.next_u64() & m, width)),
        _ => {
            // Undriven contains any ternary word of the width.
            let unknown = rng.next_u64() & m;
            let bits = rng.next_u64() & m & !unknown;
            (AbsVal::undriven(width), TWord { bits, unknown, width })
        }
    };
    for _ in 0..rng.range(0, 3) {
        a = a.join(&AbsVal::known(rng.next_u64() & m, width));
    }
    debug_assert!(a.contains(&t));
    (a, t)
}

#[test]
fn join_is_commutative_idempotent_and_an_upper_bound() {
    check(0x5EED_5011, 2000, |rng| {
        let w = *rng.pick(&WIDTHS);
        let (a, ta) = sample_pair(rng, w);
        let (b, tb) = sample_pair(rng, w);
        assert_eq!(a.join(&b), b.join(&a), "join commutes: {a:?} {b:?}");
        assert_eq!(a.join(&a), a, "join is idempotent: {a:?}");
        let j = a.join(&b);
        assert!(j.contains(&ta), "join lost {ta:?} from {a:?}: {j:?}");
        assert!(j.contains(&tb), "join lost {tb:?} from {b:?}: {j:?}");
    });
}

#[test]
fn every_operator_over_approximates_the_concrete_one() {
    const OPS: [BinOp; 8] =
        [BinOp::Eq, BinOp::Ne, BinOp::Add, BinOp::Sub, BinOp::And, BinOp::Or, BinOp::Lt, BinOp::Ge];
    check(0x5EED_5012, 4000, |rng| {
        let w = *rng.pick(&WIDTHS);
        let (a, ta) = sample_pair(rng, w);
        let (b, tb) = sample_pair(rng, w);
        let op = *rng.pick(&OPS);
        let abs = DomainValue::binop(op, &a, &b);
        let conc = TWord::binop(op, &ta, &tb);
        assert!(
            abs.contains(&conc),
            "{op:?}({a:?}, {b:?}) = {abs:?} lost {op:?}({ta:?}, {tb:?}) = {conc:?}"
        );

        let (n_abs, n_conc) = (a.not(), ta.not());
        assert!(n_abs.contains(&n_conc), "not({a:?}) = {n_abs:?} lost not({ta:?}) = {n_conc:?}");

        let hi = rng.range(0, w as u64) as u32;
        let lo = rng.range(0, hi as u64 + 1) as u32;
        let (s_abs, s_conc) = (a.slice(hi, lo), ta.slice(hi, lo));
        assert!(s_abs.contains(&s_conc), "slice[{hi}:{lo}] of {a:?} lost {s_conc:?}: {s_abs:?}");

        let (c_abs, c_conc) = (a.concat(&b), ta.concat(&tb));
        assert!(c_abs.contains(&c_conc), "concat({a:?}, {b:?}) lost {c_conc:?}: {c_abs:?}");

        let rw = *rng.pick(&WIDTHS);
        let (r_abs, r_conc) = (a.resize(rw), ta.resize(rw));
        assert!(r_abs.contains(&r_conc), "resize({a:?}, {rw}) lost {r_conc:?}: {r_abs:?}");

        // Truth agrees: a decided abstract condition must decide the same
        // way for every contained concrete word.
        use splice_dataflow::flat::Truth;
        match DomainValue::truth(&abs) {
            Truth::True => {
                assert_eq!(DomainValue::truth(&conc), Truth::True, "{abs:?} vs {conc:?}")
            }
            Truth::False => {
                assert_eq!(DomainValue::truth(&conc), Truth::False, "{abs:?} vs {conc:?}")
            }
            Truth::Unknown => {}
        }
    });
}

#[test]
fn widening_chains_terminate_quickly() {
    check(0x5EED_5013, 500, |rng| {
        let w = *rng.pick(&WIDTHS);
        let (mut v, _) = sample_pair(rng, w);
        // Keep feeding random growth through widen; each component of the
        // product lattice has height O(width), so a short bound suffices.
        let bound = 4 * w + 8;
        let mut steps = 0;
        loop {
            let (next, _) = sample_pair(rng, w);
            let widened = v.widen(&v.join(&next));
            if widened == v {
                break;
            }
            v = widened;
            steps += 1;
            assert!(steps <= bound, "widening chain still growing after {steps} steps: {v:?}");
        }
    });
}

/// A random single-clock design: registers of one width updated under
/// reset and random enable conditions, with a combinational output cone.
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

    // A random width-`w` data expression over inputs, registers and
    // literals.
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
        match rng.range(0, 5) {
            0 => lhs.add(data_expr(rng, w, depth - 1)),
            1 => Expr::Bin {
                op: BinOp::Sub,
                lhs: Box::new(lhs),
                rhs: Box::new(data_expr(rng, w, depth - 1)),
            },
            2 => lhs.and(data_expr(rng, w, depth - 1)),
            3 => lhs.or(data_expr(rng, w, depth - 1)),
            _ => lhs.not(),
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
            if rng.bool() {
                Stmt::if_then(cond_expr(rng, w), vec![assign])
            } else {
                assign
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

#[test]
fn analysis_contains_every_concrete_run() {
    check(0x5EED_5014, 150, |rng| {
        let m = random_module(rng);
        assert_analysis_contains_concrete_runs(&m, rng);
    });
}

/// The analysis models the checker's environment (`explore`): two reset
/// cycles — RST high, other inputs low — from power-on, then free inputs.
/// Assert that its post-reset joins cover every register state and
/// settled value of a concrete run with random inputs after the reset
/// transient.
fn assert_analysis_contains_concrete_runs(m: &Module, rng: &mut Rng) {
    let d = CompiledDesign::compile(std::slice::from_ref(m), &m.name).expect("compiles");
    let slot = reset_slot(&d).expect("RST input exists");
    let a = analyze(&d);

    let contained = |state: &[TWord], vals: &[TWord]| {
        for (i, t) in state.iter().enumerate() {
            assert!(
                a.regs[i].contains(t),
                "post-reset: register {} escaped: {t:?} not in {:?}\nmodule: {m:?}",
                d.signals[d.registers[i]].name,
                a.regs[i],
            );
        }
        for (id, t) in vals.iter().enumerate() {
            assert!(
                a.values[id].contains(t),
                "post-reset: signal {} escaped: {t:?} not in {:?}\nmodule: {m:?}",
                d.signals[id].name,
                a.values[id],
            );
        }
    };

    let random_inputs = |rng: &mut Rng, reset: bool| -> Vec<TWord> {
        d.inputs
            .iter()
            .enumerate()
            .map(|(s, &id)| {
                let w = d.signals[id].width;
                if reset {
                    TWord::known(u64::from(s == slot), w)
                } else {
                    TWord::known(rng.next_u64() & mask(w), w)
                }
            })
            .collect()
    };

    let mut state = d.initial_state();
    for _ in 0..2 {
        state = d.step(&state, &random_inputs(rng, true));
    }
    for _ in 0..8 {
        let inputs = random_inputs(rng, false);
        contained(&state, &d.eval(&state, &inputs));
        state = d.step(&state, &inputs);
    }
}

/// Registers every clocked process of [`multi_writer_module`] may write.
const SHARED: [&str; 3] = ["r0", "r1", "r2"];

/// A random design in which 2–4 clocked processes write the registers of
/// [`SHARED`] under `if`s and `case`s whose conditions may be unknown:
/// free inputs, registers power-on left X, and the net `c`, which the one
/// combinational process, branching the same way, leaves X on the paths
/// that skip it.
fn multi_writer_module(rng: &mut Rng) -> Module {
    let w = *rng.pick(&WIDTHS);
    let mut m = Module::new("mw");
    m.ports = vec![
        Port::input("CLK", 1),
        Port::input("RST", 1),
        Port::input("EN", 1),
        Port::input("S", 2),
        Port::input("A", w),
        Port::input("B", w),
        Port::output("Y", w),
    ];
    for r in SHARED {
        let init = if rng.bool() { Some(rng.next_u64() & mask(w)) } else { None };
        m.decls.push(Decl::Signal { name: r.into(), width: w, init });
    }
    m.decls.push(Decl::Signal { name: "c".into(), width: w, init: None });
    for k in 0..rng.range(2, 5) {
        let mut resets = Vec::new();
        for r in SHARED {
            if rng.bool() {
                resets.push(Stmt::assign(r, Expr::lit(rng.next_u64() & mask(w), w)));
            }
        }
        let updates = forking_block(rng, w, &SHARED, 2);
        m.items.push(Item::Process(Process {
            label: format!("p{k}"),
            clocked: true,
            body: vec![Stmt::if_else(Expr::sig("RST"), resets, updates)],
        }));
    }
    m.items.push(Item::Process(Process {
        label: "mix".into(),
        clocked: false,
        body: forking_block(rng, w, &["Y", "c"], 2),
    }));
    m
}

/// One to three statements assigning `targets`, nested `depth` deep in
/// `if`/`elsif`/`else` chains and `case`s, some without a default.
/// Combinational targets read no net, so the result has no loop.
fn forking_block(rng: &mut Rng, w: u32, targets: &[&str], depth: u32) -> Vec<Stmt> {
    let comb = !targets.contains(&SHARED[0]);
    let mut block = Vec::new();
    for _ in 0..rng.range(1, 4) {
        let stmt = match if depth == 0 { 0 } else { rng.range(0, 5) } {
            0 | 1 => Stmt::assign(*rng.pick(targets), operand_expr(rng, w, 2, comb)),
            2 | 3 => {
                let cond = fork_cond(rng, w, comb);
                let then = forking_block(rng, w, targets, depth - 1);
                let mut elifs = Vec::new();
                if rng.range(0, 3) == 0 {
                    elifs
                        .push((fork_cond(rng, w, comb), forking_block(rng, w, targets, depth - 1)));
                }
                let els = rng.bool().then(|| forking_block(rng, w, targets, depth - 1));
                Stmt::If { cond, then, elifs, els }
            }
            _ => {
                // A 2-bit selector: the free `S`, or the low bits of a
                // register, X until it is first written.
                let expr = if w >= 2 && rng.bool() {
                    Expr::Slice { base: Box::new(Expr::sig(*rng.pick(&SHARED))), hi: 1, lo: 0 }
                } else {
                    Expr::sig("S")
                };
                let mut arms = Vec::new();
                for v in 0..4 {
                    if rng.bool() {
                        arms.push((v, forking_block(rng, w, targets, depth - 1)));
                    }
                }
                let default = rng.bool().then(|| forking_block(rng, w, targets, depth - 1));
                Stmt::Case { expr, arms, default }
            }
        };
        block.push(stmt);
    }
    block
}

/// A width-`w` expression over the inputs, the registers, literals and,
/// unless `comb`, the net `c`.
fn operand_expr(rng: &mut Rng, w: u32, depth: u32, comb: bool) -> Expr {
    if depth == 0 || rng.range(0, 3) == 0 {
        return match rng.range(0, 5) {
            0 => Expr::sig("A"),
            1 => Expr::sig("B"),
            2 => Expr::sig(*rng.pick(&SHARED)),
            3 if !comb => Expr::sig("c"),
            _ => Expr::lit(rng.next_u64() & mask(w), w),
        };
    }
    let lhs = operand_expr(rng, w, depth - 1, comb);
    let rhs = operand_expr(rng, w, depth - 1, comb);
    match rng.range(0, 4) {
        0 => lhs.add(rhs),
        1 => Expr::Bin { op: BinOp::Sub, lhs: Box::new(lhs), rhs: Box::new(rhs) },
        2 => lhs.and(rhs),
        _ => lhs.or(rhs).not(),
    }
}

/// A branch condition: the free `EN`, or a comparison of two operands.
fn fork_cond(rng: &mut Rng, w: u32, comb: bool) -> Expr {
    let (lhs, rhs) = (operand_expr(rng, w, 1, comb), operand_expr(rng, w, 1, comb));
    match rng.range(0, 5) {
        0 => lhs.eq(rhs),
        1 => lhs.ne(rhs),
        2 => Expr::Bin { op: BinOp::Lt, lhs: Box::new(lhs), rhs: Box::new(rhs) },
        3 => Expr::Bin { op: BinOp::Ge, lhs: Box::new(lhs), rhs: Box::new(rhs) },
        _ => Expr::sig("EN"),
    }
}

#[test]
fn analysis_contains_every_concrete_run_of_multi_writer_designs() {
    check(0x5EED_5015, 1000, |rng| {
        let m = multi_writer_module(rng);
        assert_analysis_contains_concrete_runs(&m, rng);
    });
}
