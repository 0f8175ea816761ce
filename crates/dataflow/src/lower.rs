//! The compiled two-state step tape: lower a flattened [`CompiledDesign`]
//! into a bit-packed straight-line *step function*. `splice check` replays
//! every counterexample on it.
//!
//! The model checker interprets the design tree over ternary
//! [`TWord`](crate::tv::TWord)s. That is the right tool for exploring unknowns, but
//! it is slow for long concrete runs: every statement walks boxed
//! expression trees and dispatches on its kind, and every write goes
//! through a pending-write table. This module trades the ternary domain
//! for an honest *two-state* one — every signal is a concrete `u64` word —
//! and compiles the design, once, into two flat op tapes over a dense word
//! vector:
//!
//! * the **comb tape** settles every combinational signal in the same
//!   topological order `eval_values` uses, committing each node's writes
//!   masked to the signal width;
//! * the **clock tape** computes every clocked process's next-state values
//!   from the pre-edge words and commits them to the register slots in a
//!   two-phase (compute-then-copy) sequence, reproducing non-blocking
//!   assignment exactly.
//!
//! Branches are lowered *speculatively*: both sides of every `if` execute
//! into scratch slots and a `Select` op picks the live value, so the tape
//! is straight-line — no branches, no dyn dispatch, no hash or string
//! lookups. Word slots `0..signals.len()` coincide with flattened signal
//! ids; constants and scratch temporaries follow.
//!
//! # X handling at the two-state boundary
//!
//! Two-state execution must choose a concrete value wherever the ternary
//! interpreter would produce X. The choice is the **fill bit**, fixed at
//! lowering time: every undriven signal, unresolved combinational cycle,
//! latch-style unassigned branch, and uninitialized register reads as the
//! fill pattern (all-zeros or all-ones). This matches the replay engine's
//! historical `TWord::filled` concretization of *state*, but is stronger:
//! the whole run is an honest execution of one concrete universe, not a
//! per-step re-concretization. The [`TwoState`] domain runs the *generic
//! tree-walk interpreter* over the same choice, so the tape has an exact
//! independent oracle: for every design, stimulus, and fill,
//! `StepFn::step`/`eval` must agree bit-for-bit with
//! [`CompiledDesign::step_values`]/[`eval_values`] over `TwoState`.
//! Registers that may still hold X in reachable post-reset states
//! (`SignalFacts::xmask`, the SL0505 condition) are the ones whose lowered
//! value is *arbitrary*: lint reports them as SL0505, and counterexample
//! replay runs both fills to tell a real X from one reset masks.
//!
//! [`eval_values`]: CompiledDesign::eval_values

use crate::flat::{CExpr, CNode, CStmt, CompiledDesign, DomainValue, Kind, Truth};
use crate::tv::mask;
use splice_hdl::BinOp;
use std::collections::{BTreeMap, HashMap};

// ---------------------------------------------------------------------------
// The two-state value domain.
// ---------------------------------------------------------------------------

/// A fully known bit vector: the two-state counterpart of [`TWord`],
/// parameterized by the fill bit substituted for every X the ternary
/// domain would produce. Running the generic interpreter over `TwoState`
/// is the semantic reference for the compiled tape.
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

// ---------------------------------------------------------------------------
// The op tape.
// ---------------------------------------------------------------------------

/// One straight-line word operation. Every operand is a slot index into
/// the dense state vector; masks are pre-computed at lowering time so the
/// hot loop is pure word arithmetic.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// `w[dst] = w[src]`
    Copy { dst: u32, src: u32 },
    /// `w[dst] = w[src] & mask` (resize / commit to a signal width)
    Mask { dst: u32, src: u32, mask: u64 },
    /// `w[dst] = !w[src] & mask`
    Not { dst: u32, src: u32, mask: u64 },
    /// `w[dst] = w[a] & w[b]`
    And { dst: u32, a: u32, b: u32 },
    /// `w[dst] = w[a] | w[b]`
    Or { dst: u32, a: u32, b: u32 },
    /// `w[dst] = (w[a] + w[b]) & mask`
    Add { dst: u32, a: u32, b: u32, mask: u64 },
    /// `w[dst] = (w[a] - w[b]) & mask`
    Sub { dst: u32, a: u32, b: u32, mask: u64 },
    /// `w[dst] = (w[a] == w[b]) as u64`
    Eq { dst: u32, a: u32, b: u32 },
    /// `w[dst] = (w[a] != w[b]) as u64`
    Ne { dst: u32, a: u32, b: u32 },
    /// `w[dst] = (w[a] < w[b]) as u64`
    Lt { dst: u32, a: u32, b: u32 },
    /// `w[dst] = (w[a] >= w[b]) as u64`
    Ge { dst: u32, a: u32, b: u32 },
    /// `w[dst] = (w[src] >> lo) & mask`
    Slice { dst: u32, src: u32, lo: u32, mask: u64 },
    /// `w[dst] = (w[hi] << shift) | w[lo]`
    Concat { dst: u32, hi: u32, lo: u32, shift: u32 },
    /// `w[dst] = if w[cond] != 0 { w[a] } else { w[b] }` (branch-free)
    Select { dst: u32, cond: u32, a: u32, b: u32 },
}

/// A lowered design: two op tapes over a dense `u64` word vector.
///
/// Slots `0..num_signals` hold the settled value of the flattened signal
/// with the same id; slots after that are interned constants (including
/// the fill patterns backing undriven reads) and scratch temporaries.
/// Register state *lives in the signal slots* between steps, so a word
/// vector from [`StepFn::new_state`] is the complete simulation state.
#[derive(Debug, Clone)]
pub struct StepFn {
    fill: bool,
    num_signals: usize,
    /// Initial word vector: constants, fill patterns, register init.
    template: Vec<u64>,
    /// Per input (parallel to `CompiledDesign::inputs`): signal slot and
    /// width mask applied on load.
    input_loads: Vec<(u32, u64)>,
    /// Register signal slots (parallel to `CompiledDesign::registers`).
    register_slots: Vec<u32>,
    comb: Vec<Op>,
    clock: Vec<Op>,
}

impl StepFn {
    /// Lower `d` into a step function that concretizes every X as the
    /// `fill` bit. Lowering is total for any successfully compiled design
    /// (the 64-bit width limit is enforced by [`CompiledDesign::compile`]).
    pub fn lower(d: &CompiledDesign, fill: bool) -> StepFn {
        Lowerer::new(d, fill).run()
    }

    /// A fresh power-on word vector for this tape.
    pub fn new_state(&self) -> Vec<u64> {
        self.template.clone()
    }

    /// The fill bit chosen at lowering time.
    pub fn fill(&self) -> bool {
        self.fill
    }

    /// Tape lengths `(comb, clock)` — straight-line op counts.
    pub fn op_counts(&self) -> (usize, usize) {
        (self.comb.len(), self.clock.len())
    }

    /// Settle every combinational signal for the given input words
    /// (parallel to `CompiledDesign::inputs`; values are masked on load).
    /// After this, `signals(w)` mirrors [`two_state_eval`].
    pub fn eval(&self, w: &mut [u64], inputs: &[u64]) {
        self.load_inputs(w, inputs);
        run_ops(&self.comb, w);
    }

    /// One clock edge: settle combinationally, then commit every register
    /// non-blockingly. Mirrors [`two_state_step`] followed by state
    /// adoption.
    pub fn step(&self, w: &mut [u64], inputs: &[u64]) {
        self.load_inputs(w, inputs);
        run_ops(&self.comb, w);
        run_ops(&self.clock, w);
    }

    /// The settled signal words (indexed by flattened signal id).
    pub fn signals<'a>(&self, w: &'a [u64]) -> &'a [u64] {
        &w[..self.num_signals]
    }

    /// The current register state words (parallel to
    /// `CompiledDesign::registers`).
    pub fn registers(&self, w: &[u64]) -> Vec<u64> {
        self.register_slots.iter().map(|&s| w[s as usize]).collect()
    }

    fn load_inputs(&self, w: &mut [u64], inputs: &[u64]) {
        for (&(slot, m), &v) in self.input_loads.iter().zip(inputs) {
            w[slot as usize] = v & m;
        }
    }
}

#[inline]
fn run_ops(ops: &[Op], w: &mut [u64]) {
    for op in ops {
        match *op {
            Op::Copy { dst, src } => w[dst as usize] = w[src as usize],
            Op::Mask { dst, src, mask } => w[dst as usize] = w[src as usize] & mask,
            Op::Not { dst, src, mask } => w[dst as usize] = !w[src as usize] & mask,
            Op::And { dst, a, b } => w[dst as usize] = w[a as usize] & w[b as usize],
            Op::Or { dst, a, b } => w[dst as usize] = w[a as usize] | w[b as usize],
            Op::Add { dst, a, b, mask } => {
                w[dst as usize] = w[a as usize].wrapping_add(w[b as usize]) & mask;
            }
            Op::Sub { dst, a, b, mask } => {
                w[dst as usize] = w[a as usize].wrapping_sub(w[b as usize]) & mask;
            }
            Op::Eq { dst, a, b } => w[dst as usize] = (w[a as usize] == w[b as usize]) as u64,
            Op::Ne { dst, a, b } => w[dst as usize] = (w[a as usize] != w[b as usize]) as u64,
            Op::Lt { dst, a, b } => w[dst as usize] = (w[a as usize] < w[b as usize]) as u64,
            Op::Ge { dst, a, b } => w[dst as usize] = (w[a as usize] >= w[b as usize]) as u64,
            Op::Slice { dst, src, lo, mask } => {
                w[dst as usize] = (w[src as usize] >> lo) & mask;
            }
            Op::Concat { dst, hi, lo, shift } => {
                w[dst as usize] = (w[hi as usize] << shift) | w[lo as usize];
            }
            Op::Select { dst, cond, a, b } => {
                w[dst as usize] = if w[cond as usize] != 0 { w[a as usize] } else { w[b as usize] };
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Lowering.
// ---------------------------------------------------------------------------

/// A symbolic value during lowering: the slot holding it and its width in
/// the value domain (widths follow the same rules as [`TwoState`]).
#[derive(Clone, Copy, PartialEq)]
struct Val {
    slot: u32,
    width: u32,
}

/// Pending non-blocking writes: signal id → symbolic value, ordered so
/// commit sequences are deterministic.
type Env = BTreeMap<usize, Val>;

struct Lowerer<'a> {
    d: &'a CompiledDesign,
    fill: bool,
    template: Vec<u64>,
    consts: HashMap<u64, u32>,
    ops: Vec<Op>,
}

impl Lowerer<'_> {
    fn new(d: &CompiledDesign, fill: bool) -> Lowerer<'_> {
        Lowerer { d, fill, template: Vec::new(), consts: HashMap::new(), ops: Vec::new() }
    }

    fn fill_pattern(&self, width: u32) -> u64 {
        if self.fill {
            mask(width)
        } else {
            0
        }
    }

    fn alloc(&mut self, init: u64) -> u32 {
        let slot = self.template.len() as u32;
        self.template.push(init);
        slot
    }

    /// Intern a constant word (already masked) as a read-only slot.
    fn const_slot(&mut self, v: u64) -> u32 {
        if let Some(&s) = self.consts.get(&v) {
            return s;
        }
        let s = self.alloc(v);
        self.consts.insert(v, s);
        s
    }

    fn temp(&mut self) -> u32 {
        self.alloc(0)
    }

    /// The value a signal read yields inside the node being lowered.
    /// `fill_reads` lists the node's own writes (combinational nodes read
    /// their not-yet-committed outputs as undriven).
    fn read(&mut self, id: usize, fill_reads: &[usize]) -> Val {
        let width = self.d.signals[id].width;
        if fill_reads.contains(&id) {
            let pat = self.fill_pattern(width);
            Val { slot: self.const_slot(pat), width }
        } else {
            Val { slot: id as u32, width }
        }
    }

    fn expr(&mut self, e: &CExpr, fill_reads: &[usize]) -> Val {
        match e {
            CExpr::Sig(id) => self.read(*id, fill_reads),
            CExpr::Lit(v) => Val { slot: self.const_slot(v.bits & mask(v.width)), width: v.width },
            CExpr::Bin { op, lhs, rhs } => {
                let a = self.expr(lhs, fill_reads);
                let b = self.expr(rhs, fill_reads);
                let dst = self.temp();
                let w = a.width.max(b.width);
                let (op, width) = match op {
                    BinOp::Eq => (Op::Eq { dst, a: a.slot, b: b.slot }, 1),
                    BinOp::Ne => (Op::Ne { dst, a: a.slot, b: b.slot }, 1),
                    BinOp::Lt => (Op::Lt { dst, a: a.slot, b: b.slot }, 1),
                    BinOp::Ge => (Op::Ge { dst, a: a.slot, b: b.slot }, 1),
                    BinOp::Add => (Op::Add { dst, a: a.slot, b: b.slot, mask: mask(w) }, w),
                    BinOp::Sub => (Op::Sub { dst, a: a.slot, b: b.slot, mask: mask(w) }, w),
                    BinOp::And => (Op::And { dst, a: a.slot, b: b.slot }, w),
                    BinOp::Or => (Op::Or { dst, a: a.slot, b: b.slot }, w),
                };
                self.ops.push(op);
                Val { slot: dst, width }
            }
            CExpr::Not(inner) => {
                let v = self.expr(inner, fill_reads);
                let dst = self.temp();
                self.ops.push(Op::Not { dst, src: v.slot, mask: mask(v.width) });
                Val { slot: dst, width: v.width }
            }
            CExpr::Slice { base, hi, lo } => {
                let v = self.expr(base, fill_reads);
                let w = hi.saturating_sub(*lo) + 1;
                let dst = self.temp();
                self.ops.push(Op::Slice { dst, src: v.slot, lo: *lo, mask: mask(w) });
                Val { slot: dst, width: w }
            }
            CExpr::Concat(parts) => {
                let mut it = parts.iter();
                let first = match it.next() {
                    Some(p) => self.expr(p, fill_reads),
                    None => Val { slot: self.const_slot(0), width: 1 },
                };
                it.fold(first, |acc, p| {
                    let low = self.expr(p, fill_reads);
                    let dst = self.temp();
                    self.ops.push(Op::Concat { dst, hi: acc.slot, lo: low.slot, shift: low.width });
                    Val { slot: dst, width: acc.width + low.width }
                })
            }
        }
    }

    /// The value a signal keeps when a branch does not assign it: the fill
    /// pattern in combinational nodes, the signal's own settled (pre-edge)
    /// slot in clocked ones — exactly the interpreter's `hold` closure.
    fn hold(&mut self, id: usize, fill_reads: &[usize], clocked: bool) -> Val {
        let width = self.d.signals[id].width;
        if clocked {
            Val { slot: id as u32, width }
        } else {
            let _ = fill_reads;
            let pat = self.fill_pattern(width);
            Val { slot: self.const_slot(pat), width }
        }
    }

    /// Merge two branch environments under `cond`: for every signal either
    /// side touches, select between its branch values (absent = hold).
    fn merge(
        &mut self,
        cond: Val,
        taken: Env,
        skipped: Env,
        fill_reads: &[usize],
        clocked: bool,
        env: &mut Env,
    ) {
        let mut keys: Vec<usize> = taken.keys().chain(skipped.keys()).copied().collect();
        keys.sort_unstable();
        keys.dedup();
        let mut out = Env::new();
        for id in keys {
            let a = match taken.get(&id) {
                Some(v) => *v,
                None => self.hold(id, fill_reads, clocked),
            };
            let b = match skipped.get(&id) {
                Some(v) => *v,
                None => self.hold(id, fill_reads, clocked),
            };
            if a.slot == b.slot {
                out.insert(id, a);
                continue;
            }
            let dst = self.temp();
            self.ops.push(Op::Select { dst, cond: cond.slot, a: a.slot, b: b.slot });
            // The merged value's width only matters at commit time, where
            // the target signal's width masks it; carry the wider one.
            out.insert(id, Val { slot: dst, width: a.width.max(b.width) });
        }
        *env = out;
    }

    fn block(&mut self, stmts: &[CStmt], env: &mut Env, fill_reads: &[usize], clocked: bool) {
        for s in stmts {
            match s {
                CStmt::Assign { lhs, rhs } => {
                    let v = self.expr(rhs, fill_reads);
                    env.insert(*lhs, v);
                }
                CStmt::If { cond, then, elifs, els } => {
                    let mut chain: Vec<(&CExpr, &Vec<CStmt>)> = vec![(cond, then)];
                    for (c, b) in elifs {
                        chain.push((c, b));
                    }
                    self.if_chain(&chain, els.as_ref(), env, fill_reads, clocked);
                }
                CStmt::Case { expr, arms, default } => {
                    let sel = self.expr(expr, fill_reads);
                    let selm = mask(sel.width);
                    // First-match-wins: fold the arms in reverse so the
                    // earliest arm's select is outermost. The accumulator
                    // starts as the no-arm-matches path (the default, or
                    // nothing executes).
                    let mut acc = env.clone();
                    if let Some(d) = default {
                        self.block(d, &mut acc, fill_reads, clocked);
                    }
                    for (a, body) in arms.iter().rev() {
                        let mut arm_env = env.clone();
                        self.block(body, &mut arm_env, fill_reads, clocked);
                        let lit = self.const_slot(a & selm);
                        let cond_dst = self.temp();
                        self.ops.push(Op::Eq { dst: cond_dst, a: sel.slot, b: lit });
                        let cond = Val { slot: cond_dst, width: 1 };
                        let mut merged = Env::new();
                        self.merge(cond, arm_env, acc, fill_reads, clocked, &mut merged);
                        acc = merged;
                    }
                    *env = acc;
                }
            }
        }
    }

    fn if_chain(
        &mut self,
        chain: &[(&CExpr, &Vec<CStmt>)],
        els: Option<&Vec<CStmt>>,
        env: &mut Env,
        fill_reads: &[usize],
        clocked: bool,
    ) {
        let Some(((cond, body), rest)) = chain.split_first() else {
            if let Some(e) = els {
                self.block(e, env, fill_reads, clocked);
            }
            return;
        };
        let cond = self.expr(cond, fill_reads);
        let mut taken = env.clone();
        self.block(body, &mut taken, fill_reads, clocked);
        let mut skipped = env.clone();
        self.if_chain(rest, els, &mut skipped, fill_reads, clocked);
        self.merge(cond, taken, skipped, fill_reads, clocked, env);
    }

    /// Lower one combinational node: compute its pending set, then commit
    /// every written signal masked to its width. Within the node, reads of
    /// its own outputs see the fill pattern (their pre-commit value).
    fn comb_node(&mut self, node: &CNode) {
        let mut env = Env::new();
        self.block(&node.body, &mut env, &node.writes, false);
        for (&id, v) in &env {
            // Commit sources are never this node's signal slots (own
            // outputs read as fill constants), so in-order commits are
            // race-free.
            self.ops.push(Op::Mask {
                dst: id as u32,
                src: v.slot,
                mask: mask(self.d.signals[id].width),
            });
        }
    }

    fn run(mut self) -> StepFn {
        // Slots 0..num_signals: one word per flattened signal. Constants
        // initialize to their value, undriven and cyclic signals to the
        // fill pattern (their driving nodes never execute), registers to
        // their power-on value.
        let num_signals = self.d.signals.len();
        for s in &self.d.signals {
            let init = match s.kind {
                Kind::Const(v) => v & mask(s.width),
                Kind::Register => match s.init {
                    Some(v) => v & mask(s.width),
                    None => self.fill_pattern(s.width),
                },
                _ => self.fill_pattern(s.width),
            };
            self.template.push(init);
        }

        // The comb tape: every placed node in topological order, exactly
        // as `eval_values` executes them.
        let d = self.d;
        for node in &d.comb_order {
            self.comb_node(node);
        }
        let comb = std::mem::take(&mut self.ops);

        // The clock tape: all clocked processes share one pending set and
        // read pre-edge values, so compute everything first, then commit
        // through scratch slots — a later register's committed source can
        // never observe an earlier register's post-edge value.
        let mut env = Env::new();
        for node in &d.clocked {
            self.block(&node.body, &mut env, &[], true);
        }
        let mut staged: Vec<(u32, u32)> = Vec::new();
        for &id in &self.d.registers {
            if let Some(v) = env.get(&id) {
                let tmp = self.temp();
                self.ops.push(Op::Mask {
                    dst: tmp,
                    src: v.slot,
                    mask: mask(self.d.signals[id].width),
                });
                staged.push((id as u32, tmp));
            }
        }
        for (dst, src) in staged {
            self.ops.push(Op::Copy { dst, src });
        }
        let clock = std::mem::take(&mut self.ops);

        let input_loads =
            self.d.inputs.iter().map(|&id| (id as u32, mask(self.d.signals[id].width))).collect();
        let register_slots = self.d.registers.iter().map(|&id| id as u32).collect();
        StepFn {
            fill: self.fill,
            num_signals,
            template: self.template,
            input_loads,
            register_slots,
            comb,
            clock,
        }
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

    /// Drive the tape and the two-state tree-walk interpreter side by side
    /// and demand bit-identical signal values at every observation point.
    /// Returns the final eval rows (tape side) for concrete assertions.
    fn parity_run(
        modules: &[Module],
        top: &str,
        rows: &[Vec<u64>],
        fill: bool,
    ) -> (CompiledDesign, Vec<Vec<u64>>) {
        let d = CompiledDesign::compile(modules, top).expect("compiles");
        let tape = StepFn::lower(&d, fill);
        let mut w = tape.new_state();
        let mut state = two_state_initial(&d, fill);
        assert_eq!(tape.registers(&w), state, "power-on register state");
        let mut history = Vec::new();
        for (t, row) in rows.iter().enumerate() {
            tape.eval(&mut w, row);
            let oracle = two_state_eval(&d, &state, row, fill);
            assert_eq!(tape.signals(&w), &oracle[..], "eval diverged at step {t} (fill={fill})");
            history.push(oracle);
            tape.step(&mut w, row);
            state = two_state_step(&d, &state, row, fill);
            assert_eq!(tape.registers(&w), state, "step diverged at step {t} (fill={fill})");
        }
        (d, history)
    }

    #[test]
    fn counter_tape_matches_oracle_and_counts() {
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
            let (d, h) = parity_run(std::slice::from_ref(&m), "ctr", &rows, fill);
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
    fn uninitialized_register_lowered_to_the_fill_pattern() {
        let m = counter_module(false);
        let d = CompiledDesign::compile(std::slice::from_ref(&m), "ctr").unwrap();
        let rows = input_rows(&d, &[&[("EN", 1)], &[("EN", 1)], &[("RST", 1)], &[("EN", 1)]]);
        // fill = 0: counts from 0. fill = 1: counts from 3 and wraps. Both
        // are honest executions of one concrete power-on universe, and the
        // reset makes them converge.
        let (d0, h0) = parity_run(std::slice::from_ref(&m), "ctr", &rows, false);
        let count = d0.signal_id("count").unwrap();
        assert_eq!(h0[0][count], 0);
        assert_eq!(h0[1][count], 1);
        let (_, h1) = parity_run(std::slice::from_ref(&m), "ctr", &rows, true);
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
            let (d, h) = parity_run(std::slice::from_ref(&m), "mux", &rows, fill);
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
            let (d, h) = parity_run(std::slice::from_ref(&m), "sel", &rows, fill);
            let o = d.signal_id("O").unwrap();
            let got: Vec<u64> = h.iter().map(|row| row[o]).collect();
            assert_eq!(got, [1, 2, 3, 4]);
        }
    }

    #[test]
    fn slices_concats_and_every_binop_match_the_oracle() {
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
            let (d, h) = parity_run(std::slice::from_ref(&m), "ops", &rows, fill);
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
            let (d, h) = parity_run(std::slice::from_ref(&m), "swap", &rows, fill);
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
            let (d, h) = parity_run(std::slice::from_ref(&m), "loopy", &rows, fill);
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
            let (d, h) = parity_run(std::slice::from_ref(&m), "wide", &rows, fill);
            let y = d.signal_id("Y").unwrap();
            assert_eq!(h[0][y], 0, "wraps at 64 bits");
            assert_eq!(h[1][y], 42);
        }
    }

    #[test]
    fn lowering_is_deterministic() {
        let m = counter_module(true);
        let d = CompiledDesign::compile(std::slice::from_ref(&m), "ctr").unwrap();
        let a = StepFn::lower(&d, false);
        let b = StepFn::lower(&d, false);
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "tape layout must be reproducible");
        let (comb, clock) = a.op_counts();
        assert!(comb > 0 && clock > 0, "both tapes carry ops: {comb}/{clock}");
    }
}
