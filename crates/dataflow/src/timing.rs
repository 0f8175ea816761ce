//! Structural timing over the flattened design: unit-delay levelization.
//!
//! The checker, the abstract interpreter, and two-state replay all consume
//! [`CompiledDesign`] for its *values*; this module measures its *structure*.
//! Every operator ([`CExpr::Bin`], [`CExpr::Not`]) costs one level, wiring
//! ([`CExpr::Sig`], [`CExpr::Slice`], [`CExpr::Concat`]) costs zero, and
//! every `if`/`case` alternative adds one mux level on both the select and
//! the data path. Sequential elements cut paths: inputs, registers, and
//! constants sit at level 0, and a register's *arrival* depth (the logic in
//! front of its D pin) is reported separately as an [`Endpoint`].
//!
//! Because [`CompiledDesign::comb_order`] is already topologically sorted,
//! levelization is a single forward pass. Alongside depth the pass records:
//!
//! * the **critical predecessor** of every combinational signal, so any
//!   endpoint unwinds into a named chain (register → gates → register/port);
//! * **fan-out** per signal — how many flattened nodes read it;
//! * **cone** size per signal — distinct signals in its transitive
//!   combinational fan-in, stopping at sequential boundaries (bitset union
//!   in topo order, so this is cheap even for wide designs).
//!
//! Caveats worth stating: unit delay ignores routing and operator width
//! (a 32-bit adder and a 1-bit AND both cost one level), and signals caught
//! in a combinational cycle ([`CompiledDesign::cyclic`]) are excluded — they
//! are pinned X by the evaluator and have no meaningful depth.

use crate::flat::{CExpr, CNode, CStmt, CompiledDesign, Kind};

/// Where a timing path terminates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EndpointKind {
    /// The D pin of a register (arrival depth of its clocked logic).
    Register,
    /// A top-level output port (depth of the comb logic driving it).
    OutputPort,
}

/// One timing endpoint: a register D pin or an output port, with the depth
/// of the deepest combinational path arriving there.
#[derive(Debug, Clone)]
pub struct Endpoint {
    /// Signal index of the register or output port.
    pub signal: usize,
    /// Register arrival or output-port depth.
    pub kind: EndpointKind,
    /// Unit-delay levels on the deepest arriving path.
    pub depth: u32,
    /// The read signal the deepest path comes through (`None` when the
    /// endpoint is fed by constants or held/undriven).
    pub pred: Option<usize>,
    /// Distinct signals in the endpoint's transitive combinational fan-in,
    /// the endpoint itself included.
    pub cone: u32,
}

/// Structural timing facts for one flattened design.
#[derive(Debug, Clone)]
pub struct Timing {
    /// Per-signal logic level: 0 for inputs, registers, constants, and
    /// cyclic signals; operator depth for combinational signals.
    pub levels: Vec<u32>,
    /// Per-signal critical predecessor: the read signal on the deepest
    /// path into this signal's driver (`None` at sequential sources).
    pub pred: Vec<Option<usize>>,
    /// Per-signal fan-out: how many flattened nodes (clocked or
    /// combinational) read the signal.
    pub fanout: Vec<u32>,
    /// Per-signal cone size: distinct signals in the transitive
    /// combinational fan-in, the signal itself included.
    pub cone: Vec<u32>,
    /// Register and output-port endpoints, deepest first (ties broken by
    /// signal index for determinism).
    pub endpoints: Vec<Endpoint>,
    /// The design's critical depth: the deepest endpoint, or 0 for a
    /// purely sequential/empty design.
    pub max_depth: u32,
}

impl Timing {
    /// Unwind an endpoint into its named critical path, source first. The
    /// chain walks critical predecessors back to a level-0 signal, then
    /// appends the endpoint itself; a register feeding its own D pin
    /// (`state <= f(state)`) yields the register on both ends.
    pub fn path(&self, endpoint: &Endpoint) -> Vec<usize> {
        let mut chain = Vec::new();
        let mut cur = endpoint.pred;
        while let Some(s) = cur {
            chain.push(s);
            cur = self.pred[s];
        }
        chain.reverse();
        chain.push(endpoint.signal);
        chain
    }

    /// The largest fan-out in the design, with the signal that has it.
    pub fn max_fanout(&self) -> Option<(usize, u32)> {
        self.fanout
            .iter()
            .copied()
            .enumerate()
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
            .filter(|&(_, f)| f > 0)
    }
}

/// An arriving path during the walk: depth plus the leaf signal the
/// deepest branch comes through. Ties keep the first (leftmost) leaf so
/// reported paths are deterministic.
#[derive(Clone, Copy)]
struct Arrival {
    depth: u32,
    from: Option<usize>,
}

impl Arrival {
    const ZERO: Arrival = Arrival { depth: 0, from: None };

    fn max(self, other: Arrival) -> Arrival {
        if other.depth > self.depth {
            other
        } else {
            self
        }
    }

    fn bump(self, by: u32) -> Arrival {
        Arrival { depth: self.depth + by, from: self.from }
    }
}

/// Deepest path through an expression: operators cost one level, wiring
/// costs zero, leaves start at the driving signal's settled level.
fn expr_arrival(e: &CExpr, levels: &[u32]) -> Arrival {
    match e {
        CExpr::Sig(id) => Arrival { depth: levels[*id], from: Some(*id) },
        CExpr::Lit(_) => Arrival::ZERO,
        CExpr::Bin { lhs, rhs, .. } => {
            expr_arrival(lhs, levels).max(expr_arrival(rhs, levels)).bump(1)
        }
        CExpr::Not(inner) => expr_arrival(inner, levels).bump(1),
        CExpr::Slice { base, .. } => expr_arrival(base, levels),
        CExpr::Concat(parts) => {
            parts.iter().map(|p| expr_arrival(p, levels)).fold(Arrival::ZERO, Arrival::max)
        }
    }
}

/// Walk a statement body collecting the deepest arrival per written signal.
/// `ctrl` is the deepest select path guarding this region (already bumped
/// through its mux levels); `muxes` is how many mux stages sit between an
/// rhs evaluated here and the signal it lands on.
fn walk_arrivals(
    body: &[CStmt],
    levels: &[u32],
    ctrl: Arrival,
    muxes: u32,
    out: &mut Vec<Option<Arrival>>,
) {
    for stmt in body {
        match stmt {
            CStmt::Assign { lhs, rhs } => {
                let arr = ctrl.max(expr_arrival(rhs, levels).bump(muxes));
                out[*lhs] = Some(match out[*lhs] {
                    Some(prev) => prev.max(arr),
                    None => arr,
                });
            }
            CStmt::If { cond, then, elifs, els } => {
                // The condition steers a mux: its path picks up the mux
                // level too, and nested bodies sit one stage deeper.
                let mut sel = ctrl.max(expr_arrival(cond, levels).bump(muxes)).bump(1);
                let mut depth_muxes = muxes + 1;
                walk_arrivals(then, levels, sel, depth_muxes, out);
                for (c, b) in elifs {
                    sel = sel.max(expr_arrival(c, levels).bump(depth_muxes)).bump(1);
                    depth_muxes += 1;
                    walk_arrivals(b, levels, sel, depth_muxes, out);
                }
                if let Some(b) = els {
                    walk_arrivals(b, levels, sel, depth_muxes, out);
                }
            }
            CStmt::Case { expr, arms, default } => {
                let sel = ctrl.max(expr_arrival(expr, levels).bump(muxes)).bump(1);
                for (_, b) in arms {
                    walk_arrivals(b, levels, sel, muxes + 1, out);
                }
                if let Some(b) = default {
                    walk_arrivals(b, levels, sel, muxes + 1, out);
                }
            }
        }
    }
}

/// Deepest arrival per signal written by `node`, given settled levels.
fn node_arrivals(node: &CNode, levels: &[u32], n: usize) -> Vec<(usize, Arrival)> {
    let mut out: Vec<Option<Arrival>> = vec![None; n];
    walk_arrivals(&node.body, levels, Arrival::ZERO, 0, &mut out);
    out.into_iter().enumerate().filter_map(|(id, arr)| arr.map(|a| (id, a))).collect()
}

/// Bit-set cone accumulator: one `u64` word per 64 signals.
struct ConeSets {
    words: usize,
    bits: Vec<u64>,
}

impl ConeSets {
    fn new(n: usize) -> ConeSets {
        let words = n.div_ceil(64);
        let mut sets = ConeSets { words, bits: vec![0u64; words * n] };
        for id in 0..n {
            sets.insert(id, id);
        }
        sets
    }

    fn insert(&mut self, set: usize, id: usize) {
        self.bits[set * self.words + id / 64] |= 1u64 << (id % 64);
    }

    fn union_into(&mut self, dst: usize, src: usize) {
        if dst == src {
            return;
        }
        let (d, s) = (dst * self.words, src * self.words);
        for w in 0..self.words {
            let v = self.bits[s + w];
            self.bits[d + w] |= v;
        }
    }

    fn count(&self, set: usize) -> u32 {
        self.bits[set * self.words..(set + 1) * self.words].iter().map(|w| w.count_ones()).sum()
    }

    /// Union the cones of several source signals into `scratch`.
    fn union_of(&self, sources: &[usize], scratch: &mut Vec<u64>) {
        scratch.clear();
        scratch.resize(self.words, 0);
        for &s in sources {
            for (w, word) in scratch.iter_mut().enumerate() {
                *word |= self.bits[s * self.words + w];
            }
        }
    }
}

/// Run the structural analysis over a flattened design.
pub fn analyze_timing(d: &CompiledDesign) -> Timing {
    let n = d.signals.len();
    let mut levels = vec![0u32; n];
    let mut pred: Vec<Option<usize>> = vec![None; n];
    let mut cones = ConeSets::new(n);

    // Forward levelization: comb_order is topo-sorted, so one pass settles
    // every acyclic combinational signal. Sequential sources (inputs,
    // registers, consts) keep level 0 and a one-element cone; cyclic
    // signals never appear in comb_order and stay at level 0 as well.
    for node in &d.comb_order {
        for (id, arr) in node_arrivals(node, &levels, n) {
            levels[id] = arr.depth;
            pred[id] = arr.from;
        }
        for w in 0..node.writes.len() {
            let dst = node.writes[w];
            for &r in &node.reads {
                // Comb cones flow through; register/input cones are just
                // the source itself, which is exactly the cut we want.
                if matches!(d.signals[r].kind, Kind::Comb) {
                    cones.union_into(dst, r);
                } else {
                    cones.insert(dst, r);
                }
            }
        }
    }

    // Fan-out: how many nodes read each signal (reads are already
    // deduplicated per node by the flattener).
    let mut fanout = vec![0u32; n];
    for node in d.clocked.iter().chain(&d.comb_order) {
        for &r in &node.reads {
            fanout[r] += 1;
        }
    }

    // Endpoints: register D pins (deepest arrival over every clocked node
    // writing them) and top-level output ports.
    let mut reg_arrival: Vec<Option<Arrival>> = vec![None; n];
    let mut reg_sources: Vec<Vec<usize>> = vec![Vec::new(); n];
    for node in &d.clocked {
        for (id, arr) in node_arrivals(node, &levels, n) {
            reg_arrival[id] = Some(match reg_arrival[id] {
                Some(prev) => prev.max(arr),
                None => arr,
            });
        }
        for &w in &node.writes {
            for &r in &node.reads {
                if !reg_sources[w].contains(&r) {
                    reg_sources[w].push(r);
                }
            }
        }
    }

    let mut scratch = Vec::new();
    let mut endpoints = Vec::new();
    for &reg in &d.registers {
        let arr = reg_arrival[reg].unwrap_or(Arrival::ZERO);
        // The D-pin cone: comb reads bring their whole cones, non-comb
        // reads (other registers, inputs) are leaves, and the register
        // itself is a member — a set union so self-loops don't double
        // count.
        let comb_sources: Vec<usize> = reg_sources[reg]
            .iter()
            .copied()
            .filter(|&r| matches!(d.signals[r].kind, Kind::Comb))
            .collect();
        cones.union_of(&comb_sources, &mut scratch);
        scratch[reg / 64] |= 1u64 << (reg % 64);
        for &r in &reg_sources[reg] {
            if !matches!(d.signals[r].kind, Kind::Comb) {
                scratch[r / 64] |= 1u64 << (r % 64);
            }
        }
        let cone = scratch.iter().map(|w| w.count_ones()).sum();
        endpoints.push(Endpoint {
            signal: reg,
            kind: EndpointKind::Register,
            depth: arr.depth,
            pred: arr.from,
            cone,
        });
    }
    for &port in &d.outputs {
        endpoints.push(Endpoint {
            signal: port,
            kind: EndpointKind::OutputPort,
            depth: levels[port],
            pred: pred[port],
            cone: cones.count(port),
        });
    }
    endpoints.sort_by(|a, b| b.depth.cmp(&a.depth).then(a.signal.cmp(&b.signal)));

    let max_depth = endpoints.iter().map(|e| e.depth).max().unwrap_or(0);
    let cone = (0..n).map(|id| cones.count(id)).collect();

    Timing { levels, pred, fanout, cone, endpoints, max_depth }
}

/// Width of a compiled expression under the evaluator's semantics: binary
/// operators produce `max(lhs, rhs)` bits (comparisons included — the
/// evaluator computes wide, assignment truncates), only concatenation
/// grows. The netlist cost model and the SL0603 width-blowup rule both
/// price from this.
pub fn expr_width(d: &CompiledDesign, e: &CExpr) -> u32 {
    match e {
        CExpr::Sig(id) => d.signals[*id].width,
        CExpr::Lit(t) => t.width,
        CExpr::Bin { lhs, rhs, .. } => expr_width(d, lhs).max(expr_width(d, rhs)),
        CExpr::Not(inner) => expr_width(d, inner),
        CExpr::Slice { hi, lo, .. } => hi - lo + 1,
        CExpr::Concat(parts) => parts.iter().map(|p| expr_width(d, p)).sum(),
    }
}

/// The widest intermediate value anywhere in an expression tree — used by
/// SL0603 to spot operator chains that balloon past both their result and
/// their leaves.
pub fn expr_peak_width(d: &CompiledDesign, e: &CExpr) -> u32 {
    let here = expr_width(d, e);
    let below = match e {
        CExpr::Sig(_) | CExpr::Lit(_) => 0,
        CExpr::Bin { lhs, rhs, .. } => expr_peak_width(d, lhs).max(expr_peak_width(d, rhs)),
        CExpr::Not(inner) => expr_peak_width(d, inner),
        CExpr::Slice { base, .. } => expr_peak_width(d, base),
        CExpr::Concat(parts) => parts.iter().map(|p| expr_peak_width(d, p)).max().unwrap_or(0),
    };
    here.max(below)
}

/// The widest *leaf* (signal or literal) in an expression tree.
pub fn expr_leaf_width(d: &CompiledDesign, e: &CExpr) -> u32 {
    match e {
        CExpr::Sig(id) => d.signals[*id].width,
        CExpr::Lit(t) => t.width,
        CExpr::Bin { lhs, rhs, .. } => expr_leaf_width(d, lhs).max(expr_leaf_width(d, rhs)),
        CExpr::Not(inner) => expr_leaf_width(d, inner),
        CExpr::Slice { base, .. } => expr_leaf_width(d, base),
        CExpr::Concat(parts) => parts.iter().map(|p| expr_leaf_width(d, p)).max().unwrap_or(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splice_hdl::{Decl, Expr, Item, Module, Port, Process, Stmt};

    fn sig(name: &str) -> Expr {
        Expr::sig(name)
    }

    /// in A,B -> t = A&B; u = t|B; clocked R <= u; out Y = u&A.
    fn chain_module() -> Module {
        Module {
            name: "chain".into(),
            header: vec![],
            ports: vec![Port::input("A", 1), Port::input("B", 1), Port::output("Y", 1)],
            decls: vec![
                Decl::Signal { name: "t".into(), width: 1, init: None },
                Decl::Signal { name: "u".into(), width: 1, init: None },
                Decl::Signal { name: "R".into(), width: 1, init: Some(0) },
            ],
            items: vec![
                Item::Assign { lhs: "t".into(), rhs: sig("A").and(sig("B")) },
                Item::Assign { lhs: "u".into(), rhs: sig("t").or(sig("B")) },
                Item::Process(Process {
                    label: "p".into(),
                    clocked: true,
                    body: vec![Stmt::assign("R", sig("u"))],
                }),
                Item::Assign { lhs: "Y".into(), rhs: sig("u").and(sig("A")) },
            ],
        }
    }

    fn compile(m: Module) -> CompiledDesign {
        let name = m.name.clone();
        CompiledDesign::compile(&[m], &name).unwrap()
    }

    #[test]
    fn levels_follow_operator_chains() {
        let d = compile(chain_module());
        let t = analyze_timing(&d);
        let id = |n: &str| d.signal_id(n).unwrap();
        assert_eq!(t.levels[id("A")], 0);
        assert_eq!(t.levels[id("t")], 1);
        assert_eq!(t.levels[id("u")], 2);
        assert_eq!(t.levels[id("Y")], 3);
        assert_eq!(t.levels[id("R")], 0, "registers are path sources");
        assert_eq!(t.max_depth, 3);
    }

    #[test]
    fn endpoints_cover_registers_and_ports() {
        let d = compile(chain_module());
        let t = analyze_timing(&d);
        let id = |n: &str| d.signal_id(n).unwrap();
        // Deepest endpoint first: the Y port at depth 3.
        assert_eq!(t.endpoints[0].signal, id("Y"));
        assert_eq!(t.endpoints[0].kind, EndpointKind::OutputPort);
        assert_eq!(t.endpoints[0].depth, 3);
        let reg = t.endpoints.iter().find(|e| e.kind == EndpointKind::Register).unwrap();
        assert_eq!(reg.signal, id("R"));
        assert_eq!(reg.depth, 2, "R's D pin sees u at level 2");
    }

    #[test]
    fn critical_path_is_a_named_chain() {
        let d = compile(chain_module());
        let t = analyze_timing(&d);
        let id = |n: &str| d.signal_id(n).unwrap();
        let top = &t.endpoints[0];
        let path = t.path(top);
        let names: Vec<&str> = path.iter().map(|&s| d.signals[s].name.as_str()).collect();
        // A & B -> t -> u -> Y; ties keep the leftmost leaf (A).
        assert_eq!(names, ["A", "t", "u", "Y"]);
        assert_eq!(path[0], id("A"));
    }

    #[test]
    fn fanout_counts_reader_nodes() {
        let d = compile(chain_module());
        let t = analyze_timing(&d);
        let id = |n: &str| d.signal_id(n).unwrap();
        // u is read by the clocked process and the Y assign.
        assert_eq!(t.fanout[id("u")], 2);
        // A is read by the t assign and the Y assign.
        assert_eq!(t.fanout[id("A")], 2);
        assert_eq!(t.max_fanout().map(|(_, f)| f), Some(2));
    }

    #[test]
    fn cones_stop_at_sequential_boundaries() {
        let d = compile(chain_module());
        let t = analyze_timing(&d);
        let id = |n: &str| d.signal_id(n).unwrap();
        // Y's cone: {Y, u, t, A, B}. R is behind a flop, not in the cone.
        assert_eq!(t.cone[id("Y")], 5);
        assert_eq!(t.cone[id("t")], 3, "t, A, B");
        assert_eq!(t.cone[id("A")], 1, "sources are their own cone");
    }

    #[test]
    fn muxes_add_levels_on_select_and_data() {
        // out = if C then A else B -> one mux level above the leaves.
        let m = Module {
            name: "mux".into(),
            header: vec![],
            ports: vec![
                Port::input("C", 1),
                Port::input("A", 8),
                Port::input("B", 8),
                Port::output("Y", 8),
            ],
            decls: vec![],
            items: vec![Item::Process(Process {
                label: "m".into(),
                clocked: false,
                body: vec![Stmt::if_else(
                    sig("C"),
                    vec![Stmt::assign("Y", sig("A"))],
                    vec![Stmt::assign("Y", sig("B"))],
                )],
            })],
        };
        let d = compile(m);
        let t = analyze_timing(&d);
        assert_eq!(t.levels[d.signal_id("Y").unwrap()], 1);
    }

    #[test]
    fn self_loop_register_keeps_zero_level() {
        // R <= R + 1: the register is both source and endpoint.
        let m = Module {
            name: "count".into(),
            header: vec![],
            ports: vec![Port::output("Y", 4)],
            decls: vec![Decl::Signal { name: "R".into(), width: 4, init: Some(0) }],
            items: vec![
                Item::Process(Process {
                    label: "p".into(),
                    clocked: true,
                    body: vec![Stmt::assign("R", sig("R").add(Expr::lit(1, 4)))],
                }),
                Item::Assign { lhs: "Y".into(), rhs: sig("R") },
            ],
        };
        let d = compile(m);
        let t = analyze_timing(&d);
        let r = d.signal_id("R").unwrap();
        assert_eq!(t.levels[r], 0);
        let reg = t.endpoints.iter().find(|e| e.kind == EndpointKind::Register).unwrap();
        assert_eq!(reg.depth, 1, "one adder in front of the D pin");
        let names: Vec<&str> = t.path(reg).iter().map(|&s| d.signals[s].name.as_str()).collect();
        assert_eq!(names, ["R", "R"], "register on both ends of the loop");
    }

    #[test]
    fn width_helpers_follow_evaluator_semantics() {
        let d = compile(chain_module());
        let a = CExpr::Sig(d.signal_id("A").unwrap());
        let cat = CExpr::Concat(vec![a.clone(), a.clone(), a.clone()]);
        assert_eq!(expr_width(&d, &cat), 3);
        assert_eq!(expr_peak_width(&d, &cat), 3);
        assert_eq!(expr_leaf_width(&d, &cat), 1);
        let sliced = CExpr::Slice { base: Box::new(cat), hi: 0, lo: 0 };
        assert_eq!(expr_width(&d, &sliced), 1);
        assert_eq!(expr_peak_width(&d, &sliced), 3, "peak sees through the slice");
    }
}
