//! HDL module AST → explicit transition relation.
//!
//! A [`CompiledDesign`] flattens a module (recursively instantiating its
//! children) into one signal table plus two executable views:
//!
//! * **combinational settle** — continuous assignments and unclocked
//!   processes, topologically ordered so each evaluates after everything it
//!   reads (signals trapped in a combinational cycle stay X);
//! * **clocked step** — every clocked process run with VHDL non-blocking
//!   semantics: reads see pre-edge values, writes land post-edge, the last
//!   write to a signal wins, unassigned registers hold.
//!
//! Control flow over unknown values is conservative: an `if` with an X
//! condition joins both branches, a `case` with a partially unknown
//! selector joins every arm the selector may reach.
//!
//! The interpreter is generic over a [`DomainValue`]: the concrete ternary
//! [`TWord`] drives model checking, and `crate::domain::AbsVal` runs the
//! same statements under abstract interpretation. One flattening path, two
//! value domains. An [`Interp`] keeps the interpreter's buffers between
//! calls, so executing a statement neither hashes nor allocates.

use crate::graph;
use crate::tv::TWord;
use splice_hdl::{BinOp, Decl, Dir, Expr, Item, Module, Stmt};
use std::collections::HashMap;
use std::fmt;

/// Why a module set could not be compiled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// An instantiated module is not in the provided set.
    UnknownModule {
        /// Instance label referencing the module.
        instance: String,
        /// The missing module name.
        module: String,
    },
    /// An identifier is referenced but never declared.
    UnknownSignal {
        /// Module containing the reference.
        module: String,
        /// The undeclared name.
        name: String,
    },
    /// A signal is wider than the 64-bit model domain.
    TooWide {
        /// Flattened signal name.
        name: String,
        /// Declared width.
        width: u32,
    },
    /// A signal is driven from both clocked and combinational logic.
    MixedDrivers {
        /// Flattened signal name.
        name: String,
    },
}

impl CompileError {
    /// Render with a file anchor, mirroring `SpecError::render_at`: the
    /// lint layer uses this to attach compile failures to the generated
    /// HDL file they come from.
    pub fn render_at(&self, path: &str) -> String {
        format!("{path}: {self}")
    }

    /// The flattened signal name the error is about, when it has one.
    pub fn signal(&self) -> Option<&str> {
        match self {
            CompileError::UnknownSignal { name, .. }
            | CompileError::TooWide { name, .. }
            | CompileError::MixedDrivers { name } => Some(name),
            CompileError::UnknownModule { .. } => None,
        }
    }
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::UnknownModule { instance, module } => {
                write!(f, "instance `{instance}` refers to unknown module `{module}`")
            }
            CompileError::UnknownSignal { module, name } => {
                write!(f, "`{name}` referenced in `{module}` is not declared")
            }
            CompileError::TooWide { name, width } => {
                write!(f, "signal `{name}` is {width} bits wide; the model domain is 64")
            }
            CompileError::MixedDrivers { name } => {
                write!(f, "signal `{name}` has both clocked and combinational drivers")
            }
        }
    }
}

impl std::error::Error for CompileError {}

/// How a signal gets its value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Top-level input port: driven by the environment.
    Input,
    /// Assigned in a clocked process: part of the sequential state.
    Register,
    /// Assigned by combinational logic.
    Comb,
    /// Declared constant.
    Const(u64),
    /// Never driven: permanently X.
    Undriven,
}

/// One flattened signal.
#[derive(Debug, Clone)]
pub struct SignalInfo {
    /// Hierarchical name (`u_f1_enable.cur_state` for instance-local nets).
    pub name: String,
    /// Width in bits.
    pub width: u32,
    /// Declared initial value, if any (registers without one start X).
    pub init: Option<u64>,
    /// Driver classification.
    pub kind: Kind,
}

/// A compiled expression with signal references resolved to indices.
#[derive(Debug, Clone)]
pub enum CExpr {
    /// A signal read.
    Sig(usize),
    /// A literal (always fully known).
    Lit(TWord),
    /// A binary operation.
    Bin {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<CExpr>,
        /// Right operand.
        rhs: Box<CExpr>,
    },
    /// Bitwise complement.
    Not(Box<CExpr>),
    /// Bit slice `base[hi..=lo]`.
    Slice {
        /// Sliced expression.
        base: Box<CExpr>,
        /// High bit (inclusive).
        hi: u32,
        /// Low bit (inclusive).
        lo: u32,
    },
    /// Concatenation, most-significant part first.
    Concat(Vec<CExpr>),
}

/// A compiled statement.
#[derive(Debug, Clone)]
pub enum CStmt {
    /// Non-blocking assignment to signal `lhs`.
    Assign {
        /// Target signal index.
        lhs: usize,
        /// Value expression.
        rhs: CExpr,
    },
    /// If / elsif chain with optional else.
    If {
        /// First condition.
        cond: CExpr,
        /// Taken when `cond` is true.
        then: Vec<CStmt>,
        /// `elsif` conditions and bodies, in order.
        elifs: Vec<(CExpr, Vec<CStmt>)>,
        /// Optional final else.
        els: Option<Vec<CStmt>>,
    },
    /// Case over an expression with literal arms.
    Case {
        /// Selector expression.
        expr: CExpr,
        /// `(match value, body)` arms in source order.
        arms: Vec<(u64, Vec<CStmt>)>,
        /// Optional default arm.
        default: Option<Vec<CStmt>>,
    },
}

/// One process or continuous assignment, with its read/write footprint.
#[derive(Debug, Clone)]
pub struct CNode {
    /// Statement body.
    pub body: Vec<CStmt>,
    /// Signals read anywhere in the body (conditions included).
    pub reads: Vec<usize>,
    /// Signals assigned anywhere in the body.
    pub writes: Vec<usize>,
    /// Human-readable origin, instance prefix included — e.g.
    /// ``process `smb` `` or ``u_f1.assign `IO_DONE` ``. Nodes flattened in
    /// from child instances contain a `.` in their site.
    pub site: String,
}

/// The flattened transition relation of one top module.
#[derive(Debug, Clone)]
pub struct CompiledDesign {
    /// Top module name.
    pub name: String,
    /// Every flattened signal.
    pub signals: Vec<SignalInfo>,
    /// Signal indices of the top-level input ports, in port order.
    pub inputs: Vec<usize>,
    /// Signal indices of the top-level output ports, in port order.
    pub outputs: Vec<usize>,
    /// Signal indices of all registers (state vector order).
    pub registers: Vec<usize>,
    /// Clocked processes (non-blocking step semantics).
    pub clocked: Vec<CNode>,
    /// Combinational nodes in evaluation order.
    pub comb_order: Vec<CNode>,
    /// Signals stuck in a combinational cycle (held at X).
    pub cyclic: Vec<usize>,
    by_name: HashMap<String, usize>,
}

impl CompiledDesign {
    /// Flatten `top` (which must be in `modules`) into a transition relation.
    pub fn compile(modules: &[Module], top: &str) -> Result<CompiledDesign, CompileError> {
        let top_module = modules.iter().find(|m| m.name == top).ok_or_else(|| {
            CompileError::UnknownModule { instance: "<top>".into(), module: top.into() }
        })?;
        let mut b = Builder {
            modules,
            signals: Vec::new(),
            by_name: HashMap::new(),
            clocked: Vec::new(),
            comb: Vec::new(),
        };

        // Top ports become environment-driven inputs / observed outputs.
        let mut scope: HashMap<String, usize> = HashMap::new();
        let mut inputs = Vec::new();
        let mut outputs = Vec::new();
        for p in &top_module.ports {
            let id = b.add_signal(p.name.clone(), p.width, None)?;
            scope.insert(p.name.clone(), id);
            match p.dir {
                Dir::In => inputs.push(id),
                Dir::Out => outputs.push(id),
            }
        }
        b.instantiate(top_module, "", scope)?;

        // Classify drivers.
        let mut kinds: Vec<Kind> = b
            .signals
            .iter()
            .map(|s| match s.init_const {
                Some(v) => Kind::Const(v),
                None => Kind::Undriven,
            })
            .collect();
        for &id in &inputs {
            kinds[id] = Kind::Input;
        }
        for node in &b.clocked {
            for &w in &node.writes {
                if kinds[w] == Kind::Comb {
                    return Err(CompileError::MixedDrivers { name: b.signals[w].name.clone() });
                }
                kinds[w] = Kind::Register;
            }
        }
        for node in &b.comb {
            for &w in &node.writes {
                if kinds[w] == Kind::Register {
                    return Err(CompileError::MixedDrivers { name: b.signals[w].name.clone() });
                }
                kinds[w] = Kind::Comb;
            }
        }

        let signals: Vec<SignalInfo> = b
            .signals
            .iter()
            .zip(&kinds)
            .map(|(s, &kind)| SignalInfo {
                name: s.name.clone(),
                width: s.width,
                init: s.init,
                kind,
            })
            .collect();
        let registers: Vec<usize> =
            (0..signals.len()).filter(|&i| matches!(signals[i].kind, Kind::Register)).collect();

        // Topologically order the combinational nodes. Nodes left over sit
        // in a cycle: their outputs are pinned to X.
        let producer_of: HashMap<usize, usize> = b
            .comb
            .iter()
            .enumerate()
            .flat_map(|(i, n)| n.writes.iter().map(move |&w| (w, i)))
            .collect();
        let n = b.comb.len();
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, node) in b.comb.iter().enumerate() {
            for r in &node.reads {
                if let Some(&p) = producer_of.get(r) {
                    if p != i {
                        adj[p].push(i);
                    }
                }
            }
        }
        let (order, placed) = graph::topo_order(n, &adj);
        let cyclic: Vec<usize> =
            (0..n).filter(|&i| !placed[i]).flat_map(|i| b.comb[i].writes.iter().copied()).collect();
        let ordered: Vec<CNode> = order.iter().map(|&i| b.comb[i].clone()).collect();

        Ok(CompiledDesign {
            name: top.into(),
            signals,
            inputs,
            outputs,
            registers,
            clocked: b.clocked,
            comb_order: ordered,
            cyclic,
            by_name: b.by_name,
        })
    }

    /// Look a flattened signal up by name.
    pub fn signal_id(&self, name: &str) -> Option<usize> {
        self.by_name.get(name).copied()
    }

    /// Total expression nodes across every executable statement: the size
    /// of the transition relation as the evaluator sees it (the
    /// `expr_nodes` attribute of the checker's `check.explore` spans).
    pub fn expr_node_count(&self) -> usize {
        fn expr(e: &CExpr) -> usize {
            match e {
                CExpr::Sig(_) | CExpr::Lit(_) => 1,
                CExpr::Bin { lhs, rhs, .. } => 1 + expr(lhs) + expr(rhs),
                CExpr::Not(inner) => 1 + expr(inner),
                CExpr::Slice { base, .. } => 1 + expr(base),
                CExpr::Concat(parts) => 1 + parts.iter().map(expr).sum::<usize>(),
            }
        }
        fn stmts(body: &[CStmt]) -> usize {
            body.iter()
                .map(|s| match s {
                    CStmt::Assign { rhs, .. } => expr(rhs),
                    CStmt::If { cond, then, elifs, els } => {
                        expr(cond)
                            + stmts(then)
                            + elifs.iter().map(|(c, b)| expr(c) + stmts(b)).sum::<usize>()
                            + els.as_ref().map(|b| stmts(b)).unwrap_or(0)
                    }
                    CStmt::Case { expr: sel, arms, default } => {
                        expr(sel)
                            + arms.iter().map(|(_, b)| stmts(b)).sum::<usize>()
                            + default.as_ref().map(|b| stmts(b)).unwrap_or(0)
                    }
                })
                .sum()
        }
        self.clocked.iter().chain(&self.comb_order).map(|n| stmts(&n.body)).sum()
    }

    /// The power-on register state: declared init values, X otherwise.
    pub fn initial_state(&self) -> Vec<TWord> {
        self.registers
            .iter()
            .map(|&id| {
                let s = &self.signals[id];
                match s.init {
                    Some(v) => TWord::known(v, s.width),
                    None => TWord::unknown(s.width),
                }
            })
            .collect()
    }

    /// Settle the full value vector for register state `state` and input
    /// vector `inputs` (parallel to [`CompiledDesign::inputs`]).
    pub fn eval(&self, state: &[TWord], inputs: &[TWord]) -> Vec<TWord> {
        self.eval_values(state, inputs)
    }

    /// One clock edge: returns the next register state. `inputs` are the
    /// values on the input ports at the edge.
    pub fn step(&self, state: &[TWord], inputs: &[TWord]) -> Vec<TWord> {
        self.step_values(state, inputs)
    }

    /// [`CompiledDesign::eval`] generalized over any value domain.
    pub fn eval_values<V: DomainValue>(&self, state: &[V], inputs: &[V]) -> Vec<V> {
        let mut interp = Interp::new(self);
        interp.settle(state, inputs);
        interp.values
    }

    /// [`CompiledDesign::step`] generalized over any value domain.
    pub fn step_values<V: DomainValue>(&self, state: &[V], inputs: &[V]) -> Vec<V> {
        let mut next = Vec::with_capacity(self.registers.len());
        Interp::new(self).step(state, inputs, &mut next);
        next
    }

    /// Render a compiled expression back to source-like text, resolving
    /// signal indices to their flattened names (for diagnostics).
    pub fn render_expr(&self, e: &CExpr) -> String {
        match e {
            CExpr::Sig(id) => self.signals[*id].name.clone(),
            CExpr::Lit(v) => match v.value() {
                Some(n) => format!("{n}"),
                None => format!("'{}'", v.render()),
            },
            CExpr::Bin { op, lhs, rhs } => {
                let sym = match op {
                    BinOp::Eq => "==",
                    BinOp::Ne => "/=",
                    BinOp::Add => "+",
                    BinOp::Sub => "-",
                    BinOp::And => "and",
                    BinOp::Or => "or",
                    BinOp::Lt => "<",
                    BinOp::Ge => ">=",
                };
                format!("({} {} {})", self.render_expr(lhs), sym, self.render_expr(rhs))
            }
            CExpr::Not(inner) => format!("not {}", self.render_expr(inner)),
            CExpr::Slice { base, hi, lo } => {
                format!("{}[{hi}:{lo}]", self.render_expr(base))
            }
            CExpr::Concat(parts) => {
                let inner: Vec<String> = parts.iter().map(|p| self.render_expr(p)).collect();
                format!("{{{}}}", inner.join(", "))
            }
        }
    }
}

/// Build-time signal record.
struct BSignal {
    name: String,
    width: u32,
    init: Option<u64>,
    init_const: Option<u64>,
}

struct Builder<'a> {
    modules: &'a [Module],
    signals: Vec<BSignal>,
    by_name: HashMap<String, usize>,
    clocked: Vec<CNode>,
    comb: Vec<CNode>,
}

impl Builder<'_> {
    fn add_signal(
        &mut self,
        name: String,
        width: u32,
        init: Option<u64>,
    ) -> Result<usize, CompileError> {
        if width > 64 {
            return Err(CompileError::TooWide { name, width });
        }
        let id = self.signals.len();
        self.by_name.insert(name.clone(), id);
        self.signals.push(BSignal { name, width, init, init_const: None });
        Ok(id)
    }

    /// Flatten one module body into the global tables. `scope` maps the
    /// module's local names (ports and decls) to global signal indices.
    fn instantiate(
        &mut self,
        module: &Module,
        prefix: &str,
        mut scope: HashMap<String, usize>,
    ) -> Result<(), CompileError> {
        for d in &module.decls {
            match d {
                Decl::Signal { name, width, init } => {
                    let id = self.add_signal(format!("{prefix}{name}"), *width, *init)?;
                    scope.insert(name.clone(), id);
                }
                Decl::Constant { name, width, value } => {
                    let id = self.add_signal(format!("{prefix}{name}"), *width, None)?;
                    self.signals[id].init_const = Some(*value);
                    scope.insert(name.clone(), id);
                }
                Decl::Comment(_) => {}
            }
        }
        for item in &module.items {
            match item {
                Item::Process(p) => {
                    let mut reads = Vec::new();
                    let mut writes = Vec::new();
                    let body =
                        compile_block(&p.body, &scope, &module.name, &mut reads, &mut writes)?;
                    let site = format!("{prefix}process `{}`", p.label);
                    let node = CNode { body, reads, writes, site };
                    if p.clocked {
                        self.clocked.push(node);
                    } else {
                        self.comb.push(node);
                    }
                }
                Item::Assign { lhs, rhs } => {
                    let mut reads = Vec::new();
                    let mut writes = Vec::new();
                    let stmt = Stmt::Assign { lhs: lhs.clone(), rhs: rhs.clone() };
                    let body = compile_block(
                        std::slice::from_ref(&stmt),
                        &scope,
                        &module.name,
                        &mut reads,
                        &mut writes,
                    )?;
                    let site = format!("{prefix}assign `{lhs}`");
                    self.comb.push(CNode { body, reads, writes, site });
                }
                Item::Instance(inst) => {
                    let child =
                        self.modules.iter().find(|m| m.name == inst.module).ok_or_else(|| {
                            CompileError::UnknownModule {
                                instance: inst.label.clone(),
                                module: inst.module.clone(),
                            }
                        })?;
                    let mut child_scope: HashMap<String, usize> = HashMap::new();
                    for port in &child.ports {
                        let actual =
                            inst.connections.iter().find(|(f, _)| f == &port.name).map(|(_, a)| a);
                        let id = match actual {
                            Some(a) => {
                                *scope.get(a).ok_or_else(|| CompileError::UnknownSignal {
                                    module: module.name.clone(),
                                    name: a.clone(),
                                })?
                            }
                            // Unconnected ports get a private net: inputs
                            // float at X, outputs drive into nothing.
                            None => self.add_signal(
                                format!("{prefix}{}.{}", inst.label, port.name),
                                port.width,
                                None,
                            )?,
                        };
                        child_scope.insert(port.name.clone(), id);
                    }
                    let child_prefix = format!("{prefix}{}.", inst.label);
                    self.instantiate(child, &child_prefix, child_scope)?;
                }
                Item::Comment(_) => {}
            }
        }
        Ok(())
    }
}

fn compile_block(
    stmts: &[Stmt],
    scope: &HashMap<String, usize>,
    module: &str,
    reads: &mut Vec<usize>,
    writes: &mut Vec<usize>,
) -> Result<Vec<CStmt>, CompileError> {
    let mut out = Vec::new();
    for s in stmts {
        match s {
            Stmt::Assign { lhs, rhs } => {
                let id = *scope.get(lhs).ok_or_else(|| CompileError::UnknownSignal {
                    module: module.into(),
                    name: lhs.clone(),
                })?;
                if !writes.contains(&id) {
                    writes.push(id);
                }
                out.push(CStmt::Assign { lhs: id, rhs: compile_expr(rhs, scope, module, reads)? });
            }
            Stmt::If { cond, then, elifs, els } => {
                let cond = compile_expr(cond, scope, module, reads)?;
                let then = compile_block(then, scope, module, reads, writes)?;
                let mut celifs = Vec::with_capacity(elifs.len());
                for (c, b) in elifs {
                    celifs.push((
                        compile_expr(c, scope, module, reads)?,
                        compile_block(b, scope, module, reads, writes)?,
                    ));
                }
                let els = match els {
                    Some(b) => Some(compile_block(b, scope, module, reads, writes)?),
                    None => None,
                };
                out.push(CStmt::If { cond, then, elifs: celifs, els });
            }
            Stmt::Case { expr, arms, default } => {
                let expr = compile_expr(expr, scope, module, reads)?;
                let mut carms = Vec::with_capacity(arms.len());
                for (v, b) in arms {
                    carms.push((*v, compile_block(b, scope, module, reads, writes)?));
                }
                let default = match default {
                    Some(b) => Some(compile_block(b, scope, module, reads, writes)?),
                    None => None,
                };
                out.push(CStmt::Case { expr, arms: carms, default });
            }
            Stmt::Comment(_) | Stmt::Null => {}
        }
    }
    Ok(out)
}

fn compile_expr(
    e: &Expr,
    scope: &HashMap<String, usize>,
    module: &str,
    reads: &mut Vec<usize>,
) -> Result<CExpr, CompileError> {
    Ok(match e {
        Expr::Sig(name) => {
            let id = *scope.get(name).ok_or_else(|| CompileError::UnknownSignal {
                module: module.into(),
                name: name.clone(),
            })?;
            if !reads.contains(&id) {
                reads.push(id);
            }
            CExpr::Sig(id)
        }
        Expr::Lit { value, width } => CExpr::Lit(TWord::known(*value, *width)),
        Expr::Bin { op, lhs, rhs } => CExpr::Bin {
            op: *op,
            lhs: Box::new(compile_expr(lhs, scope, module, reads)?),
            rhs: Box::new(compile_expr(rhs, scope, module, reads)?),
        },
        Expr::Not(inner) => CExpr::Not(Box::new(compile_expr(inner, scope, module, reads)?)),
        Expr::Slice { base, hi, lo } => CExpr::Slice {
            base: Box::new(compile_expr(base, scope, module, reads)?),
            hi: *hi,
            lo: *lo,
        },
        Expr::Concat(parts) => {
            let mut cp = Vec::with_capacity(parts.len());
            for p in parts {
                cp.push(compile_expr(p, scope, module, reads)?);
            }
            CExpr::Concat(cp)
        }
    })
}

/// Three-valued truth of a condition expression's value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Truth {
    /// Provably nonzero.
    True,
    /// Provably zero.
    False,
    /// Could be either.
    Unknown,
}

/// A value domain the flattened design can execute over: the concrete
/// ternary [`TWord`] or an abstract domain like `crate::domain::AbsVal`.
/// Every operation must be a sound (over-approximating) counterpart of
/// the concrete one.
pub trait DomainValue: Copy + PartialEq + std::fmt::Debug {
    /// A fully known literal.
    fn lit(value: u64, width: u32) -> Self;
    /// The value of a never-assigned signal (X / possibly uninitialized).
    fn undriven(width: u32) -> Self;
    /// Vector width in bits.
    fn width(&self) -> u32;
    /// Zero-extend or truncate.
    fn resize(&self, width: u32) -> Self;
    /// Apply a binary operator.
    fn binop(op: BinOp, lhs: &Self, rhs: &Self) -> Self;
    /// Bitwise complement.
    fn not(&self) -> Self;
    /// Bit slice `[hi..=lo]`.
    fn slice(&self, hi: u32, lo: u32) -> Self;
    /// Concatenate with `low` below this word.
    fn concat(&self, low: &Self) -> Self;
    /// Branch-merge join (least upper bound of the two values).
    fn join(&self, other: &Self) -> Self;
    /// The join of two alternatives of a fork on the unknown `_cond`.
    /// Where the condition may be an uninitialized X, so may every bit the
    /// alternatives may disagree on. [`TWord::join`] already makes those
    /// bits X, so only a domain that tells X apart from other unknowns
    /// overrides this.
    fn fork_join(&self, other: &Self, _cond: &Self) -> Self {
        self.join(other)
    }
    /// Three-valued truth as a branch condition.
    fn truth(&self) -> Truth;
    /// The single concrete value, when the domain pins one down.
    fn value(&self) -> Option<u64>;
    /// Could the value equal the concrete `v`?
    fn may_equal(&self, v: u64) -> bool;
}

impl DomainValue for TWord {
    fn lit(value: u64, width: u32) -> TWord {
        TWord::known(value, width)
    }
    fn undriven(width: u32) -> TWord {
        TWord::unknown(width)
    }
    fn width(&self) -> u32 {
        self.width
    }
    fn resize(&self, width: u32) -> TWord {
        TWord::resize(self, width)
    }
    fn binop(op: BinOp, lhs: &TWord, rhs: &TWord) -> TWord {
        match op {
            BinOp::Eq => TWord::eq(lhs, rhs),
            BinOp::Ne => TWord::ne(lhs, rhs),
            BinOp::Add => TWord::add(lhs, rhs),
            BinOp::Sub => TWord::sub(lhs, rhs),
            BinOp::And => TWord::and(lhs, rhs),
            BinOp::Or => TWord::or(lhs, rhs),
            BinOp::Lt => TWord::lt(lhs, rhs),
            BinOp::Ge => TWord::ge(lhs, rhs),
        }
    }
    fn not(&self) -> TWord {
        TWord::not(self)
    }
    fn slice(&self, hi: u32, lo: u32) -> TWord {
        TWord::slice(self, hi, lo)
    }
    fn concat(&self, low: &TWord) -> TWord {
        TWord::concat(self, low)
    }
    fn join(&self, other: &TWord) -> TWord {
        TWord::join(self, other)
    }
    fn truth(&self) -> Truth {
        if self.bits != 0 {
            // Some bit is known 1: nonzero regardless of the X bits.
            Truth::True
        } else if self.unknown != 0 {
            Truth::Unknown
        } else {
            Truth::False
        }
    }
    fn value(&self) -> Option<u64> {
        TWord::value(self)
    }
    fn may_equal(&self, v: u64) -> bool {
        TWord::may_equal(self, v)
    }
}

/// Evaluate a compiled expression over the current value vector.
pub fn eval_expr<V: DomainValue>(e: &CExpr, values: &[V]) -> V {
    match e {
        CExpr::Sig(id) => values[*id],
        CExpr::Lit(v) => V::lit(v.bits, v.width),
        CExpr::Bin { op, lhs, rhs } => {
            let a = eval_expr(lhs, values);
            let b = eval_expr(rhs, values);
            V::binop(*op, &a, &b)
        }
        CExpr::Not(inner) => eval_expr(inner, values).not(),
        CExpr::Slice { base, hi, lo } => eval_expr(base, values).slice(*hi, *lo),
        CExpr::Concat(parts) => {
            let mut it = parts.iter();
            let first = it.next().map(|p| eval_expr(p, values)).unwrap_or(V::lit(0, 1));
            // Most-significant part first.
            it.fold(first, |acc, p| acc.concat(&eval_expr(p, values)))
        }
    }
}

/// The tree-walk interpreter bound to one design, owning every buffer a
/// settle or a clock edge needs — the value vector, the blank vector it is
/// reset from, and the pending-write table — so repeated calls neither hash
/// nor allocate. [`CompiledDesign::eval_values`] and
/// [`CompiledDesign::step_values`] are one-shot wrappers around it; hot
/// loops such as the model checker's BFS keep one alive instead.
pub struct Interp<'d, V> {
    d: &'d CompiledDesign,
    /// Every signal before any logic runs: constants at their literal,
    /// everything else undriven.
    blank: Vec<V>,
    values: Vec<V>,
    pending: Pending<V>,
}

impl<'d, V: DomainValue> Interp<'d, V> {
    /// Buffers sized for `d`.
    pub fn new(d: &'d CompiledDesign) -> Interp<'d, V> {
        let blank: Vec<V> = d
            .signals
            .iter()
            .map(|s| match s.kind {
                Kind::Const(v) => V::lit(v, s.width),
                _ => V::undriven(s.width),
            })
            .collect();
        Interp { d, values: blank.clone(), blank, pending: Pending::new(d.signals.len()) }
    }

    /// Settle the full value vector (indexed by signal id) for register
    /// state `state` and input vector `inputs`, as
    /// [`CompiledDesign::eval_values`] does.
    pub fn settle(&mut self, state: &[V], inputs: &[V]) -> &[V] {
        let d = self.d;
        self.values.copy_from_slice(&self.blank);
        for (slot, &id) in d.inputs.iter().enumerate() {
            self.values[id] = inputs[slot].resize(d.signals[id].width);
        }
        for (slot, &id) in d.registers.iter().enumerate() {
            self.values[id] = state[slot].resize(d.signals[id].width);
        }
        let undriven = |id: usize| V::undriven(d.signals[id].width);
        for node in &d.comb_order {
            exec_block(&node.body, &self.values, &mut self.pending, &undriven);
            for &id in &self.pending.written {
                self.values[id] =
                    self.pending.get(id).expect("written").resize(d.signals[id].width);
            }
            self.pending.clear();
        }
        for &id in &d.cyclic {
            self.values[id] = undriven(id);
        }
        &self.values
    }

    /// One clock edge, as [`CompiledDesign::step_values`] does: `next` is
    /// overwritten with the next register state.
    pub fn step(&mut self, state: &[V], inputs: &[V], next: &mut Vec<V>) {
        self.settle(state, inputs);
        let d = self.d;
        let values = &self.values;
        for node in &d.clocked {
            // Non-blocking: every process reads the same pre-edge values;
            // unassigned registers hold their current value.
            exec_block(&node.body, values, &mut self.pending, &|id| values[id]);
        }
        next.clear();
        next.extend(d.registers.iter().enumerate().map(|(slot, &id)| match self.pending.get(id) {
            Some(v) => v.resize(d.signals[id].width),
            None => state[slot],
        }));
        self.pending.clear();
    }
}

/// Non-blocking writes awaiting commit, keyed by dense signal id: one slot
/// per signal plus the ids written so far, so a write or lookup is an
/// index and a clear touches only what was written. While a [`fork`] is
/// open, every write also logs the entry it replaced, so each alternative
/// is rewound by popping its own writes: a fork costs what its
/// alternatives write, not what earlier statements and processes left.
struct Pending<V> {
    slots: Vec<Option<V>>,
    /// Ids whose slot is set, each once.
    written: Vec<usize>,
    /// Forks open; writes are logged while this is nonzero.
    forks: usize,
    /// `(id, entry it replaced)` for every write made inside a fork,
    /// innermost fork last.
    undo: Vec<(usize, Option<V>)>,
    /// Per open fork, innermost last: the join of the alternatives folded
    /// so far, one entry per signal some alternative wrote.
    joined: Vec<(usize, V)>,
    /// Scratch membership flags for [`Pending::fold`], all false between
    /// calls.
    seen: Vec<bool>,
}

/// Where an open fork's entries start in [`Pending`]'s buffers.
struct Fork {
    undo: usize,
    written: usize,
    joined: usize,
}

impl<V: DomainValue> Pending<V> {
    fn new(signals: usize) -> Pending<V> {
        Pending {
            slots: vec![None; signals],
            written: Vec::new(),
            forks: 0,
            undo: Vec::new(),
            joined: Vec::new(),
            seen: vec![false; signals],
        }
    }

    fn get(&self, id: usize) -> Option<V> {
        self.slots[id]
    }

    /// Record a write; a later write to the same signal replaces it.
    fn set(&mut self, id: usize, v: V) {
        let replaced = self.slots[id].replace(v);
        if replaced.is_none() {
            self.written.push(id);
        }
        if self.forks > 0 {
            self.undo.push((id, replaced));
        }
    }

    fn clear(&mut self) {
        for &id in &self.written {
            self.slots[id] = None;
        }
        self.written.clear();
    }

    fn open(&mut self) -> Fork {
        self.forks += 1;
        Fork { undo: self.undo.len(), written: self.written.len(), joined: self.joined.len() }
    }

    /// Fold the alternative that just ran into `f`'s join, then rewind its
    /// writes. The `first` alternative's entries start the join; a later
    /// one's are joined into it with [`DomainValue::fork_join`] on `cond`,
    /// the value the fork branched on. Only signals some alternative
    /// wrote are visited, and a side that left one unwritten contributes
    /// its pre-fork entry, or `hold(id)` without one.
    fn fold(&mut self, f: &Fork, first: bool, cond: &V, hold: &dyn Fn(usize) -> V) {
        let folded = self.joined.len();
        for &(id, _) in &self.joined[f.joined..] {
            self.seen[id] = true;
        }
        // A signal's first logged entry is the one from before the fork.
        for &(id, before) in &self.undo[f.undo..] {
            if !self.seen[id] {
                self.seen[id] = true;
                let now = self.slots[id].expect("written");
                let v = if first {
                    now
                } else {
                    before.unwrap_or_else(|| hold(id)).fork_join(&now, cond)
                };
                self.joined.push((id, v));
            }
        }
        for (id, v) in &mut self.joined[f.joined..folded] {
            *v = v.fork_join(&self.slots[*id].unwrap_or_else(|| hold(*id)), cond);
        }
        for &(id, _) in &self.joined[f.joined..] {
            self.seen[id] = false;
        }
        for (id, before) in self.undo.drain(f.undo..).rev() {
            self.slots[id] = before;
        }
        self.written.truncate(f.written);
    }

    /// Close `f`: its join replaces the entries from before it.
    fn close(&mut self, f: Fork) {
        self.forks -= 1;
        for i in f.joined..self.joined.len() {
            let (id, v) = self.joined[i];
            self.set(id, v);
        }
        self.joined.truncate(f.joined);
    }
}

/// Execute a statement block: `pending` accumulates non-blocking writes;
/// `hold(id)` is the value a signal keeps when a branch does not assign it
/// (the current register value in clocked processes, X in combinational
/// ones — an unassigned combinational path is a latch, modelled as X).
fn exec_block<V: DomainValue>(
    stmts: &[CStmt],
    values: &[V],
    pending: &mut Pending<V>,
    hold: &dyn Fn(usize) -> V,
) {
    for s in stmts {
        match s {
            CStmt::Assign { lhs, rhs } => pending.set(*lhs, eval_expr(rhs, values)),
            CStmt::If { cond, then, elifs, els } => {
                exec_if(cond, then, elifs, els.as_deref(), values, pending, hold);
            }
            CStmt::Case { expr, arms, default } => {
                let sel = eval_expr(expr, values);
                if let Some(v) = sel.value() {
                    match arms.iter().find(|(a, _)| *a & crate::tv::mask(sel.width()) == v) {
                        Some((_, body)) => exec_block(body, values, pending, hold),
                        None => {
                            if let Some(d) = default {
                                exec_block(d, values, pending, hold);
                            }
                        }
                    }
                    continue;
                }
                // A partially unknown selector joins every arm it may
                // match, in order, then the default — or, without one,
                // the path that executes nothing.
                let reachable = arms
                    .iter()
                    .filter(|(a, _)| sel.may_equal(*a))
                    .map(|(_, body)| Some(body.as_slice()));
                fork(
                    &sel,
                    reachable.chain(std::iter::once(default.as_deref())),
                    pending,
                    hold,
                    |arm, p| {
                        if let Some(body) = arm {
                            exec_block(body, values, p, hold);
                        }
                    },
                );
            }
        }
    }
}

/// One arm of an `if` / `elsif` chain; `rest` and `els` are the arms
/// after it, walked in place. An unknown condition joins this arm's body
/// with the rest of the chain.
fn exec_if<V: DomainValue>(
    cond: &CExpr,
    body: &[CStmt],
    rest: &[(CExpr, Vec<CStmt>)],
    els: Option<&[CStmt]>,
    values: &[V],
    pending: &mut Pending<V>,
    hold: &dyn Fn(usize) -> V,
) {
    let c = eval_expr(cond, values);
    match c.truth() {
        Truth::True => exec_block(body, values, pending, hold),
        Truth::False => exec_else(rest, els, values, pending, hold),
        Truth::Unknown => fork(&c, 0..2, pending, hold, |k, p| match k {
            0 => exec_block(body, values, p, hold),
            _ => exec_else(rest, els, values, p, hold),
        }),
    }
}

/// The part of an `if` chain after an arm: the next `elsif`, else the
/// final `else`, if any.
fn exec_else<V: DomainValue>(
    rest: &[(CExpr, Vec<CStmt>)],
    els: Option<&[CStmt]>,
    values: &[V],
    pending: &mut Pending<V>,
    hold: &dyn Fn(usize) -> V,
) {
    match rest.split_first() {
        Some(((cond, body), rest)) => exec_if(cond, body, rest, els, values, pending, hold),
        None => {
            if let Some(e) = els {
                exec_block(e, values, pending, hold);
            }
        }
    }
}

/// A branch on the unknown `cond`: `run` executes each of `alternatives`
/// in turn, every one on the pending entries from before the fork, and
/// their results are joined in order into the entries after it.
fn fork<V: DomainValue, A>(
    cond: &V,
    alternatives: impl Iterator<Item = A>,
    pending: &mut Pending<V>,
    hold: &dyn Fn(usize) -> V,
    mut run: impl FnMut(A, &mut Pending<V>),
) {
    let f = pending.open();
    for (k, alt) in alternatives.enumerate() {
        run(alt, pending);
        pending.fold(&f, k == 0, cond, hold);
    }
    pending.close(f);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::AbsVal;
    use splice_hdl::{Port, Process};

    /// A 2-bit counter with an enable and a comb `is_max` flag.
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

    fn inputs(d: &CompiledDesign, pairs: &[(&str, u64)]) -> Vec<TWord> {
        d.inputs
            .iter()
            .map(|&id| {
                let s = &d.signals[id];
                let v = pairs.iter().find(|(n, _)| *n == s.name).map(|(_, v)| *v).unwrap_or(0);
                TWord::known(v, s.width)
            })
            .collect()
    }

    #[test]
    fn counter_counts_and_comb_settles() {
        let m = counter_module(true);
        let d = CompiledDesign::compile(std::slice::from_ref(&m), "ctr").unwrap();
        let mut state = d.initial_state();
        let en = inputs(&d, &[("EN", 1)]);
        for _ in 0..3 {
            state = d.step(&state, &en);
        }
        let values = d.eval(&state, &en);
        let count = d.signal_id("count").unwrap();
        assert_eq!(values[count], TWord::known(3, 2));
        assert_eq!(values[d.signal_id("IS_MAX").unwrap()], TWord::known(1, 1));
        // Wraps.
        state = d.step(&state, &en);
        assert_eq!(d.eval(&state, &en)[count], TWord::known(0, 2));
    }

    #[test]
    fn uninitialized_register_starts_x_and_reset_ignores_it() {
        let m = counter_module(false);
        let d = CompiledDesign::compile(std::slice::from_ref(&m), "ctr").unwrap();
        let state = d.initial_state();
        assert_eq!(state[0], TWord::unknown(2));
        // Counting from X stays X (conservative add).
        let stepped = d.step(&state, &inputs(&d, &[("EN", 1)]));
        assert_eq!(stepped[0], TWord::unknown(2));
        // But an explicit reset drives it to a known 0.
        let reset = d.step(&state, &inputs(&d, &[("RST", 1)]));
        assert_eq!(reset[0], TWord::known(0, 2));
    }

    #[test]
    fn x_condition_joins_branches() {
        // EN unknown: count could stay 0 or advance to 1 -> low bit X.
        let m = counter_module(true);
        let d = CompiledDesign::compile(std::slice::from_ref(&m), "ctr").unwrap();
        let state = d.initial_state();
        let mut ins = inputs(&d, &[]);
        let en_slot = d.inputs.iter().position(|&id| d.signals[id].name == "EN").unwrap();
        ins[en_slot] = TWord::unknown(1);
        let next = d.step(&state, &ins);
        assert_eq!(next[0], TWord { bits: 0, unknown: 0b01, width: 2 });
    }

    #[test]
    fn instance_flattening_shares_parent_nets() {
        let child = counter_module(true);
        let mut parent = Module::new("top");
        parent.ports = vec![
            Port::input("CLK", 1),
            Port::input("RST", 1),
            Port::input("GO", 1),
            Port::output("DONE", 1),
        ];
        parent.items.push(Item::Instance(splice_hdl::Instance {
            label: "u_ctr".into(),
            module: "ctr".into(),
            connections: vec![
                ("CLK".into(), "CLK".into()),
                ("RST".into(), "RST".into()),
                ("EN".into(), "GO".into()),
                ("IS_MAX".into(), "DONE".into()),
            ],
        }));
        let d = CompiledDesign::compile(&[child, parent], "top").unwrap();
        assert!(d.signal_id("u_ctr.count").is_some(), "child local is prefixed");
        // Nodes flattened in from the child carry the instance prefix in
        // their site label; top-level nodes do not.
        assert!(d.clocked.iter().any(|n| n.site == "u_ctr.process `tick`"), "prefixed site");
        let mut state = d.initial_state();
        let go = inputs(&d, &[("GO", 1)]);
        for _ in 0..3 {
            state = d.step(&state, &go);
        }
        let done = d.signal_id("DONE").unwrap();
        assert_eq!(d.eval(&state, &go)[done], TWord::known(1, 1));
    }

    #[test]
    fn comb_cycle_pins_to_x() {
        let mut m = Module::new("loopy");
        m.ports = vec![Port::input("CLK", 1), Port::output("O", 1)];
        m.decls = vec![
            Decl::Signal { name: "a".into(), width: 1, init: None },
            Decl::Signal { name: "b".into(), width: 1, init: None },
        ];
        m.items.push(Item::Assign { lhs: "a".into(), rhs: Expr::sig("b") });
        m.items.push(Item::Assign { lhs: "b".into(), rhs: Expr::sig("a") });
        m.items.push(Item::Assign { lhs: "O".into(), rhs: Expr::lit(1, 1) });
        let d = CompiledDesign::compile(std::slice::from_ref(&m), "loopy").unwrap();
        let values = d.eval(&d.initial_state(), &[TWord::known(0, 1)]);
        assert_eq!(values[d.signal_id("a").unwrap()], TWord::unknown(1));
        assert_eq!(values[d.signal_id("O").unwrap()], TWord::known(1, 1));
    }

    #[test]
    fn case_with_unknown_selector_joins_reachable_arms() {
        let mut m = Module::new("mux");
        m.ports = vec![Port::input("CLK", 1), Port::input("SEL", 2), Port::output("O", 4)];
        m.items.push(Item::Process(Process {
            label: "mux".into(),
            clocked: false,
            body: vec![Stmt::Case {
                expr: Expr::sig("SEL"),
                arms: vec![
                    (0, vec![Stmt::assign("O", Expr::lit(0b0101, 4))]),
                    (1, vec![Stmt::assign("O", Expr::lit(0b0111, 4))]),
                    (2, vec![Stmt::assign("O", Expr::lit(0b1111, 4))]),
                ],
                default: Some(vec![Stmt::assign("O", Expr::lit(0, 4))]),
            }],
        }));
        let d = CompiledDesign::compile(std::slice::from_ref(&m), "mux").unwrap();
        let o = d.signal_id("O").unwrap();
        // SEL = known 1.
        let v = d.eval(&[], &[TWord::known(0, 1), TWord::known(1, 2)]);
        assert_eq!(v[o], TWord::known(0b0111, 4));
        // SEL = 0b0x: arms 0 and 1 reachable, defaults too (conservative):
        // bits where all reachable values agree stay known.
        let sel = TWord { bits: 0, unknown: 0b01, width: 2 };
        let v = d.eval(&[], &[TWord::known(0, 1), sel]);
        assert!(v[o].unknown != 0, "join must produce unknowns: {:?}", v[o]);
        assert_eq!(v[o].bits & 0b1000, 0, "bit 3 is 0 in arms 0/1 and default");
    }

    /// `if A .. elsif B .. elsif C .. else ..` driving a one-hot code per
    /// arm into `O`, plus `P`, assigned only by the `B` arm.
    fn chain_module() -> Module {
        let mut m = Module::new("chain");
        m.ports = vec![
            Port::input("CLK", 1),
            Port::input("A", 1),
            Port::input("B", 1),
            Port::input("C", 1),
            Port::output("O", 4),
            Port::output("P", 1),
        ];
        m.items.push(Item::Process(Process {
            label: "chain".into(),
            clocked: false,
            body: vec![Stmt::If {
                cond: Expr::sig("A"),
                then: vec![Stmt::assign("O", Expr::lit(0b0001, 4))],
                elifs: vec![
                    (
                        Expr::sig("B"),
                        vec![
                            Stmt::assign("O", Expr::lit(0b0010, 4)),
                            Stmt::assign("P", Expr::lit(1, 1)),
                        ],
                    ),
                    (Expr::sig("C"), vec![Stmt::assign("O", Expr::lit(0b0100, 4))]),
                ],
                els: Some(vec![Stmt::assign("O", Expr::lit(0b1000, 4))]),
            }],
        }));
        m
    }

    #[test]
    fn x_in_an_elsif_chain_joins_exactly_the_reachable_tails() {
        let m = chain_module();
        let d = CompiledDesign::compile(std::slice::from_ref(&m), "chain").unwrap();
        let (o, p) = (d.signal_id("O").unwrap(), d.signal_id("P").unwrap());
        let (f, t, x) = (TWord::known(0, 1), TWord::known(1, 1), TWord::unknown(1));
        let eval = |a, b, c| d.eval(&[], &[f, a, b, c]);

        // A false, B unknown, C true: the B and C arms are reachable; the
        // known-true C cuts the chain, so neither A nor the else joins in.
        let v = eval(f, x, t);
        assert_eq!(v[o], TWord { bits: 0, unknown: 0b0110, width: 4 });
        // P is assigned only on the B path: the C path leaves it a latch.
        assert_eq!(v[p], TWord::unknown(1));

        // With C false the else arm replaces C as the other tail.
        assert_eq!(eval(f, x, f)[o], TWord { bits: 0, unknown: 0b1010, width: 4 });
        // With C unknown too, B, C and the else all join.
        assert_eq!(eval(f, x, x)[o], TWord { bits: 0, unknown: 0b1110, width: 4 });
        // A known-true first arm cuts everything after it, X or not.
        assert_eq!(eval(t, x, x)[o], TWord::known(0b0001, 4));
        // A known-true B ends the chain before C and the else.
        assert_eq!(eval(f, t, x)[o], TWord::known(0b0010, 4));
    }

    #[test]
    fn last_nonblocking_write_wins_within_and_across_processes() {
        let mut m = Module::new("nb");
        m.ports = vec![Port::input("CLK", 1), Port::input("EN", 1), Port::output("Q", 4)];
        m.decls = vec![
            Decl::Signal { name: "r".into(), width: 4, init: Some(0) },
            Decl::Signal { name: "s".into(), width: 4, init: Some(0) },
        ];
        m.items.push(Item::Process(Process {
            label: "first".into(),
            clocked: true,
            body: vec![
                Stmt::assign("r", Expr::lit(1, 4)),
                Stmt::assign("s", Expr::lit(5, 4)),
                Stmt::if_then(Expr::sig("EN"), vec![Stmt::assign("r", Expr::lit(2, 4))]),
                Stmt::assign("r", Expr::sig("r").add(Expr::lit(3, 4))),
            ],
        }));
        m.items.push(Item::Process(Process {
            label: "second".into(),
            clocked: true,
            body: vec![Stmt::assign("s", Expr::sig("r").add(Expr::lit(6, 4)))],
        }));
        m.items.push(Item::Assign { lhs: "Q".into(), rhs: Expr::sig("s") });
        let d = CompiledDesign::compile(std::slice::from_ref(&m), "nb").unwrap();
        let slot = |name: &str| d.registers.iter().position(|&id| d.signals[id].name == name);
        let (r, s) = (slot("r").unwrap(), slot("s").unwrap());
        for en in [TWord::known(0, 1), TWord::known(1, 1), TWord::unknown(1)] {
            let state = d.step(&d.initial_state(), &[TWord::known(0, 1), en]);
            // Within `first`, the final write to `r` replaces the earlier
            // ones, however the `if` resolved; it reads the pre-edge 0.
            assert_eq!(state[r], TWord::known(3, 4), "EN = {en:?}");
            // `second` runs after `first` and its write to `s` wins.
            assert_eq!(state[s], TWord::known(6, 4), "EN = {en:?}");
            // Reads saw pre-edge values on both processes: a second edge
            // moves `s` to r + 6 = 9.
            let again = d.step(&state, &[TWord::known(0, 1), en]);
            assert_eq!(again[s], TWord::known(9, 4), "EN = {en:?}");
        }
    }

    /// Process `first` schedules `r <= 1`; process `second` then writes
    /// `r <= 2` only on one side of `fork`, a branch on the unknown `EN`.
    fn cross_process_fork_module(fork: Stmt) -> Module {
        let mut m = Module::new("xp");
        m.ports = vec![Port::input("CLK", 1), Port::input("EN", 1), Port::output("Q", 4)];
        m.decls = vec![Decl::Signal { name: "r".into(), width: 4, init: Some(0) }];
        m.items.push(Item::Process(Process {
            label: "first".into(),
            clocked: true,
            body: vec![Stmt::assign("r", Expr::lit(1, 4))],
        }));
        m.items.push(Item::Process(Process {
            label: "second".into(),
            clocked: true,
            body: vec![fork],
        }));
        m.items.push(Item::Assign { lhs: "Q".into(), rhs: Expr::sig("r") });
        m
    }

    #[test]
    fn x_fork_joins_with_what_an_earlier_process_scheduled() {
        let write_2 = || vec![Stmt::assign("r", Expr::lit(2, 4))];
        let case = |arms, default| Stmt::Case { expr: Expr::sig("EN"), arms, default };
        // The write on the first alternative of the fork, then on a later one.
        let forks = [
            Stmt::if_then(Expr::sig("EN"), write_2()),
            Stmt::if_else(Expr::sig("EN"), Vec::new(), write_2()),
            case(vec![(1, write_2())], None),
            case(vec![(0, Vec::new())], Some(write_2())),
        ];
        for fork in forks {
            let m = cross_process_fork_module(fork);
            let d = CompiledDesign::compile(std::slice::from_ref(&m), "xp").unwrap();
            // The side that skips the write keeps `first`'s pending 1, not
            // the pre-edge 0: join(2, 1) = 00xx, where join(2, 0) = 00x0.
            let next = d.step(&d.initial_state(), &[TWord::known(0, 1), TWord::unknown(1)]);
            assert_eq!(next[0], TWord { bits: 0, unknown: 0b0011, width: 4 }, "{m:?}");
            let state = [AbsVal::known(0, 4)];
            let next = d.step_values(&state, &[AbsVal::known(0, 1), AbsVal::top(1)]);
            assert_eq!((next[0].lo, next[0].hi), (1, 2), "{m:?}");
            assert_eq!(next[0], AbsVal::known(2, 4).join(&AbsVal::known(1, 4)), "{m:?}");
        }
    }

    #[test]
    fn render_expr_resolves_names() {
        let m = counter_module(true);
        let d = CompiledDesign::compile(std::slice::from_ref(&m), "ctr").unwrap();
        let node =
            d.comb_order.iter().find(|n| n.site == "assign `IS_MAX`").expect("is_max assign");
        let CStmt::Assign { rhs, .. } = &node.body[0] else { panic!("assign body") };
        assert_eq!(d.render_expr(rhs), "(count == 3)");
    }
}
