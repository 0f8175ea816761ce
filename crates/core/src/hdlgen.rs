//! HDL generation: [`DesignIr`] → generated source files.
//!
//! Reproduces the three-stage generation of chapter 5 and the file
//! inventory of Fig 8.3:
//!
//! 1. the **native bus interface** — a bus-library template expanded
//!    through the `%MACRO%` engine with the Fig 7.1 standard marker set;
//! 2. the **arbitration unit** (`user_<device>`) — instantiates every
//!    function copy, muxes the shared SIS return lines by FUNC_ID and
//!    concatenates the CALC_DONE vector (§5.2);
//! 3. one **user-logic stub** (`func_<name>`) per declaration — the
//!    ICOB + SMB pair of §5.3 with all bus interaction pre-written and a
//!    blank calculation state for the user.

use crate::ir::{bits_for, BeatCount, DesignIr, FunctionStub, StubState};
use crate::template::{expand, MarkerSet, TemplateError};
use splice_driver::lower::TransferShape;
use splice_hdl::{emit, Decl, Expr, Hdl, Instance, Item, Module, Port, Process, Stmt};
use splice_spec::validate::{TargetHdl, ValidatedFunction};

/// A generated source file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GeneratedFile {
    /// File name (e.g. `func_enable.vhd`).
    pub name: String,
    /// Full source text.
    pub text: String,
}

/// Why HDL generation failed: only the bus library's interface template
/// can refuse, when its marker expansion fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HdlGenError {
    /// Marker expansion of the bus interface template failed.
    Template(TemplateError),
}

impl std::fmt::Display for HdlGenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HdlGenError::Template(e) => write!(f, "template expansion failed: {e}"),
        }
    }
}

impl std::error::Error for HdlGenError {}

impl From<TemplateError> for HdlGenError {
    fn from(e: TemplateError) -> HdlGenError {
        HdlGenError::Template(e)
    }
}

/// `func_<func>`: the stub module of function `func`.
pub fn stub_module_name(func: &str) -> String {
    format!("func_{func}")
}

/// `user_<device>`: the arbitration module of device `device`.
pub fn arbiter_module_name(device: &str) -> String {
    format!("user_{device}")
}

/// `f<id>_<func>`: the arbiter's prefix for the copy of `func` answering
/// to FUNC_ID `id`.
fn instance_prefix(id: u32, func: &str) -> String {
    format!("f{id}_{func}")
}

/// `f<id>_<func>_<line>`: the arbiter's net carrying `line` of the copy of
/// `func` answering to FUNC_ID `id`.
pub fn instance_net(id: u32, func: &str, line: &str) -> String {
    format!("{}_{line}", instance_prefix(id, func))
}

/// `mux_<line>`: the label of the arbiter's FUNC_ID-keyed return mux of
/// the shared SIS line `line`.
pub fn mux_label(line: &str) -> String {
    format!("mux_{}", line.to_ascii_lowercase())
}

/// The target HDL of a design, as a `splice-hdl` selector.
pub fn hdl_of(ir: &DesignIr) -> Hdl {
    match ir.module.params.hdl {
        TargetHdl::Vhdl => Hdl::Vhdl,
        TargetHdl::Verilog => Hdl::Verilog,
    }
}

/// Generate every hardware file for a design. `interface_template` is the
/// native bus adapter template supplied by the bus library (§7.1.2);
/// `extra_markers` are its bus-specific markers.
pub fn generate_hardware(
    ir: &DesignIr,
    interface_template: &str,
    extra_markers: &MarkerSet,
    gen_date: &str,
) -> Result<Vec<GeneratedFile>, HdlGenError> {
    let modules = design_modules(ir, gen_date)?;
    render_hardware(ir, &modules, interface_template, extra_markers, gen_date)
}

/// Render the hardware files of a design from its [`design_modules`]: the
/// bus interface expanded from its template, then one file per module,
/// named after the module. The emitted text is the text of exactly the
/// ASTs that lint, check and timing analyze.
pub fn render_hardware(
    ir: &DesignIr,
    modules: &[Module],
    interface_template: &str,
    extra_markers: &MarkerSet,
    gen_date: &str,
) -> Result<Vec<GeneratedFile>, HdlGenError> {
    let hdl = hdl_of(ir);
    let ext = hdl.extension();
    let mut markers = standard_markers(ir, gen_date);
    markers.merge(extra_markers);
    let interface = GeneratedFile {
        name: format!("{}_interface.{ext}", ir.module.params.bus.kind.name()),
        text: expand(interface_template, &markers)?,
    };
    let rendered = modules
        .iter()
        .map(|m| GeneratedFile { name: format!("{}.{ext}", m.name), text: emit(m, hdl) });
    Ok(std::iter::once(interface).chain(rendered).collect())
}

/// The Fig 7.1 standard marker set for a whole design (module-level
/// markers; the per-function markers come from [`function_markers`]).
pub fn standard_markers(ir: &DesignIr, gen_date: &str) -> MarkerSet {
    let p = &ir.module.params;
    let hdl = hdl_of(ir);
    let mut m = MarkerSet::new();
    m.set("COMP_NAME", p.device_name.clone());
    m.set("BUS_WIDTH", p.bus_width.to_string());
    m.set("FUNC_ID_WIDTH", p.func_id_width.to_string());
    m.set("BASE_ADDR", format!("{:#010X}", p.base_address));
    m.set("GEN_DATE", gen_date.to_owned());
    m.set("DMA_ENABLED", if p.dma { "true" } else { "false" });
    m.set("DATA_OUT_MUX", render_items(&mux_items(ir, "DATA_OUT"), hdl));
    m.set("DATA_OUT_V_MUX", render_items(&mux_items(ir, "DATA_OUT_VALID"), hdl));
    m.set("IO_DONE_MUX", render_items(&mux_items(ir, "IO_DONE"), hdl));
    m.set("CALC_DONE_ENCODE", render_items(&[calc_done_encode(ir)], hdl));
    m
}

/// The per-function markers of Fig 7.1 for the stub of
/// `ir.module.functions[index]`.
pub fn function_markers(ir: &DesignIr, index: usize, gen_date: &str) -> MarkerSet {
    let (f, stub) = (&ir.module.functions[index], &ir.stubs[index]);
    let hdl = hdl_of(ir);
    let mut m = standard_markers(ir, gen_date);
    m.set("FUNC_NAME", f.name.clone());
    m.set("MY_FUNC_ID", f.first_func_id.to_string());
    m.set("FUNC_INSTS", f.instances.to_string());
    m.set("FUNC_CONSTS", render_decls(&stub_constants(ir, f, stub), hdl));
    m.set("FUNC_SIGNALS", render_decls(&stub_signals(f, stub, ir.module.params.bus_width), hdl));
    m.set("FUNC_FSM", render_items(&[Item::Process(smb_process(stub))], hdl));
    m.set("FUNC_STUB", render_items(&[Item::Process(icob_process(ir, f, stub))], hdl));
    m
}

// ---------------------------------------------------------------------
// user-logic stub generation (§5.3)
// ---------------------------------------------------------------------

/// Standard SIS-facing ports of a stub entity.
fn sis_ports(bus_width: u32, func_id_width: u32, irq: bool) -> Vec<Port> {
    let mut ports = vec![
        Port::input("CLK", 1),
        Port::input("RST", 1),
        Port::input("DATA_IN", bus_width),
        Port::input("DATA_IN_VALID", 1),
        Port::input("IO_ENABLE", 1),
        Port::input("FUNC_ID", func_id_width),
        Port::output("DATA_OUT", bus_width),
        Port::output("DATA_OUT_VALID", 1),
        Port::output("IO_DONE", 1),
        Port::output("CALC_DONE", 1),
    ];
    if irq {
        // Completion interrupt (%irq_support, thesis §10.2): pulsed for one
        // cycle when the function finishes a round.
        ports.push(Port::output("IRQ", 1));
    }
    ports
}

fn state_const_name(f: &ValidatedFunction, st: &StubState) -> String {
    match st {
        StubState::Input { io, .. } => format!("IN_{}", f.inputs[*io].name),
        StubState::Calc => "CALC_STATE".into(),
        StubState::Output { .. } => "OUT_RESULT".into(),
        StubState::PseudoOutput => "OUT_SYNC".into(),
    }
}

fn stub_constants(ir: &DesignIr, f: &ValidatedFunction, stub: &FunctionStub) -> Vec<Decl> {
    let mut decls = Vec::new();
    decls.push(Decl::Comment(format!(
        "Function identifier assigned to `{}` (instances {})",
        f.name, f.instances
    )));
    decls.push(Decl::Constant {
        name: "MY_FUNC_ID".into(),
        width: ir.func_id_width(),
        value: f.first_func_id as u64,
    });
    let sb = stub.state_bits();
    for (i, st) in stub.states.iter().enumerate() {
        decls.push(Decl::Constant { name: state_const_name(f, st), width: sb, value: i as u64 });
    }
    // Counter bound constants for statically bounded multi-beat transfers
    // (inputs and the `result` output alike).
    for st in &stub.states {
        let (Some(io), Some(BeatCount::Static(n))) = (st.io(f), st.beats()) else { continue };
        if n > 1 {
            decls.push(Decl::Constant {
                name: format!("{}_max_value", io.name),
                width: bits_for(n),
                value: n - 1,
            });
        }
    }
    decls
}

fn stub_signals(f: &ValidatedFunction, stub: &FunctionStub, bus_width: u32) -> Vec<Decl> {
    let sb = stub.state_bits();
    let mut decls = vec![
        Decl::Signal { name: "cur_state".into(), width: sb, init: Some(0) },
        Decl::Signal { name: "next_state".into(), width: sb, init: Some(0) },
    ];
    for st in &stub.states {
        let (Some(io), Some(beats)) = (st.io(f), st.beats()) else { continue };
        let Some(width) = beats.counter_bits(bus_width) else { continue };
        decls
            .push(Decl::Comment(format!("Tracking register for `{}` transfers (§5.3.1)", io.name)));
        decls.push(Decl::Signal { name: format!("{}_counter", io.name), width, init: Some(0) });
        if let BeatCount::Dynamic { .. } = beats {
            decls.push(Decl::Signal { name: format!("{}_bound", io.name), width, init: Some(0) });
        }
    }
    if has_read_state(stub) {
        decls.push(Decl::Comment(
            "Read-request latch: a one-cycle IO_ENABLE strobe that lands during \
             the state-commit lag (§5.3.2) is remembered here until served"
                .into(),
        ));
        decls.push(Decl::Signal { name: "pending_read".into(), width: 1, init: Some(0) });
    }
    decls
}

/// Whether the stub ever serves a read (a result transfer or a blocking
/// completion handshake).
fn has_read_state(stub: &FunctionStub) -> bool {
    stub.states.iter().any(|s| matches!(s, StubState::Output { .. } | StubState::PseudoOutput))
}

/// The State Machine Block: advances `cur_state` to `next_state` each clock
/// (§5.3.2).
fn smb_process(stub: &FunctionStub) -> Process {
    let sb = stub.state_bits();
    Process {
        label: "smb".into(),
        clocked: true,
        body: vec![
            Stmt::Comment("SMB: commit the transition the ICOB requested (§5.3.2)".into()),
            Stmt::if_else(
                Expr::sig("RST"),
                vec![Stmt::assign("cur_state", Expr::lit(0, sb))],
                vec![Stmt::assign("cur_state", Expr::sig("next_state"))],
            ),
        ],
    }
}

/// Counter bookkeeping shared by multi-beat input and output states: on the
/// final beat reset the counter and run `on_final`; otherwise increment.
fn counted_advance(name: &str, beats: BeatCount, bus_width: u32, on_final: Vec<Stmt>) -> Vec<Stmt> {
    let Some(w) = beats.counter_bits(bus_width) else { return on_final };
    let ctr = format!("{name}_counter");
    let last = match beats {
        BeatCount::Static(_) => Expr::sig(&ctr).eq(Expr::sig(format!("{name}_max_value"))),
        BeatCount::Dynamic { .. } => {
            Expr::sig(&ctr).add(Expr::lit(1, w)).eq(Expr::sig(format!("{name}_bound")))
        }
    };
    let mut done = vec![Stmt::assign(&ctr, Expr::lit(0, w))];
    done.extend(on_final);
    vec![Stmt::if_else(last, done, vec![Stmt::assign(&ctr, Expr::sig(&ctr).add(Expr::lit(1, w)))])]
}

/// The latch of a dynamic transfer's element count: `<array>_bound`, `w`
/// bits wide, takes the *beat* count derived from `DATA_IN` while the index
/// parameter's beat is accepted. The tracker counts bus beats, so the
/// element count on the wire must be mapped through the transfer shape:
/// packed transfers carry `per_beat` elements per beat (round up), split
/// transfers need `beats_per_elem` beats per element. Validation refuses a
/// runtime bound whose factor is not a power of two, so the mapping is a
/// shift built from slices and concatenation.
fn bound_latch(array: &str, shape: TransferShape, w: u32, bus_width: u32) -> Stmt {
    let take = |e: Expr, avail: u32| {
        // Resize `e` (of `avail` bits) to exactly `w` bits.
        match avail.cmp(&w) {
            std::cmp::Ordering::Equal => e,
            std::cmp::Ordering::Greater => Expr::Slice { base: Box::new(e), hi: w - 1, lo: 0 },
            std::cmp::Ordering::Less => Expr::Concat(vec![Expr::lit(0, w - avail), e]),
        }
    };
    let rhs = match shape {
        TransferShape::Direct => take(Expr::sig("DATA_IN"), bus_width),
        TransferShape::Packed { per_beat } => {
            // beats = ceil(elems / per_beat) = (elems + per_beat - 1) >> s.
            // Where the kept slice reaches the sum's carry (8- and 16-bit
            // buses), the sum is one bit wider so the top bound cannot wrap.
            let s = per_beat.trailing_zeros();
            let (word, sum_width) = if s + w > bus_width {
                (Expr::Concat(vec![Expr::lit(0, 1), Expr::sig("DATA_IN")]), bus_width + 1)
            } else {
                (Expr::sig("DATA_IN"), bus_width)
            };
            let sum = word.add(Expr::lit(u64::from(per_beat) - 1, sum_width));
            let hi = (s + w - 1).min(sum_width - 1);
            take(Expr::Slice { base: Box::new(sum), hi, lo: s }, hi - s + 1)
        }
        TransferShape::Split { beats_per_elem } => {
            // beats = elems << s, and `w` leaves room for all of the word.
            let s = beats_per_elem.trailing_zeros();
            let kept = Expr::Slice { base: Box::new(Expr::sig("DATA_IN")), hi: w - s - 1, lo: 0 };
            Expr::Concat(vec![kept, Expr::lit(0, s)])
        }
    };
    Stmt::assign(format!("{array}_bound"), rhs)
}

/// The Input-Calculation-Output Block (§5.3.1): all bus interaction for the
/// function, with a blank calculation state.
fn icob_process(ir: &DesignIr, f: &ValidatedFunction, stub: &FunctionStub) -> Process {
    let p = &ir.module.params;
    let sb = stub.state_bits();
    let n_states = stub.states.len();
    let serves_reads = has_read_state(stub);
    let mut arms: Vec<(u64, Vec<Stmt>)> = Vec::with_capacity(n_states);

    let addressed = Expr::sig("FUNC_ID").eq(Expr::sig("MY_FUNC_ID"));
    // A read request is served when either the strobe is live this cycle or
    // a strobe was latched into `pending_read` while the FSM's state commit
    // was still in flight (§5.3.2): without the latch a one-cycle IO_ENABLE
    // pulse that lands during the commit lag is silently dropped and the
    // master stalls forever waiting for IO_DONE.
    let read_req = |live_only: bool| {
        let strobe = if serves_reads && !live_only {
            Expr::sig("IO_ENABLE").or(Expr::sig("pending_read"))
        } else {
            Expr::sig("IO_ENABLE")
        };
        strobe.and(Expr::sig("DATA_IN_VALID").not()).and(addressed.clone())
    };
    for (i, st) in stub.states.iter().enumerate() {
        let next = ((i + 1) % n_states) as u64;
        let body = match st {
            StubState::Input { io, beats, ignore_tail_bits } => {
                let name = &f.inputs[*io].name;
                let mut b = vec![Stmt::Comment(format!(
                    "Handling input `{name}`{}",
                    if *ignore_tail_bits > 0 {
                        format!(
                            " — the final beat carries {ignore_tail_bits} ignorable padding bit(s)"
                        )
                    } else {
                        String::new()
                    }
                ))];
                // A write beat is accepted only while the strobe is live:
                // without the IO_ENABLE term the master's hold cycle (data
                // and valid still driven, enable deasserted) would be
                // accepted a second time.
                let accept =
                    Expr::sig("IO_ENABLE").and(Expr::sig("DATA_IN_VALID")).and(addressed.clone());
                let mut on_accept = vec![
                    Stmt::Comment(format!("TODO(user): store DATA_IN for `{name}` here")),
                    Stmt::assign("IO_DONE", Expr::lit(1, 1)),
                ];
                if let BeatCount::Dynamic { index_input, .. } = beats {
                    let idx_name = &f.inputs[*index_input].name;
                    on_accept.insert(
                        0,
                        Stmt::Comment(format!(
                            "`{name}` length was latched from `{idx_name}` into {name}_bound"
                        )),
                    );
                }
                // This input is the runtime bound of later dynamic
                // transfers: latch its value into their `<array>_bound`
                // storage registers (§5.3.1's storage register).
                for st2 in &stub.states {
                    let (Some(array), Some(b @ BeatCount::Dynamic { index_input, shape })) =
                        (st2.io(f), st2.beats())
                    else {
                        continue;
                    };
                    if index_input == *io {
                        let w = b.counter_bits(p.bus_width).expect("a runtime count is counted");
                        on_accept.push(bound_latch(&array.name, shape, w, p.bus_width));
                    }
                }
                on_accept.extend(counted_advance(
                    name,
                    *beats,
                    p.bus_width,
                    vec![Stmt::assign("next_state", Expr::lit(next, sb))],
                ));
                b.push(Stmt::if_then(accept, on_accept));
                b
            }
            StubState::Calc => {
                let mut b = vec![
                    Stmt::Comment("TODO(user): calculation logic goes here (§5.3.1)".into()),
                    Stmt::assign("next_state", Expr::lit(next, sb)),
                ];
                if serves_reads {
                    // Remember an early read strobe: the master may issue it
                    // while `cur_state` still shows the calculation state
                    // (the SMB commits one edge behind the ICOB's request).
                    b.push(Stmt::if_then(
                        read_req(true),
                        vec![Stmt::assign("pending_read", Expr::lit(1, 1))],
                    ));
                }
                if p.irq && f.nowait {
                    // Fire-and-forget functions signal completion with a
                    // one-cycle IRQ pulse instead of an output transfer.
                    b.push(Stmt::assign("IRQ", Expr::lit(1, 1)));
                }
                b
            }
            StubState::Output { beats, .. } => {
                let mut on_final = vec![
                    Stmt::assign("CALC_DONE", Expr::lit(0, 1)),
                    Stmt::assign("next_state", Expr::lit(next, sb)),
                ];
                if p.irq {
                    on_final.push(Stmt::assign("IRQ", Expr::lit(1, 1)));
                }
                let mut on_read = vec![
                    Stmt::Comment("TODO(user): drive DATA_OUT with the result".into()),
                    Stmt::assign("DATA_OUT_VALID", Expr::lit(1, 1)),
                    Stmt::assign("IO_DONE", Expr::lit(1, 1)),
                    Stmt::assign("pending_read", Expr::lit(0, 1)),
                ];
                on_read.extend(counted_advance("result", *beats, p.bus_width, on_final));
                vec![
                    Stmt::Comment("Output state: hold CALC_DONE until read (§5.3.1)".into()),
                    Stmt::assign("CALC_DONE", Expr::lit(1, 1)),
                    Stmt::if_then(read_req(false), on_read),
                ]
            }
            StubState::PseudoOutput => {
                vec![
                    Stmt::Comment(
                        "Pseudo output state: report completion to the blocking driver".into(),
                    ),
                    Stmt::assign("CALC_DONE", Expr::lit(1, 1)),
                    Stmt::if_then(
                        read_req(false),
                        vec![
                            Stmt::assign("DATA_OUT_VALID", Expr::lit(1, 1)),
                            Stmt::assign("IO_DONE", Expr::lit(1, 1)),
                            Stmt::assign("CALC_DONE", Expr::lit(0, 1)),
                            Stmt::assign("pending_read", Expr::lit(0, 1)),
                            Stmt::assign("next_state", Expr::lit(next, sb)),
                        ],
                    ),
                ]
            }
        };
        arms.push((i as u64, body));
    }

    // Every SIS output line gets a default so no port is ever undriven —
    // later per-state assignments override within the same clock edge.
    let mut body = vec![
        Stmt::Comment("ICOB: all bus interactions for this function (§5.3.1)".into()),
        Stmt::assign("IO_DONE", Expr::lit(0, 1)),
        Stmt::assign("DATA_OUT_VALID", Expr::lit(0, 1)),
        Stmt::assign("DATA_OUT", Expr::lit(0, p.bus_width)),
        Stmt::assign("CALC_DONE", Expr::lit(0, 1)),
    ];
    if p.irq && stub.fires_irq() {
        body.push(Stmt::assign("IRQ", Expr::lit(0, 1)));
    }
    body.push(Stmt::Case {
        expr: Expr::Slice { base: Box::new(Expr::sig("cur_state")), hi: sb - 1, lo: 0 },
        arms,
        default: Some(vec![Stmt::assign("next_state", Expr::lit(0, sb))]),
    });
    Process { label: "icob".into(), clocked: true, body }
}

/// Build the complete `func_<name>` module of `ir.module.functions[index]`.
pub fn stub_module(ir: &DesignIr, index: usize, gen_date: &str) -> Module {
    let (f, stub) = (&ir.module.functions[index], &ir.stubs[index]);
    let p = &ir.module.params;
    let mut m = Module::new(stub_module_name(&f.name));
    m.header = vec![
        format!("{}.{} — user-logic stub generated by Splice", m.name, hdl_of(ir).extension()),
        format!("device: {}   bus: {}   generated: {}", p.device_name, p.bus.kind, gen_date),
        "Fill in the TODO(user) calculation sections; all bus handshaking is complete.".into(),
    ];
    m.ports = sis_ports(p.bus_width, p.func_id_width, p.irq && stub.fires_irq());
    m.decls = stub_constants(ir, f, stub);
    m.decls.extend(stub_signals(f, stub, p.bus_width));
    m.items.push(Item::Process(smb_process(stub)));
    m.items.push(Item::Process(icob_process(ir, f, stub)));
    m
}

/// Every structurally generated module of a design — the arbiter plus one
/// stub per declaration. This is exactly the set the HDL-level lint rules
/// analyze (the native bus interface is template text, not a [`Module`]).
/// It cannot fail; the `Result` keeps the signature its callers match on.
pub fn design_modules(ir: &DesignIr, gen_date: &str) -> Result<Vec<Module>, HdlGenError> {
    let mut out = Vec::with_capacity(ir.stubs.len() + 1);
    out.push(arbiter_module(ir, gen_date));
    out.extend((0..ir.stubs.len()).map(|i| stub_module(ir, i, gen_date)));
    Ok(out)
}

// ---------------------------------------------------------------------
// arbitration unit generation (§5.2)
// ---------------------------------------------------------------------

/// Build the `user_<device>` arbitration module.
pub fn arbiter_module(ir: &DesignIr, gen_date: &str) -> Module {
    let p = &ir.module.params;
    let total = ir.module.total_instances();
    let mut m = Module::new(arbiter_module_name(&p.device_name));
    m.header = vec![
        format!("{}.{} — bus arbiter generated by Splice (§5.2)", m.name, hdl_of(ir).extension()),
        format!("functions: {}   instances: {}   generated: {}", ir.stubs.len(), total, gen_date),
    ];
    m.ports = vec![
        Port::input("CLK", 1),
        Port::input("RST", 1),
        Port::input("DATA_IN", p.bus_width),
        Port::input("DATA_IN_VALID", 1),
        Port::input("IO_ENABLE", 1),
        Port::input("FUNC_ID", p.func_id_width),
        Port::output("DATA_OUT", p.bus_width),
        Port::output("DATA_OUT_VALID", 1),
        Port::output("IO_DONE", 1),
        Port::output("CALC_DONE_VEC", total + 1),
    ];
    if p.irq {
        m.ports.push(Port::input("IRQ_ACK", 1));
        m.ports.push(Port::output("IRQ_VECTOR", total + 1));
    }

    // Internal shadow of the CALC_DONE_VEC output port: VHDL-93 forbids
    // reading an `out` port back, and the id-0 status mux must read it.
    m.decls.push(Decl::Signal { name: "calc_done_vec_i".into(), width: total + 1, init: None });
    if p.irq {
        m.decls.push(Decl::Signal { name: "irq_vector_i".into(), width: total + 1, init: Some(0) });
    }

    // Per-instance internal nets + instantiations.
    for (si, inst, id) in ir.arbiter_entries() {
        let (f, stub) = (&ir.module.functions[si], &ir.stubs[si]);
        let base = instance_prefix(id, &f.name);
        let net = |line: &str| instance_net(id, &f.name, line);
        for (line, width) in
            [("DATA_OUT", p.bus_width), ("DATA_OUT_VALID", 1), ("IO_DONE", 1), ("CALC_DONE", 1)]
        {
            m.decls.push(Decl::Signal { name: net(line), width, init: None });
        }
        if p.irq && stub.fires_irq() {
            m.decls.push(Decl::Signal { name: net("IRQ"), width: 1, init: None });
        }
        // Replicated functions share one stub module, whose internal
        // address decode compares against the *first* instance's id. Each
        // extra copy therefore gets a remapped FUNC_ID: its own id is
        // translated to the stub's constant, every other id to the reserved
        // status id (which a stub never answers). Without this every copy
        // would answer instance 1's id and ignore its own.
        let func_id_net = if f.instances > 1 {
            let remapped = net("FUNC_ID");
            m.decls.push(Decl::Signal {
                name: remapped.clone(),
                width: p.func_id_width,
                init: None,
            });
            m.items.push(Item::Process(Process {
                label: format!("remap_{base}"),
                clocked: false,
                body: vec![Stmt::if_else(
                    Expr::sig("FUNC_ID").eq(Expr::lit(u64::from(id), p.func_id_width)),
                    vec![Stmt::assign(
                        &remapped,
                        Expr::lit(f.first_func_id as u64, p.func_id_width),
                    )],
                    vec![Stmt::assign(&remapped, Expr::lit(0, p.func_id_width))],
                )],
            }));
            remapped
        } else {
            "FUNC_ID".into()
        };
        m.items.push(Item::Comment(format!(
            "instance {inst} of `{}` answering to FUNC_ID {id}",
            f.name
        )));
        m.items.push(Item::Instance(Instance {
            label: format!("u_{base}"),
            module: stub_module_name(&f.name),
            connections: vec![
                ("CLK".into(), "CLK".into()),
                ("RST".into(), "RST".into()),
                ("DATA_IN".into(), "DATA_IN".into()),
                ("DATA_IN_VALID".into(), "DATA_IN_VALID".into()),
                ("IO_ENABLE".into(), "IO_ENABLE".into()),
                ("FUNC_ID".into(), func_id_net),
                ("DATA_OUT".into(), net("DATA_OUT")),
                ("DATA_OUT_VALID".into(), net("DATA_OUT_VALID")),
                ("IO_DONE".into(), net("IO_DONE")),
                ("CALC_DONE".into(), net("CALC_DONE")),
            ],
        }));
        if p.irq && stub.fires_irq() {
            if let Some(Item::Instance(inst)) = m.items.last_mut() {
                inst.connections.push(("IRQ".into(), net("IRQ")));
            }
        }
    }

    // Shared-line multiplexing.
    m.items.push(Item::Comment("FUNC_ID-keyed return multiplexers (§5.2)".into()));
    for item in mux_items(ir, "DATA_OUT") {
        m.items.push(item);
    }
    for item in mux_items(ir, "DATA_OUT_VALID") {
        m.items.push(item);
    }
    for item in mux_items(ir, "IO_DONE") {
        m.items.push(item);
    }
    m.items
        .push(Item::Comment("CALC_DONE concatenation: bit i reports function id i (§5.2)".into()));
    m.items.push(calc_done_encode(ir));
    m.items.push(Item::Assign { lhs: "CALC_DONE_VEC".into(), rhs: Expr::sig("calc_done_vec_i") });
    if p.irq {
        m.items.push(Item::Comment(
            "Sticky completion-interrupt vector (%irq_support): set on each \
             function's IRQ pulse, cleared by the CPU's IRQ_ACK"
                .into(),
        ));
        m.items.push(Item::Process(irq_latch_process(ir)));
        m.items.push(Item::Assign { lhs: "IRQ_VECTOR".into(), rhs: Expr::sig("irq_vector_i") });
    }
    m
}

/// A one-hot literal of `width` bits with bit `bit` set, built by
/// concatenation so vectors wider than 64 bits stay representable.
fn one_hot(bit: u32, width: u32) -> Expr {
    let mut parts = Vec::new();
    if bit + 1 < width {
        parts.push(Expr::lit(0, width - bit - 1));
    }
    parts.push(Expr::lit(1, 1));
    if bit > 0 {
        parts.push(Expr::lit(0, bit));
    }
    if let [single] = parts.as_slice() {
        single.clone()
    } else {
        Expr::Concat(parts)
    }
}

/// The sticky interrupt-vector latch of `%irq_support` designs: each
/// function's one-cycle IRQ pulse sets its FUNC_ID bit in `irq_vector_i`;
/// the CPU's IRQ_ACK clears the whole vector.
fn irq_latch_process(ir: &DesignIr) -> Process {
    let w = ir.module.total_instances() + 1;
    let mut on_run = vec![Stmt::if_then(
        Expr::sig("IRQ_ACK"),
        vec![Stmt::assign("irq_vector_i", Expr::lit(0, w))],
    )];
    for (si, _inst, id) in ir.arbiter_entries() {
        if !ir.stubs[si].fires_irq() {
            // Blocking `void` functions never pulse (no IRQ net exists for
            // them); latching would be provably dead logic.
            continue;
        }
        on_run.push(Stmt::if_then(
            Expr::sig(instance_net(id, &ir.module.functions[si].name, "IRQ")),
            vec![Stmt::assign("irq_vector_i", Expr::sig("irq_vector_i").or(one_hot(id, w)))],
        ));
    }
    // The vector must clear on RST: the per-function IRQ nets are undefined
    // until each stub's first clock edge, and without a reset clause that
    // power-up garbage would be latched and survive past reset.
    let body = vec![Stmt::if_else(
        Expr::sig("RST"),
        vec![Stmt::assign("irq_vector_i", Expr::lit(0, w))],
        on_run,
    )];
    Process { label: "irq_latch".into(), clocked: true, body }
}

/// The id-0 status read: `calc_done_vec_i` adapted to the bus width (§4.2.2
/// returns the CALC_DONE vector on DATA_OUT, zero-extended or truncated).
fn status_read_expr(ir: &DesignIr) -> Expr {
    let vec_width = ir.module.total_instances() + 1;
    let bus_width = ir.module.params.bus_width;
    let v = Expr::sig("calc_done_vec_i");
    match vec_width.cmp(&bus_width) {
        std::cmp::Ordering::Equal => v,
        std::cmp::Ordering::Less => Expr::Concat(vec![Expr::lit(0, bus_width - vec_width), v]),
        std::cmp::Ordering::Greater => Expr::Slice { base: Box::new(v), hi: bus_width - 1, lo: 0 },
    }
}

/// A mux over the per-instance copies of `line`, keyed by FUNC_ID, with the
/// status register (id 0) answering on DATA_OUT with the CALC_DONE vector.
fn mux_items(ir: &DesignIr, line: &str) -> Vec<Item> {
    let p = &ir.module.params;
    let width = if line == "DATA_OUT" { p.bus_width } else { 1 };
    let mut arms: Vec<(u64, Vec<Stmt>)> = Vec::new();
    if line == "DATA_OUT" {
        // Reserved id 0: the status register read (§4.2.2).
        arms.push((0, vec![Stmt::assign(line, status_read_expr(ir))]));
    }
    for (si, _inst, id) in ir.arbiter_entries() {
        let src = instance_net(id, &ir.module.functions[si].name, line);
        arms.push((id as u64, vec![Stmt::assign(line, Expr::sig(src))]));
    }
    let default = vec![Stmt::assign(line, Expr::lit(0, width))];
    vec![Item::Process(Process {
        label: mux_label(line),
        clocked: false,
        body: vec![Stmt::Case {
            expr: Expr::Slice {
                base: Box::new(Expr::sig("FUNC_ID")),
                hi: p.func_id_width - 1,
                lo: 0,
            },
            arms,
            default: Some(default),
        }],
    })]
}

/// The CALC_DONE concatenation assignment (into the internal shadow; a
/// separate continuous assignment forwards it to the output port).
fn calc_done_encode(ir: &DesignIr) -> Item {
    let mut parts: Vec<Expr> = Vec::new();
    // Most-significant first: highest id down to bit 1, bit 0 constant '0'.
    let mut entries = ir.arbiter_entries();
    entries.sort_by_key(|&(_, _, id)| std::cmp::Reverse(id));
    for (si, _inst, id) in entries {
        parts.push(Expr::sig(instance_net(id, &ir.module.functions[si].name, "CALC_DONE")));
    }
    parts.push(Expr::lit(0, 1)); // id 0 is the status register itself
    Item::Assign { lhs: "calc_done_vec_i".into(), rhs: Expr::Concat(parts) }
}

// ---------------------------------------------------------------------
// rendering helpers
// ---------------------------------------------------------------------

/// Render declarations alone (for the FUNC_CONSTS / FUNC_SIGNALS markers).
fn render_decls(decls: &[Decl], hdl: Hdl) -> String {
    let mut m = Module::new("splice_marker_fragment");
    m.decls = decls.to_vec();
    slice_fragment(&emit(&m, hdl), hdl, true)
}

/// Render concurrent items alone (for the FSM/STUB/MUX markers).
fn render_items(items: &[Item], hdl: Hdl) -> String {
    let mut m = Module::new("splice_marker_fragment");
    m.items = items.to_vec();
    slice_fragment(&emit(&m, hdl), hdl, false)
}

/// Cut the declaration or body region out of a rendered dummy module.
fn slice_fragment(text: &str, hdl: Hdl, decls: bool) -> String {
    match hdl {
        Hdl::Vhdl => {
            let arch = text.find("architecture rtl of splice_marker_fragment is").unwrap_or(0);
            let begin = text[arch..].find("\nbegin\n").map(|i| arch + i).unwrap_or(arch);
            if decls {
                let start = text[arch..].find('\n').map(|i| arch + i + 1).unwrap_or(arch);
                text[start..begin.max(start)].to_owned()
            } else {
                let start = begin + "\nbegin\n".len();
                let end = text.rfind("end architecture rtl;").unwrap_or(text.len());
                text[start.min(end)..end].to_owned()
            }
        }
        Hdl::Verilog => {
            let start = text.find(");\n").map(|i| i + 3).unwrap_or(0);
            let end = text.rfind("endmodule").unwrap_or(text.len());
            text[start.min(end)..end].to_owned()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elaborate::elaborate;
    use splice_spec::parse_and_validate;

    fn design(decls: &str, extra: &str) -> DesignIr {
        let src = format!(
            "%device_name demo\n%bus_type plb\n%bus_width 32\n%base_address 0x80000000\n{extra}\n{decls}"
        );
        elaborate(&parse_and_validate(&src).unwrap().module)
    }

    const TIMER_SRC: &str = r#"
        %name hw_timer
        %bus_type plb
        %bus_width 32
        %base_address 0x8000401C
        %user_type llong, unsigned long long, 64
        %user_type ulong, unsigned long, 32
        void disable{};
        void enable{};
        void set_threshold{llong thold};
        llong get_threshold{};
        llong get_snapshot{};
        ulong get_clock{};
        ulong get_status{};
    "#;

    fn timer_design() -> DesignIr {
        elaborate(&parse_and_validate(TIMER_SRC).unwrap().module)
    }

    #[test]
    fn fig_8_3_file_inventory() {
        let ir = timer_design();
        let template = "-- %COMP_NAME% %BUS_WIDTH% %BASE_ADDR% %GEN_DATE%\n";
        let files = generate_hardware(&ir, template, &MarkerSet::new(), "2007-05-01").unwrap();
        let names: Vec<&str> = files.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "plb_interface.vhd",
                "user_hw_timer.vhd",
                "func_disable.vhd",
                "func_enable.vhd",
                "func_set_threshold.vhd",
                "func_get_threshold.vhd",
                "func_get_snapshot.vhd",
                "func_get_clock.vhd",
                "func_get_status.vhd",
            ]
        );
        assert!(files[0].text.contains("hw_timer 32 0x8000401C 2007-05-01"));
    }

    #[test]
    fn stub_module_has_sis_ports_and_states() {
        let ir = timer_design();
        let m = stub_module(&ir, 2, "today");
        let port_names: Vec<&str> = m.ports.iter().map(|p| p.name.as_str()).collect();
        for want in [
            "CLK",
            "RST",
            "DATA_IN",
            "DATA_IN_VALID",
            "IO_ENABLE",
            "FUNC_ID",
            "DATA_OUT",
            "DATA_OUT_VALID",
            "IO_DONE",
            "CALC_DONE",
        ] {
            assert!(port_names.contains(&want), "missing {want}");
        }
        let text = emit(&m, Hdl::Vhdl);
        assert!(text.contains("IN_thold"), "{text}");
        assert!(text.contains("CALC_STATE"), "{text}");
        assert!(text.contains("OUT_SYNC"), "{text}");
        assert!(text.contains("TODO(user): calculation logic"), "{text}");
        assert!(text.contains("thold_counter"), "split input needs a tracker: {text}");
    }

    #[test]
    fn stub_emits_in_both_hdls() {
        let ir = timer_design();
        let m = stub_module(&ir, 6, "today");
        let vhdl = emit(&m, Hdl::Vhdl);
        let verilog = emit(&m, Hdl::Verilog);
        assert!(vhdl.contains("entity func_get_status is"));
        assert!(verilog.contains("module func_get_status ("));
        // Same state constants appear in both.
        assert!(vhdl.contains("OUT_RESULT") && verilog.contains("OUT_RESULT"));
    }

    #[test]
    fn arbiter_instantiates_every_instance() {
        let ir = design("void a();\nvoid b():3;", "");
        let m = arbiter_module(&ir, "today");
        let instances: Vec<&Item> =
            m.items.iter().filter(|i| matches!(i, Item::Instance(_))).collect();
        assert_eq!(instances.len(), 4);
        let text = emit(&m, Hdl::Vhdl);
        assert!(text.contains("u_f1_a: entity work.func_a"), "{text}");
        assert!(text.contains("u_f2_b: entity work.func_b"), "{text}");
        assert!(text.contains("u_f4_b: entity work.func_b"), "{text}");
        // Status vector: 4 instances + reserved bit 0 = 5 bits.
        assert!(text.contains("CALC_DONE_VEC"), "{text}");
        assert!(text.contains("std_logic_vector(4 downto 0)"), "{text}");
    }

    #[test]
    fn arbiter_muxes_and_status_arm() {
        let ir = design("long f();\nlong g();", "");
        let m = arbiter_module(&ir, "today");
        let text = emit(&m, Hdl::Vhdl);
        // The id-0 arm returns the zero-extended status vector on DATA_OUT,
        // read from the internal shadow (out ports are write-only in VHDL).
        assert!(text.contains("& calc_done_vec_i;"), "{text}");
        assert!(text.contains("DATA_OUT <= f1_f_DATA_OUT;"), "{text}");
        assert!(text.contains("DATA_OUT <= f2_g_DATA_OUT;"), "{text}");
        assert!(text.contains("IO_DONE <= f2_g_IO_DONE;"), "{text}");
        assert!(
            text.contains("calc_done_vec_i <= f2_g_CALC_DONE & f1_f_CALC_DONE & '0';"),
            "{text}"
        );
        assert!(text.contains("CALC_DONE_VEC <= calc_done_vec_i;"), "{text}");
    }

    #[test]
    fn standard_markers_cover_fig_7_1() {
        let ir = timer_design();
        let m = standard_markers(&ir, "now");
        for name in [
            "COMP_NAME",
            "BUS_WIDTH",
            "FUNC_ID_WIDTH",
            "BASE_ADDR",
            "GEN_DATE",
            "DMA_ENABLED",
            "DATA_OUT_MUX",
            "DATA_OUT_V_MUX",
            "IO_DONE_MUX",
            "CALC_DONE_ENCODE",
        ] {
            assert!(m.get(name).is_some(), "missing marker {name}");
        }
        assert_eq!(m.get("COMP_NAME"), Some("hw_timer"));
        assert_eq!(m.get("DMA_ENABLED"), Some("false"));
        assert!(m.get("DATA_OUT_MUX").unwrap().contains("case"));
    }

    #[test]
    fn function_markers_cover_fig_7_1() {
        let ir = timer_design();
        let m = function_markers(&ir, 2, "now");
        assert_eq!(m.get("FUNC_NAME"), Some("set_threshold"));
        assert_eq!(m.get("MY_FUNC_ID"), Some("3"));
        assert_eq!(m.get("FUNC_INSTS"), Some("1"));
        assert!(m.get("FUNC_CONSTS").unwrap().contains("MY_FUNC_ID"));
        assert!(m.get("FUNC_SIGNALS").unwrap().contains("cur_state"));
        assert!(m.get("FUNC_FSM").unwrap().contains("smb"));
        assert!(m.get("FUNC_STUB").unwrap().contains("icob"));
    }

    #[test]
    fn verilog_target_changes_extensions() {
        let ir = design("long f();", "%target_hdl verilog");
        let files = generate_hardware(&ir, "// %COMP_NAME%\n", &MarkerSet::new(), "d").unwrap();
        assert!(
            files.iter().all(|f| f.name.ends_with(".v")),
            "{:?}",
            files.iter().map(|f| &f.name).collect::<Vec<_>>()
        );
        assert!(files[1].text.contains("module user_demo ("));
    }

    #[test]
    fn unknown_template_marker_is_reported() {
        let ir = design("long f();", "");
        let err = generate_hardware(&ir, "%NO_SUCH_MARKER%", &MarkerSet::new(), "d").unwrap_err();
        assert!(matches!(err, HdlGenError::Template(TemplateError::UnknownMarker { .. })));
    }

    #[test]
    fn stub_accept_requires_live_strobe_and_read_latch_exists() {
        let ir = timer_design();
        let text = emit(&stub_module(&ir, 5, "today"), Hdl::Vhdl);
        // Bug guard: write acceptance must include the live IO_ENABLE strobe
        // so the master's hold cycle is not double-counted...
        let wtext = emit(&stub_module(&ir, 2, "today"), Hdl::Vhdl);
        assert!(
            wtext.contains("IO_ENABLE = '1' and DATA_IN_VALID = '1'"),
            "write accept must check IO_ENABLE:\n{wtext}"
        );
        // ...and read-serving stubs must latch early strobes.
        assert!(text.contains("pending_read"), "{text}");
        assert!(
            text.contains("(IO_ENABLE = '1' or pending_read = '1')"),
            "read must honor the latch: {text}"
        );
    }

    #[test]
    fn bus_specific_markers_extend_the_standard_set() {
        let ir = design("long f();", "");
        let mut extra = MarkerSet::new();
        extra.set("PLB_SPECIAL", "wired");
        let files = generate_hardware(&ir, "-- %PLB_SPECIAL% %COMP_NAME%\n", &extra, "d").unwrap();
        assert!(files[0].text.contains("wired demo"));
    }
}
