//! Simulation builder: a [`DesignIr`] as live `splice-sim` components.
//!
//! The generated VHDL cannot be executed here (no HDL simulator), so the
//! *same IR* that produced the HDL text is elaborated into behavioural
//! components: one [`GeneratedStub`] per function instance (the ICOB + SMB
//! of §5.3, interpreted over the IR's state list) and one
//! [`GeneratedArbiter`] (§5.2). User calculation logic — what a developer
//! would hand-write into the blank calculation state — is supplied through
//! the [`CalcLogic`] trait.
//!
//! Electrically, stubs share the SIS return lines: only the addressed
//! function ever drives them (the arbiter's multiplexers in real hardware;
//! the kernel's multi-driver detection enforces the discipline here).

use crate::ir::{BeatCount, DesignIr, FunctionStub, StubState};
use splice_driver::lower::TransferShape;
use splice_driver::program::{decode_with, ResultLayout};
use splice_sim::{Component, Sensitivity, SignalDecl, SignalId, SimulatorBuilder, TickCtx, Word};
use splice_sis::{SisBus, STATUS_FUNC_ID};
use splice_spec::validate::{IoBound, ValidatedFunction, ValidatedIo};

/// The decoded inputs handed to user calculation logic: one element vector
/// per declared input, in declaration order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FuncInputs {
    /// Element values per input.
    pub values: Vec<Vec<Word>>,
}

impl FuncInputs {
    /// The single scalar value of input `i`.
    pub fn scalar(&self, i: usize) -> Word {
        self.values[i].first().copied().unwrap_or(0)
    }

    /// The element slice of input `i`.
    pub fn array(&self, i: usize) -> &[Word] {
        &self.values[i]
    }
}

/// What a calculation produces: a latency and the output elements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CalcResult {
    /// Clock cycles the calculation state consumes (≥ 1).
    pub cycles: u32,
    /// Output elements (ignored for void/nowait functions).
    pub output: Vec<Word>,
}

/// User calculation logic plugged into a generated stub — the simulation
/// analogue of filling in the blank calculation state of §5.3.1.
pub trait CalcLogic {
    /// Run the calculation once all inputs have arrived.
    fn run(&mut self, inputs: &FuncInputs) -> CalcResult;

    /// Display name.
    fn name(&self) -> &str {
        "calc"
    }
}

/// The as-generated stub behaviour: no user logic filled in. Completes in
/// one cycle and returns zeros — "the device will be largely useless"
/// (§8.3) but every bus interaction works, exactly as the thesis describes
/// freshly generated files.
#[derive(Debug, Default, Clone, Copy)]
pub struct DefaultCalc;

impl CalcLogic for DefaultCalc {
    fn run(&mut self, _inputs: &FuncInputs) -> CalcResult {
        CalcResult { cycles: 1, output: Vec::new() }
    }

    fn name(&self) -> &str {
        "default-calc"
    }
}

// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// A zero-input function waiting for its activating bus request — the
    /// hardware only computes when addressed (§5.3.1's state progression
    /// starts from the bus, not from reset).
    AwaitTrigger,
    /// Collecting beats for the input state at `state_idx`.
    Input,
    /// Spinning in the calculation state.
    Calc,
    /// Serving output beats.
    Output,
}

/// One live function instance.
pub struct GeneratedStub {
    /// The FUNC_ID this instance answers to.
    pub func_id: u32,
    bus: SisBus,
    calc_done_line: SignalId,
    /// Completion interrupt line (`%irq_support`, thesis §10.2): pulsed for
    /// one cycle when a round finishes.
    irq_line: Option<SignalId>,
    lower_irq: bool,
    pulse_irq: bool,
    stub: FunctionStub,
    func: ValidatedFunction,
    bus_width: u32,
    calc: Box<dyn CalcLogic>,
    // runtime state
    state_idx: usize,
    phase: Phase,
    beats_buf: Vec<Word>,
    inputs: FuncInputs,
    expected_beats: u64,
    calc_remaining: u32,
    /// Absolute cycle the calculation state completes, fixed on the first
    /// calc tick so a sleeping stub can jump straight to it.
    calc_until: Option<u64>,
    out_beats: Vec<Word>,
    out_pos: usize,
    lower_io_done: bool,
    lower_dov: bool,
    /// A read request (IO_ENABLE strobe with DATA_IN_VALID low) arrived
    /// while the function was still computing; FUNC_ID stays static until
    /// answered (§4.2.1), so the request is latched and served on entry to
    /// the output state.
    pending_read: bool,
    /// Completed input→output rounds.
    pub rounds: u64,
}

impl GeneratedStub {
    fn new(
        func_id: u32,
        bus: SisBus,
        calc_done_line: SignalId,
        stub: FunctionStub,
        func: ValidatedFunction,
        bus_width: u32,
        calc: Box<dyn CalcLogic>,
    ) -> Self {
        let mut s = GeneratedStub {
            func_id,
            bus,
            calc_done_line,
            irq_line: None,
            lower_irq: false,
            pulse_irq: false,
            stub,
            func,
            bus_width,
            calc,
            state_idx: 0,
            phase: Phase::Input,
            beats_buf: Vec::new(),
            inputs: FuncInputs::default(),
            expected_beats: 0,
            calc_remaining: 0,
            calc_until: None,
            out_beats: Vec::new(),
            out_pos: 0,
            lower_io_done: false,
            lower_dov: false,
            pending_read: false,
            rounds: 0,
        };
        s.enter_state(0);
        s
    }

    fn io_of(&self, idx: usize) -> &ValidatedIo {
        if idx < self.func.inputs.len() {
            &self.func.inputs[idx]
        } else {
            self.func.output.as_ref().expect("output io")
        }
    }

    /// Element count for an I/O given the already-received inputs.
    fn elems_for(&self, io: &ValidatedIo) -> u64 {
        match io.bound {
            IoBound::Scalar => 1,
            IoBound::Explicit(n) => n,
            IoBound::Implicit { index_param, .. } => self.inputs.scalar(index_param),
        }
    }

    fn beats_for_state(&self, state: &StubState) -> u64 {
        match state {
            StubState::Input { io, beats, .. } => match beats {
                BeatCount::Static(n) => *n,
                BeatCount::Dynamic { shape, .. } => {
                    let elems = self.elems_for(self.io_of(*io));
                    shape.beats(elems)
                }
            },
            StubState::Output { beats, .. } => match beats {
                BeatCount::Static(n) => *n,
                BeatCount::Dynamic { shape, .. } => {
                    let out = self.func.output.as_ref().expect("output");
                    shape.beats(self.elems_for(out))
                }
            },
            StubState::PseudoOutput => 1,
            StubState::Calc => 0,
        }
    }

    fn enter_state(&mut self, idx: usize) {
        self.state_idx = idx;
        self.beats_buf.clear();
        if idx >= self.stub.states.len() {
            // nowait functions wrap straight back to the first input.
            self.state_idx = 0;
        }
        match &self.stub.states[self.state_idx] {
            StubState::Input { .. } => {
                self.phase = Phase::Input;
                self.expected_beats =
                    self.beats_for_state(&self.stub.states[self.state_idx].clone());
                if self.expected_beats == 0 {
                    // Zero-length dynamic array: skip the state entirely.
                    self.finish_input_state();
                }
            }
            StubState::Calc => {
                if self.state_idx == 0 {
                    // No inputs: arm and wait for the activating request.
                    self.phase = Phase::AwaitTrigger;
                } else {
                    self.start_calc();
                }
            }
            StubState::Output { .. } | StubState::PseudoOutput => {
                self.phase = Phase::Output;
            }
        }
    }

    fn finish_input_state(&mut self) {
        // Decode the collected beats into elements.
        if let StubState::Input { io, .. } = &self.stub.states[self.state_idx] {
            let io_ref = self.func.inputs[*io].clone();
            let elems = self.elems_for(&io_ref);
            let layout = layout_for(&io_ref, self.bus_width, elems);
            let decoded = decode_with(layout, &self.beats_buf);
            while self.inputs.values.len() <= *io {
                self.inputs.values.push(Vec::new());
            }
            self.inputs.values[*io] = decoded;
        }
        let next = self.state_idx + 1;
        self.enter_state(next);
    }

    fn start_calc(&mut self) {
        self.phase = Phase::Calc;
        let result = self.calc.run(&self.inputs);
        self.calc_remaining = result.cycles.max(1);
        self.calc_until = None;
        // Pre-encode the output beats, padded or cut to the beats the
        // output state declares, as the generated HDL serves them.
        self.out_beats = match &self.func.output {
            Some(out) => splice_driver::lower::encode_beats(out, self.bus_width, &result.output),
            None => vec![0], // pseudo output dummy beat
        };
        if let Some(out_state) = self.stub.states.get(self.state_idx + 1) {
            let beats = self.beats_for_state(out_state) as usize;
            self.out_beats.resize(beats, 0);
        }
        self.out_pos = 0;
    }

    fn finish_round(&mut self, ctx: &mut TickCtx<'_>) {
        self.rounds += 1;
        self.inputs = FuncInputs::default();
        self.pulse_irq = true;
        if ctx.metrics_enabled() {
            ctx.metric_add(&format!("stub.{}.rounds", self.stub.name), 1);
            ctx.protocol_event(
                "generated-stub",
                "round_done",
                format!("func={} round={}", self.stub.name, self.rounds),
            );
        }
        self.enter_state(0);
    }

    /// Wire the completion-interrupt line.
    pub fn with_irq(mut self, line: SignalId) -> Self {
        self.irq_line = Some(line);
        self
    }
}

fn layout_for(io: &ValidatedIo, bus_width: u32, elems: u64) -> ResultLayout {
    match splice_driver::lower::transfer_shape(io, bus_width) {
        TransferShape::Direct => ResultLayout::Direct { elems: elems as u32 },
        TransferShape::Packed { per_beat } => {
            ResultLayout::Packed { elems: elems as u32, elem_bits: io.ty.bits, per_beat }
        }
        TransferShape::Split { beats_per_elem } => {
            ResultLayout::Split { elems: elems as u32, beats_per_elem, bus_width }
        }
    }
}

impl Component for GeneratedStub {
    fn tick(&mut self, ctx: &mut TickCtx<'_>) {
        if ctx.get_bool(self.bus.rst) {
            self.inputs = FuncInputs::default();
            self.pending_read = false;
            self.enter_state(0);
            ctx.set(self.calc_done_line, 0);
            if self.lower_io_done {
                ctx.set_bool(self.bus.io_done, false);
                self.lower_io_done = false;
            }
            if self.lower_dov {
                ctx.set_bool(self.bus.data_out_valid, false);
                self.lower_dov = false;
            }
            return;
        }

        // Completion-interrupt pulse (one cycle).
        if let Some(line) = self.irq_line {
            if self.lower_irq {
                ctx.set_bool(line, false);
                self.lower_irq = false;
            }
            if self.pulse_irq {
                ctx.set_bool(line, true);
                self.lower_irq = true;
                self.pulse_irq = false;
            }
        }

        // Strobe cleanup: only the component that raised a shared strobe
        // lowers it (keeps the shared lines single-driver per cycle).
        if self.lower_io_done {
            ctx.set_bool(self.bus.io_done, false);
            self.lower_io_done = false;
        }
        if self.lower_dov {
            ctx.set_bool(self.bus.data_out_valid, false);
            self.lower_dov = false;
        }

        let addressed = ctx.get(self.bus.func_id) == self.func_id as Word;
        let enable = ctx.get_bool(self.bus.io_enable);
        let valid = ctx.get_bool(self.bus.data_in_valid);

        // Latch read requests that arrive before the output state is
        // reached; the master holds FUNC_ID until answered.
        if enable && !valid && addressed && !matches!(self.phase, Phase::Output) {
            self.pending_read = true;
        }

        match self.phase {
            Phase::AwaitTrigger => {
                ctx.set(self.calc_done_line, 0);
                if enable && addressed {
                    // The activating request arrived (a read was latched
                    // into pending_read above); run the calculation.
                    self.start_calc();
                    self.phase = Phase::Calc;
                }
            }
            Phase::Input => {
                ctx.set(self.calc_done_line, 0);
                // IO_ENABLE qualifies each new beat (§4.2.1's timing role).
                if enable && valid && addressed {
                    self.beats_buf.push(ctx.get(self.bus.data_in));
                    ctx.set_bool(self.bus.io_done, true);
                    self.lower_io_done = true;
                    if self.beats_buf.len() as u64 >= self.expected_beats {
                        self.finish_input_state();
                    }
                }
            }
            Phase::Calc => {
                // First calc tick fixes the completion cycle, so a sleeping
                // stub wakes straight at it, and credits the whole
                // calculation to `stub.calc_cycles` once.
                let until = match self.calc_until {
                    Some(until) => until,
                    None => {
                        let n = self.calc_remaining.max(1) as u64;
                        ctx.metric_add("stub.calc_cycles", n);
                        *self.calc_until.insert(ctx.cycle() + n - 1)
                    }
                };
                if ctx.cycle() >= until {
                    self.calc_until = None;
                    if self.stub.nowait {
                        // nowait: pulse CALC_DONE and return to inputs.
                        ctx.set(self.calc_done_line, 1);
                        self.finish_round(ctx);
                    } else {
                        self.phase = Phase::Output;
                        // enter_state bookkeeping: output state follows calc.
                        self.state_idx += 1;
                    }
                }
            }
            Phase::Output => {
                // Calculation complete: hold CALC_DONE high (§5.3.1).
                ctx.set(self.calc_done_line, 1);
                let read_req = addressed && !valid && (enable || self.pending_read);
                if read_req {
                    self.pending_read = false;
                    let beat = self.out_beats.get(self.out_pos).copied().unwrap_or(0);
                    ctx.set(self.bus.data_out, beat);
                    ctx.set_bool(self.bus.data_out_valid, true);
                    ctx.set_bool(self.bus.io_done, true);
                    self.lower_dov = true;
                    self.lower_io_done = true;
                    self.out_pos += 1;
                    if self.out_pos >= self.out_beats.len() {
                        ctx.set(self.calc_done_line, 0);
                        self.finish_round(ctx);
                    }
                }
            }
        }

        // Timed / level wakes (no-ops under eager scheduling): calc spins
        // without signal edges, and a fresh output state must run once to
        // raise CALC_DONE (or serve a latched read) before sleeping.
        match self.phase {
            Phase::Calc => match self.calc_until {
                Some(until) => ctx.wake_after(until.saturating_sub(ctx.cycle()).max(1)),
                None => ctx.wake_after(1),
            },
            Phase::Output if self.pending_read || ctx.get(self.calc_done_line) == 0 => {
                ctx.wake_after(1);
            }
            _ => {}
        }
    }

    fn sensitivity(&self) -> Sensitivity {
        // The SIS request side plus the stub's own driven strobes: a raised
        // strobe's edge wakes the stub for the tick that lowers it again.
        let mut sigs = vec![
            self.bus.rst,
            self.bus.io_enable,
            self.bus.io_done,
            self.bus.data_out_valid,
            self.calc_done_line,
        ];
        if let Some(line) = self.irq_line {
            sigs.push(line);
        }
        Sensitivity::Signals(sigs)
    }

    fn name(&self) -> &str {
        &self.stub.name
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

// ---------------------------------------------------------------------

/// The live arbitration unit: concatenates per-instance CALC_DONE lines
/// into the status vector and serves reserved-id-0 status reads (§5.2,
/// §4.2.2).
pub struct GeneratedArbiter {
    bus: SisBus,
    calc_lines: Vec<(u32, SignalId)>, // (func_id, line)
    /// (func_id, pulse line) pairs feeding the sticky IRQ vector.
    irq_lines: Vec<(u32, SignalId)>,
    /// The latched interrupt vector presented to the CPU (bit = func id);
    /// cleared when the CPU strobes `irq_ack`.
    irq_vector_sig: Option<SignalId>,
    irq_ack_sig: Option<SignalId>,
    irq_latch: Word,
    lower_strobes: bool,
}

impl Component for GeneratedArbiter {
    fn tick(&mut self, ctx: &mut TickCtx<'_>) {
        // Build the status vector: bit i = function id i.
        let mut vec: Word = 0;
        for &(id, line) in &self.calc_lines {
            if ctx.get_bool(line) {
                vec |= 1 << id;
            }
        }
        ctx.set(self.bus.calc_done, vec);

        // Latch completion-interrupt pulses into the sticky vector; the
        // CPU's acknowledge strobe clears it (§10.2 interrupt support).
        if let (Some(vsig), Some(ack)) = (self.irq_vector_sig, self.irq_ack_sig) {
            if ctx.get_bool(ack) {
                self.irq_latch = 0;
            }
            for &(id, line) in &self.irq_lines {
                if ctx.get_bool(line) {
                    self.irq_latch |= 1 << id;
                    ctx.metric_add("arbiter.irq_latched", 1);
                }
            }
            ctx.set(vsig, self.irq_latch);
        }

        if self.lower_strobes {
            ctx.set_bool(self.bus.io_done, false);
            ctx.set_bool(self.bus.data_out_valid, false);
            self.lower_strobes = false;
        }
        // Status reads: id 0, read request.
        let read_req = ctx.get_bool(self.bus.io_enable)
            && !ctx.get_bool(self.bus.data_in_valid)
            && ctx.get(self.bus.func_id) == STATUS_FUNC_ID as Word;
        if read_req {
            ctx.metric_add("arbiter.status_reads", 1);
            ctx.set(self.bus.data_out, vec);
            ctx.set_bool(self.bus.data_out_valid, true);
            ctx.set_bool(self.bus.io_done, true);
            self.lower_strobes = true;
        }

        // Status reads are level-triggered on IO_ENABLE, so keep ticking
        // while it is held high (and for pending strobe cleanup) even if no
        // watched signal produces an edge.
        if ctx.get_bool(self.bus.io_enable) || self.lower_strobes {
            ctx.wake_after(1);
        }
    }

    fn sensitivity(&self) -> Sensitivity {
        let mut sigs = vec![
            self.bus.io_enable,
            self.bus.data_in_valid,
            self.bus.func_id,
            self.bus.io_done,
            self.bus.data_out_valid,
        ];
        sigs.extend(self.calc_lines.iter().map(|&(_, line)| line));
        sigs.extend(self.irq_lines.iter().map(|&(_, line)| line));
        if let Some(ack) = self.irq_ack_sig {
            sigs.push(ack);
        }
        Sensitivity::Signals(sigs)
    }

    fn name(&self) -> &str {
        "generated-arbiter"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

// ---------------------------------------------------------------------

/// Handles to a built peripheral.
pub struct PeripheralHandles {
    /// The SIS the native bus adapter should attach to.
    pub bus: SisBus,
    /// Component indices of the stubs, in arbiter-entry (func id) order.
    pub stub_components: Vec<usize>,
    /// Component index of the arbiter.
    pub arbiter_component: usize,
    /// The sticky completion-interrupt vector (bit = func id), present when
    /// the design was generated with `%irq_support true`.
    pub irq_vector: Option<SignalId>,
    /// CPU-side acknowledge strobe clearing the vector.
    pub irq_ack: Option<SignalId>,
}

/// Instantiate a whole generated peripheral (every function instance plus
/// the arbiter) into `b`, returning the SIS for a bus adapter to drive.
///
/// `calc_factory(function_name, instance)` supplies the user logic for each
/// hardware copy; pass [`DefaultCalc`] for as-generated (blank) stubs.
pub fn build_peripheral(
    b: &mut SimulatorBuilder,
    ir: &DesignIr,
    prefix: &str,
    mut calc_factory: impl FnMut(&str, u32) -> Box<dyn CalcLogic>,
) -> PeripheralHandles {
    let p = &ir.module.params;
    let total = ir.total_instances();
    assert!(total < 64, "simulation status vector holds at most 63 instances (design has {total})");
    // FUNC_ID as declared may be narrow; use at least enough bits.
    let bus = SisBus::declare(b, prefix, p.bus_width, p.func_id_width.max(1));

    let irq_enabled = p.irq;
    let (irq_vector, irq_ack) = if irq_enabled {
        (
            Some(b.signal(SignalDecl::new(format!("{prefix}IRQ_VECTOR"), 64))),
            Some(b.signal(SignalDecl::new(format!("{prefix}IRQ_ACK"), 1))),
        )
    } else {
        (None, None)
    };

    let mut stub_components = Vec::new();
    let mut calc_lines = Vec::new();
    let mut irq_lines = Vec::new();
    for (si, inst, id) in ir.arbiter_entries() {
        let stub = &ir.stubs[si];
        let func = ir.module.function(&stub.name).expect("stub function exists").clone();
        let line = b.signal(SignalDecl::new(format!("{prefix}{}.{inst}.CALC_DONE", stub.name), 1));
        calc_lines.push((id, line));
        let mut comp = GeneratedStub::new(
            id,
            bus,
            line,
            stub.clone(),
            func,
            p.bus_width,
            calc_factory(&stub.name, inst),
        );
        if irq_enabled && stub.fires_irq() {
            let irq = b.signal(SignalDecl::new(format!("{prefix}{}.{inst}.IRQ", stub.name), 1));
            irq_lines.push((id, irq));
            comp = comp.with_irq(irq);
        }
        stub_components.push(b.component(Box::new(comp)));
    }
    let arbiter_component = b.component(Box::new(GeneratedArbiter {
        bus,
        calc_lines,
        irq_lines,
        irq_vector_sig: irq_vector,
        irq_ack_sig: irq_ack,
        irq_latch: 0,
        lower_strobes: false,
    }));
    PeripheralHandles { bus, stub_components, arbiter_component, irq_vector, irq_ack }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elaborate::elaborate;
    use splice_sim::Simulator;
    use splice_sis::{SisMaster, SisMode, SisOp};
    use splice_spec::parse_and_validate;

    fn design(decls: &str, extra: &str) -> DesignIr {
        let src = format!(
            "%device_name demo\n%bus_type plb\n%bus_width 32\n%base_address 0x80000000\n{extra}\n{decls}"
        );
        elaborate(&parse_and_validate(&src).unwrap().module)
    }

    struct SumCalc {
        cycles: u32,
    }
    impl CalcLogic for SumCalc {
        fn run(&mut self, inputs: &FuncInputs) -> CalcResult {
            let total: Word = inputs.values.iter().flatten().sum();
            CalcResult { cycles: self.cycles, output: vec![total] }
        }
    }

    fn run_script(
        ir: &DesignIr,
        mode: SisMode,
        script: Vec<SisOp>,
        cycles: u32,
    ) -> (Simulator, usize) {
        let mut b = SimulatorBuilder::new();
        let handles = build_peripheral(&mut b, ir, "", |_, _| Box::new(SumCalc { cycles }));
        let midx = b.component(Box::new(SisMaster::new(handles.bus, mode, script)));
        let mut sim = b.build();
        sim.run_until("master finished", 100_000, |s| {
            s.component::<SisMaster>(midx).unwrap().is_finished()
        })
        .unwrap();
        (sim, midx)
    }

    #[test]
    fn scalar_roundtrip_through_generated_stub() {
        let ir = design("long add2(int a, int b);", "");
        let script = vec![
            SisOp::Write { func_id: 1, data: 30 },
            SisOp::Write { func_id: 1, data: 12 },
            SisOp::Read { func_id: 1 },
        ];
        let (sim, midx) = run_script(&ir, SisMode::PseudoAsync, script, 2);
        let m = sim.component::<SisMaster>(midx).unwrap();
        assert_eq!(m.reads, vec![42]);
    }

    #[test]
    fn explicit_array_collects_all_beats() {
        let ir = design("long sum4(int*:4 xs);", "");
        let mut script: Vec<SisOp> =
            (1..=4).map(|i| SisOp::Write { func_id: 1, data: i * 10 }).collect();
        script.push(SisOp::Read { func_id: 1 });
        let (sim, midx) = run_script(&ir, SisMode::PseudoAsync, script, 1);
        assert_eq!(sim.component::<SisMaster>(midx).unwrap().reads, vec![100]);
    }

    #[test]
    fn implicit_array_uses_runtime_bound() {
        let ir = design("long sumn(int n, int*:n xs);", "");
        let script = vec![
            SisOp::Write { func_id: 1, data: 3 }, // n = 3
            SisOp::Write { func_id: 1, data: 5 },
            SisOp::Write { func_id: 1, data: 6 },
            SisOp::Write { func_id: 1, data: 7 },
            SisOp::Read { func_id: 1 },
        ];
        let (sim, midx) = run_script(&ir, SisMode::PseudoAsync, script, 1);
        // 3 (the n input) + 5+6+7.
        assert_eq!(sim.component::<SisMaster>(midx).unwrap().reads, vec![21]);
    }

    #[test]
    fn zero_length_implicit_array_skips_state() {
        let ir = design("long sumn(int n, int*:n xs);", "");
        let script = vec![
            SisOp::Write { func_id: 1, data: 0 }, // n = 0: no array beats
            SisOp::Read { func_id: 1 },
        ];
        let (sim, midx) = run_script(&ir, SisMode::PseudoAsync, script, 1);
        assert_eq!(sim.component::<SisMaster>(midx).unwrap().reads, vec![0]);
    }

    #[test]
    fn split_input_reassembles_64_bits() {
        let ir = design("llong echo64(llong v);", "%user_type llong, unsigned long long, 64");
        // MSW first, then LSW; output comes back as two beats MSW first.
        let script = vec![
            SisOp::Write { func_id: 1, data: 0xDEAD_BEEF },
            SisOp::Write { func_id: 1, data: 0x1234_5678 },
            SisOp::Read { func_id: 1 },
            SisOp::Read { func_id: 1 },
        ];
        let (sim, midx) = run_script(&ir, SisMode::PseudoAsync, script, 1);
        let m = sim.component::<SisMaster>(midx).unwrap();
        assert_eq!(m.reads, vec![0xDEAD_BEEF, 0x1234_5678]);
    }

    #[test]
    fn packed_input_unpacks_elements() {
        let ir = design("long sum8(char*:8+ xs);", "");
        let script = vec![
            SisOp::Write { func_id: 1, data: 0x0403_0201 },
            SisOp::Write { func_id: 1, data: 0x0807_0605 },
            SisOp::Read { func_id: 1 },
        ];
        let (sim, midx) = run_script(&ir, SisMode::PseudoAsync, script, 1);
        assert_eq!(sim.component::<SisMaster>(midx).unwrap().reads, vec![36]);
    }

    #[test]
    fn void_function_pseudo_output_serves_sync_read() {
        let ir = design("void ping(int x);", "");
        let script = vec![
            SisOp::Write { func_id: 1, data: 9 },
            SisOp::Read { func_id: 1 }, // blocks until pseudo output ready
        ];
        let (sim, midx) = run_script(&ir, SisMode::PseudoAsync, script, 5);
        let m = sim.component::<SisMaster>(midx).unwrap();
        assert_eq!(m.reads, vec![0]);
    }

    #[test]
    fn status_register_reflects_calc_done() {
        let ir = design("long f(int x);", "");
        let script = vec![
            SisOp::Write { func_id: 1, data: 1 },
            SisOp::PollStatus { func_id: 1 },
            SisOp::Read { func_id: 1 },
        ];
        // Strict-sync forces real polling through the arbiter's vector.
        let (sim, midx) = run_script(&ir, SisMode::StrictSync, script, 10);
        let m = sim.component::<SisMaster>(midx).unwrap();
        assert_eq!(m.reads, vec![1]);
    }

    #[test]
    fn two_functions_share_the_bus_without_conflicts() {
        let ir = design("long inc(int a);\nlong dup(int b);", "");
        let script = vec![
            SisOp::Write { func_id: 1, data: 5 },
            SisOp::Write { func_id: 2, data: 7 },
            SisOp::Read { func_id: 1 },
            SisOp::Read { func_id: 2 },
        ];
        let (sim, midx) = run_script(&ir, SisMode::PseudoAsync, script, 1);
        let m = sim.component::<SisMaster>(midx).unwrap();
        assert_eq!(m.reads, vec![5, 7]);
    }

    #[test]
    fn multi_instance_copies_isolate_state() {
        let ir = design("long inc(int a):2;", "");
        // Interleave: write to instance 0 (id 1) and instance 1 (id 2).
        let script = vec![
            SisOp::Write { func_id: 1, data: 100 },
            SisOp::Write { func_id: 2, data: 200 },
            SisOp::Read { func_id: 2 },
            SisOp::Read { func_id: 1 },
        ];
        let (sim, midx) = run_script(&ir, SisMode::PseudoAsync, script, 1);
        let m = sim.component::<SisMaster>(midx).unwrap();
        assert_eq!(m.reads, vec![200, 100]);
    }

    #[test]
    fn nowait_function_returns_to_input_without_reads() {
        let ir = design("nowait fire(int x);", "");
        let script = vec![
            SisOp::Write { func_id: 1, data: 1 },
            SisOp::Idle(10),
            SisOp::Write { func_id: 1, data: 2 },
            SisOp::Idle(10),
        ];
        let (sim, _) = run_script(&ir, SisMode::PseudoAsync, script, 2);
        let stub = sim.component::<GeneratedStub>(0).unwrap();
        assert_eq!(stub.rounds, 2);
    }

    #[test]
    fn calc_latency_delays_output() {
        let ir = design("long f(int x);", "");
        let script = vec![SisOp::Write { func_id: 1, data: 1 }, SisOp::Read { func_id: 1 }];
        let fast = {
            let (sim, midx) = run_script(&ir, SisMode::PseudoAsync, script.clone(), 1);
            sim.component::<SisMaster>(midx).unwrap().finished_cycle.unwrap()
        };
        let slow = {
            let (sim, midx) = run_script(&ir, SisMode::PseudoAsync, script, 40);
            sim.component::<SisMaster>(midx).unwrap().finished_cycle.unwrap()
        };
        assert!(slow >= fast + 35, "fast={fast} slow={slow}");
    }

    #[test]
    fn default_calc_makes_generated_design_useless_but_functional() {
        let ir = design("long f(int x);", "");
        let mut b = SimulatorBuilder::new();
        let handles = build_peripheral(&mut b, &ir, "", |_, _| Box::new(DefaultCalc));
        let midx = b.component(Box::new(SisMaster::new(
            handles.bus,
            SisMode::PseudoAsync,
            vec![SisOp::Write { func_id: 1, data: 77 }, SisOp::Read { func_id: 1 }],
        )));
        let mut sim = b.build();
        sim.run_until("finish", 10_000, |s| s.component::<SisMaster>(midx).unwrap().is_finished())
            .unwrap();
        assert_eq!(sim.component::<SisMaster>(midx).unwrap().reads, vec![0]);
    }
}
